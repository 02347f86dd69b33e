"""Root groupoid schemes: data model, file format, and axiom validation.

A scheme bundles a finite set of objects, an involutive action of the
generators on the objects, and one reflection coefficient vector per
(generator, object) pair.  Each object carries its own integer coordinate
system in which its simple roots are the standard basis vectors, so the
reflection attached to generator ``i`` at object ``a`` is the integer
matrix that negates coordinate ``i`` and adds nonnegative multiples of it
to the others, mapping ``a``-coordinates to ``(i |> a)``-coordinates.

Positive root sets are stored as positive halves only; the full root set
of an object is implicitly the union of the stored half and its negative.
Schemes are immutable; operations that "fill in" data (root generation)
return a new scheme.

A scheme's types, shape and -1 at entry i of each coefficient vector
are checked once, when it is constructed, so every table holds ints and
reads as the rank and the object count claim, and every coefficient
vector is row i of its reflection matrix; validate() checks the axioms.
The library's constructors skip that check (_built) only where they
build from parts they have typed themselves.

Generators and objects are 0-based integers throughout the API.  Witness
strings in validation reports use 1-based generator labels and object
names, matching the command-line convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .intmat import Matrix, Vector, basis_vector, is_nonneg, is_zero, neg, reflect_vector

# Not called here, but kept bound in this module: the benchmark's tracer
# (bench/tracing.py) counts calls through scheme.mat_mul and scheme.mat_vec.
from .intmat import mat_mul, mat_vec  # noqa: E402,F401

PRESCRIBED = "prescribed"
GENERATED = "generated"
_MODES = (PRESCRIBED, GENERATED)

FINITE = "finite"
TRUNCATED = "truncated"


class SchemeFormatError(ValueError):
    """A scheme or its file is malformed: a field's type or shape, the JSON
    structure or a value; the message names the field as in the file."""


class InconsistentSchemeError(ValueError):
    """Stored root data contradicts the axioms; validate() names which one."""


@dataclass(frozen=True)
class RootGroupoidScheme:
    """The combinatorial core: objects, generator action, reflection data.

    Fields:
      rank            number of generators
      objects         display names, one per object
      action          action[i][a] = the object reached from a by generator i
      coefficients    coefficients[i][a][j] = multiple of the i-th simple
                      root added to the j-th one by the reflection at
                      (i, a); the entry at j == i is -1, so the vector is
                      row i of the reflection matrix
      mode            "prescribed" (root sets given) or "generated"
                      (root sets computed on demand)
      positive_roots  per object, the sorted tuple of positive roots, or
                      None when not yet materialized
      status          "finite" when the stored root sets are known to be
                      complete, "truncated" when generation hit its height
                      cutoff, None when no roots are stored
      cutoff          height bound used at generation time, if any

    Construction checks the types and shape of these fields (each
    field's types first) and the -1 convention, so no misshapen scheme
    exists: an int rank (not a bool) of at least 1; at least one object
    name, all str and distinct; a known mode; rank action rows of one
    object index (an int in range) per object; rank by n_objects
    coefficient vectors of rank ints, each with -1 at entry i; one root
    set per object, of vectors of rank ints; root sets in prescribed
    mode, a status exactly when root sets are stored, and a cutoff of
    None or an int >= 1.  The first fault raises SchemeFormatError,
    worded as load_scheme words it in a file.  The other rules on values
    are the file format's (_check_values), and whether the data
    satisfies the axioms is validate's question.

    Every value from outside the library passes this check: direct
    construction, dataclasses.replace and load_scheme run it.  The
    library's own constructors (from_cartan, from_bicharacter and
    generate_roots) build their result by _built instead, from parts they
    have typed themselves or read off a checked scheme, so they do not
    pay for the check again.
    """

    rank: int
    objects: tuple[str, ...]
    action: tuple[tuple[int, ...], ...]
    coefficients: tuple[tuple[tuple[int, ...], ...], ...]
    mode: str
    positive_roots: tuple[tuple[Vector, ...], ...] | None = None
    status: str | None = None
    cutoff: int | None = None

    def __post_init__(self) -> None:
        # Where an array belongs, a value that is no tuple or list reads as
        # an empty array (_array, here and in _check_ints), as load_scheme
        # reads a file, so the shape checks name it in load_scheme's words.
        rank, names, roots = self.rank, _array(self.objects), self.positive_roots
        n = len(names)
        if type(rank) is not int:
            raise SchemeFormatError(f"rank: expected an integer, got {rank!r}")
        if rank < 1:
            raise SchemeFormatError("rank: must be at least 1")
        if not n or not {*map(type, names)} <= {str}:
            raise SchemeFormatError("objects: expected a nonempty array of strings")
        if len(set(names)) != n:
            dup = next(x for k, x in enumerate(names) if x in names[:k])
            raise SchemeFormatError(f"objects: duplicate object name {dup!r}")
        if self.mode not in _MODES:
            raise SchemeFormatError(f"mode: expected one of {_MODES}, got {self.mode!r}")
        (action,) = _check_ints((self.action,), "action[{1}][{2}]")
        if len(action) != rank:
            raise SchemeFormatError(f"action: expected {rank} rows")
        for i, row in enumerate(action):
            if len(row) != n:
                raise SchemeFormatError(f"action[{i}]: expected {n} entries")
            if min(row) < 0 or max(row) >= n:
                a, t = next((a, t) for a, t in enumerate(row) if not 0 <= t < n)
                raise SchemeFormatError(f"action[{i}][{a}]: object index {t} out of range")
        coefficients = _check_ints(self.coefficients, "coefficients[{}][{}][{}]")
        if len(coefficients) != rank:
            raise SchemeFormatError(f"coefficients: expected {rank} rows")
        for i, per_object in enumerate(coefficients):
            if len(per_object) != n:
                raise SchemeFormatError(f"coefficients[{i}]: expected {n} entries")
            for a, c in enumerate(per_object):
                if len(c) != rank:
                    raise SchemeFormatError(f"coefficients[{i}][{a}]: expected {rank} integers")
                if c[i] != -1:
                    raise SchemeFormatError(
                        f"coefficients[{i}][{a}][{i}]: unused entry must be -1 by convention"
                    )
        if roots is None:
            if self.mode == PRESCRIBED:
                raise SchemeFormatError("roots: required in prescribed mode")
            if self.status is not None:
                raise SchemeFormatError(
                    f"status: must be None without root sets, got {self.status!r}"
                )
        else:
            for a, pos in enumerate(_array(roots)):
                if not isinstance(pos, (list, tuple)):
                    raise SchemeFormatError(f"roots[{a}]: expected an array of vectors")
            roots = _check_ints(roots, "roots[{}][{}]")
            if len(roots) != n:
                raise SchemeFormatError(f"roots: expected {n} per-object arrays")
            for a, pos in enumerate(roots):
                for k, r in enumerate(pos):
                    if len(r) != rank:
                        raise SchemeFormatError(f"roots[{a}][{k}]: expected {rank} integers")
            if self.status not in (FINITE, TRUNCATED):
                raise SchemeFormatError(
                    f"status: expected one of {(FINITE, TRUNCATED)} with root sets, "
                    f"got {self.status!r}"
                )
        if self.cutoff is not None and (type(self.cutoff) is not int or self.cutoff < 1):
            raise SchemeFormatError(
                f"cutoff: expected None or an integer of at least 1, got {self.cutoff!r}"
            )

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def object_index(self, name: str) -> int:
        try:
            return self.objects.index(name)
        except ValueError:
            raise ValueError(f"unknown object name {name!r}") from None

    def simple_root(self, j: int) -> Vector:
        return basis_vector(self.rank, j)

    @cached_property
    def root_tables(self) -> RootTables:
        """The scheme's root-index and rank-two tables, built on first use.

        The one gate that every read of finite root data passes first.
        Needs finite roots (ValueError otherwise) that pass all seven
        axioms; otherwise raises InconsistentSchemeError naming the first
        failing axiom of validate's report, as "axiom N FAIL (witness)".
        A passing validate on finite roots leaves the tables here, and a
        failure is kept and raised again.  Both live on the instance,
        outside the fields: equality, hashing and replace() ignore them.
        """
        _require_roots(self)
        if self.status != FINITE:
            raise ValueError("operation requires finite root data, scheme is truncated")
        if "_gate_failure" not in vars(self):
            report, tables = _checked(self)
            if report.passed:
                return tables
            r = next(r for r in report.results if not r.passed)
            vars(self)["_gate_failure"] = f"axiom {r.axiom} FAIL ({r.witness})"
        raise InconsistentSchemeError(vars(self)["_gate_failure"])


def _built(
    *, rank, objects, action, coefficients, mode, positive_roots=None, status=None, cutoff=None
) -> RootGroupoidScheme:
    """A scheme of these fields, without the constructor's check.

    Only for library code whose every field is one of a checked scheme or
    a value of the right type and shape that the caller has just built
    from checked ones: tuples all the way down, ints where ints belong.
    Such a scheme is one the constructor would accept, so equality,
    hashing and dataclasses.replace treat it as any other.
    """
    s = object.__new__(RootGroupoidScheme)
    vars(s).update(
        rank=rank, objects=objects, action=action, coefficients=coefficients, mode=mode,
        positive_roots=positive_roots, status=status, cutoff=cutoff,
    )
    return s


@dataclass(frozen=True, eq=False)
class RootTables:
    """A finite scheme's roots as indices, per object a with P positive roots.

    Index k in 0..P-1 names the k-th stored positive root and ~k (that is
    -k - 1) its negative, so an index is negative exactly when its root
    is, and ~ negates it.
      roots[a]     the 2P roots: the stored positive half, then its
                   negatives in reverse order, so that roots[a][k] is the
                   root of index k for every k in -P..P-1
      index[a]     root -> index
      sigma[i][a]  the reflection at (i, a) on indices: entry k is the
                   index in i |> a of the image of root k, k in -P..P-1
      simple[a]    simple[a][j] is the index of the j-th simple root
      rank_two     rank_two[i][j][a] is the rank-two count (_rank_two_table)
      action       the scheme's action: sigma[i][a] maps into action[i][a]
      pairs        pairs[i][j][a] is sigma[i][j |> a] after sigma[j][a], the
                   letter pair (i, j) from a on indices, laid out as sigma
                   is; built on first read and kept on the tables

    Word evaluation (groupoid._word_columns) maps the column indices once
    per two letters through pairs, an odd leftover letter through sigma.
    The pair table holds rank^2 x objects maps of 2P entries: 15,360 for
    E8, the largest scheme the tests and the benchmark build (about
    130 kB, built in about a millisecond).  It is built only when a word
    of two or more letters is evaluated, so a scheme whose tables only
    validate, as in a classification scan, never pays for it.
    """

    roots: tuple[tuple[Vector, ...], ...]
    index: tuple[dict[Vector, int], ...]
    sigma: tuple[tuple[tuple[int, ...], ...], ...]
    simple: tuple[tuple[int, ...], ...]
    rank_two: tuple[tuple[tuple[int, ...], ...], ...]
    action: tuple[tuple[int, ...], ...]

    @cached_property
    def pairs(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        sigma, action = self.sigma, self.action
        return tuple(
            tuple(
                tuple(tuple(map(sigma_i[b].__getitem__, sigma_ja))
                      for sigma_ja, b in zip(sigma_j, action_j))
                for sigma_j, action_j in zip(sigma, action)
            )
            for sigma_i in sigma
        )


def _root_index(s: RootGroupoidScheme) -> tuple[tuple, tuple, tuple | str]:
    """The roots, index and sigma fields of the root tables, with sigma
    replaced by validate's witness against axiom 5 at the first failing
    (generator, object) pair: the one check of axiom 5.

    Exact on any stored halves, zero vectors, mixed signs and repeats
    included: index[a] holds the root set of a, P and -P as a set, and
    the target's set is closed under negation.  A reflection is linear
    and injective, so it maps the root set of a onto that of i |> a
    exactly when every stored root's image is found there and both sets
    have the same size.
    """
    roots = tuple(pos + tuple(neg(r) for r in reversed(pos)) for pos in s.positive_roots)
    index = tuple(
        dict(zip(full, [*range(len(pos)), *range(-len(pos), 0)]))
        for full, pos in zip(roots, s.positive_roots)
    )
    sigma = []
    for i in range(s.rank):
        row = []
        for a, pos in enumerate(s.positive_roots):
            b = s.action[i][a]
            target = index[b]
            images = [target.get(reflect_vector(i, s.coefficients[i][a], r)) for r in pos]
            if None in images or len(target) != len(index[a]):
                half = {reflect_vector(i, s.coefficients[i][a], r) for r in pos}
                image = half | {neg(r) for r in half}
                diff = sorted(target.keys() - image) + sorted(image - target.keys())
                return roots, index, (
                    f"generator {_gen_label(i)} at object {s.objects[a]}: image does not "
                    f"equal the root set of {s.objects[b]}, first mismatch "
                    f"{_root_label(diff[0])}"
                )
            # reflections are linear: the image of -r is the negative of r's
            row.append(tuple(images + [~k for k in reversed(images)]))
        sigma.append(tuple(row))
    return roots, index, tuple(sigma)


def _rank_two_table(s: RootGroupoidScheme) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rank-two table: counts[i][j][a] for generators i, j and object a.

    The entry is the number of stored positive roots of object a whose
    support (set of nonzero coordinates) lies in {i, j}, the zero vector
    too, so the table is symmetric in i and j and counts[i][i][a] is the
    number of stored roots supported on i alone.  Each root's support is
    computed once.
    """
    supports = [
        [sup for sup in ({k for k, x in enumerate(r) if x} for r in pos) if len(sup) <= 2]
        for pos in s.positive_roots
    ]
    rank = range(s.rank)
    return tuple(
        tuple(tuple(sum(map({i, j}.issuperset, per_a)) for per_a in supports) for j in rank)
        for i in rank
    )


def _require_roots(s: RootGroupoidScheme) -> None:
    if s.positive_roots is None:
        raise ValueError("root sets are not materialized")


def check_generator(s: RootGroupoidScheme, i: int) -> None:
    if not 0 <= i < s.rank:
        raise ValueError(f"generator index {i} out of range 0..{s.rank - 1}")


def check_object(s: RootGroupoidScheme, a: int) -> None:
    if not 0 <= a < s.n_objects:
        raise ValueError(f"object index {a} out of range 0..{s.n_objects - 1}")


def act(s: RootGroupoidScheme, i: int, a: int) -> int:
    """Apply generator i to object a."""
    check_generator(s, i)
    check_object(s, a)
    return s.action[i][a]


def word_path(s: RootGroupoidScheme, letters: Sequence[int], a: int) -> list[int]:
    """Objects a word visits from a: entry len(letters) is a, entry k is
    letters[k] applied to entry k + 1 (the object letters[k] acts from),
    so entry 0 is the target.  Checks a, then each letter as applied."""
    check_object(s, a)
    path = [a] * (len(letters) + 1)
    rank, action = s.rank, s.action
    for k in range(len(letters) - 1, -1, -1):
        i = letters[k]
        if not 0 <= i < rank:
            check_generator(s, i)
        path[k] = action[i][path[k + 1]]
    return path


def act_word(s: RootGroupoidScheme, letters: Sequence[int], a: int) -> int:
    """Apply a word of generators to an object, rightmost letter first."""
    return word_path(s, letters, a)[0]


def theta(s: RootGroupoidScheme, i: int, j: int, a: int) -> int:
    """Least m >= 1 with (r_i r_j)^m(a) = a, the Coxeter-relation exponent.

    Not the size of the two-generator orbit of a, which can be twice m.
    Symmetric in i and j, and constant along the two-generator orbit.
    RuntimeError if a does not return within n_objects steps (only a
    non-involutive action allows that).
    """
    check_generator(s, i)
    check_generator(s, j)
    check_object(s, a)
    if i == j:
        raise ValueError("theta requires two distinct generators")
    b = a
    for m in range(1, s.n_objects + 1):
        b = s.action[i][s.action[j][b]]
        if b == a:
            return m
    raise RuntimeError("theta recursion did not close on a finite object set")


def reflection_from_coefficients(i: int, coeffs: Sequence[int]) -> Matrix:
    """Matrix of the reflection of generator i with the given coefficients.

    Row i is the coefficient vector, whose entry i is -1; all other rows
    are standard basis rows.  Such matrices are involutions.
    """
    n = len(coeffs)
    return tuple(tuple(coeffs) if r == i else basis_vector(n, r) for r in range(n))


def reflection_matrix(s: RootGroupoidScheme, i: int, a: int) -> Matrix:
    """Matrix of the reflection at (i, a), from a- to (i |> a)-coordinates.

    The reflection at (i, i |> a) with the same coefficients inverts it.
    """
    check_generator(s, i)
    check_object(s, a)
    return reflection_from_coefficients(i, s.coefficients[i][a])


# ---------------------------------------------------------------------------
# file format


def _check_ints(table, where: str):
    """The table, after SchemeFormatError at the first entry table[x][y][k]
    that is not an int, named where.format(x, y, k).

    One type pass over the flat table decides.  Only if it fails is the
    table read again, as an _array of _arrays of _arrays, and that reading
    returned, so that the shape checks that follow name a value that is
    no array where one belongs.
    """
    try:
        if {*map(type, chain.from_iterable(chain.from_iterable(table)))} <= {int}:
            return table
    except TypeError:  # a value where an array belongs is not iterable
        pass
    table = tuple(tuple(map(_array, _array(row))) for row in _array(table))
    for x, row in enumerate(table):
        for y, vec in enumerate(row):
            for k, v in enumerate(vec):
                if type(v) is not int:
                    raise SchemeFormatError(
                        f"{where.format(x, y, k)}: expected an integer, got {v!r}"
                    )
    return table


def _array(value):
    """An array (a list, or in a constructed scheme a tuple) as it is, any
    other value as an empty tuple.  Each table in a scheme has at least one
    entry, so the constructor then refuses an empty one by naming how many
    entries it should have."""
    return value if isinstance(value, (list, tuple)) else ()


def load_scheme(text: str) -> RootGroupoidScheme:
    """Parse a scheme file (UTF-8 JSON).

    Checks the JSON structure here (a top-level object with every field,
    no roots in generated mode; any other value where an array belongs
    reads as empty, as in the constructor), builds the scheme, whose
    constructor checks types and shapes, then checks the other rules on
    values (_check_values).  Positions in messages are those in the file;
    each root set is sorted last.  The root-system axioms are checked
    separately by validate().
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
        raise SchemeFormatError(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise SchemeFormatError("top level: expected a JSON object")

    for field in ("rank", "objects", "action", "coefficients", "mode"):
        if field not in data:
            raise SchemeFormatError(f"missing field {field!r}")

    mode = data["mode"]
    roots = None
    if mode == PRESCRIBED and "roots" in data:
        # a root set that is no array is passed on for the constructor to name
        roots = tuple(
            tuple(tuple(_array(v)) for v in vecs) if isinstance(vecs, list) else vecs
            for vecs in _array(data["roots"])
        )

    s = RootGroupoidScheme(
        rank=data["rank"],
        objects=tuple(_array(data["objects"])),
        action=tuple(tuple(_array(row)) for row in _array(data["action"])),
        coefficients=tuple(
            tuple(tuple(_array(vec)) for vec in _array(per_object))
            for per_object in _array(data["coefficients"])
        ),
        mode=mode,
        positive_roots=roots,
        status=None if roots is None else FINITE,
    )
    _check_values(s)
    if mode == GENERATED:
        if data.get("roots") is not None:
            raise SchemeFormatError("roots: must be absent in generated mode")
        return s
    ordered = tuple(tuple(sorted(vecs)) for vecs in roots)
    return s if ordered == roots else replace(s, positive_roots=ordered)


def _check_values(s: RootGroupoidScheme) -> None:
    """The file format's rules on values beyond the constructor's: an
    involutive action, nonnegative coefficients off entry i, and in
    prescribed mode per object nonzero, distinct roots that include the
    simple ones.  The first fault raises SchemeFormatError at its position
    in the scheme's tables."""
    for i, row in enumerate(s.action):
        for a, t in enumerate(row):
            if row[t] != a:
                raise SchemeFormatError(
                    f"action[{i}][{a}]: generator action is not involutive "
                    f"at object {s.objects[a]!r}"
                )
    for i, per_object in enumerate(s.coefficients):
        for a, vec in enumerate(per_object):
            if min(vec) < -1 or vec.count(-1) > 1:  # a negative entry besides the -1 at i
                j = next(j for j, c in enumerate(vec) if j != i and c < 0)
                raise SchemeFormatError(
                    f"coefficients[{i}][{a}][{j}]: reflection coefficients must be nonnegative"
                )
    if s.mode != PRESCRIBED:
        return
    simple = [basis_vector(s.rank, j) for j in range(s.rank)]
    for a, vecs in enumerate(s.positive_roots):
        seen = set()
        for k, v in enumerate(vecs):
            if not any(v):
                raise SchemeFormatError(f"roots[{a}][{k}]: roots must be nonzero")
            if v in seen:
                raise SchemeFormatError(f"roots[{a}][{k}]: duplicate root {list(v)}")
            seen.add(v)
        for j, e in enumerate(simple):
            if e not in seen:
                raise SchemeFormatError(
                    f"roots[{a}]: missing simple root {j + 1} of object {s.objects[a]!r}"
                )


def save_scheme(s: RootGroupoidScheme) -> str:
    """Serialize to the scheme file format with normalized ordering.

    Refuses, by _check_values' SchemeFormatError, a scheme that
    load_scheme would refuse to read back; positions in its message are
    those in the scheme's tables, before the root sets are sorted.

    The text equals, byte for byte, json.dumps(doc, indent=2) plus a
    newline, where doc holds the fields as a dict of lists.  It is joined
    here from the tables instead, since with an indent json.dumps runs
    its pure-Python encoder.  Only the strings (the object names and the
    mode) go through json.dumps, so their escaping is json's own.
    """
    _check_values(s)
    fields = [
        ("rank", str(s.rank)),
        ("objects", _json_array(list(map(json.dumps, s.objects)), 1)),
        ("action", _json_array([_json_ints(row, 2) for row in s.action], 1)),
        ("coefficients", _json_array(
            [_json_array([_json_ints(vec, 3) for vec in per_obj], 2)
             for per_obj in s.coefficients], 1)),
        ("mode", json.dumps(s.mode)),
    ]
    if s.mode == PRESCRIBED:
        fields.append(("roots", _json_array(
            [_json_array([_json_ints(r, 3) for r in sorted(pos)], 2)
             for pos in s.positive_roots], 1)))
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}\n"


# How json.dumps(indent=2) lays out an array nested d levels deep, for the
# depths of a scheme file: it opens with _OPEN[d], puts _SEP[d] between
# the items, one a line, and closes with _CLOSE[d].
_OPEN = tuple("[\n" + "  " * (d + 1) for d in range(4))
_SEP = tuple(",\n" + "  " * (d + 1) for d in range(4))
_CLOSE = tuple("\n" + "  " * d + "]" for d in range(4))


def _json_array(items: list[str], depth: int) -> str:
    """The encoded items as json.dumps(indent=2) lays out an array nested
    depth levels deep."""
    return _OPEN[depth] + _SEP[depth].join(items) + _CLOSE[depth] if items else "[]"


def _json_ints(vec: Sequence[int], depth: int) -> str:
    """_json_array of a vector of ints, whose JSON text is their str."""
    return _json_array(list(map(str, vec)), depth)


def strip_roots(s: RootGroupoidScheme) -> RootGroupoidScheme:
    """Forget stored root sets, switching the scheme to generated mode."""
    return replace(s, mode=GENERATED, positive_roots=None, status=None, cutoff=None)


# ---------------------------------------------------------------------------
# validation

AXIOM_DESCRIPTIONS = {
    1: "the generator action is involutive and transitive",
    2: "every object stores its simple roots, all roots nonzero and distinct",
    3: "stored roots are sign coherent (all coordinates nonnegative)",
    4: "no simple root has a stored multiple other than itself",
    5: "each reflection maps the root set onto the target root set",
    6: "opposite reflections compose to the identity",
    7: "theta divides the rank-two root count",
}


@dataclass(frozen=True)
class AxiomResult:
    axiom: int
    passed: bool
    checked: int
    witness: str | None = None

    @property
    def description(self) -> str:
        return AXIOM_DESCRIPTIONS[self.axiom]


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, axiom: int) -> AxiomResult:
        return self.results[axiom - 1]


def _gen_label(i: int) -> str:
    return str(i + 1)


def _root_label(r: Vector) -> str:
    return "(" + ",".join(str(x) for x in r) + ")"


def _not_involutive(s: RootGroupoidScheme, gens: Iterable[int]) -> Iterator[str]:
    for i in gens:
        for a in range(s.n_objects):
            if s.action[i][s.action[i][a]] != a:
                yield f"generator {_gen_label(i)} is not involutive at object {s.objects[a]}"


def _axiom1(s: RootGroupoidScheme) -> Iterator[str]:
    yield from _not_involutive(s, range(s.rank))
    reached = set(_walk_objects(s, range(s.rank), 0))
    for a in range(s.n_objects):
        if a not in reached:
            yield f"object {s.objects[a]} is not reachable from {s.objects[0]}"


def _axiom2(s: RootGroupoidScheme) -> Iterator[str]:
    for a, pos in enumerate(s.positive_roots):
        stored = set(pos)
        for j in range(s.rank):
            if s.simple_root(j) not in stored:
                yield f"object {s.objects[a]} lacks simple root {_gen_label(j)}"
        if any(is_zero(r) for r in pos):
            yield f"object {s.objects[a]} stores the zero vector"
        if len(stored) < len(pos):
            twice = next(r for k, r in enumerate(pos) if r in pos[:k])
            yield f"object {s.objects[a]} stores root {_root_label(twice)} twice"


def _axiom3(s: RootGroupoidScheme) -> Iterator[str]:
    for a, pos in enumerate(s.positive_roots):
        for r in pos:
            if not is_nonneg(r):
                yield f"object {s.objects[a]}, root {_root_label(r)} has mixed signs"


def _axiom4(s: RootGroupoidScheme) -> Iterator[str]:
    for a, pos in enumerate(s.positive_roots):
        # (j, r) for each root r whose one nonzero coordinate j is not 1, by j
        # and then in stored order (sorted() is stable)
        supports = (([k for k, x in enumerate(r) if x], r) for r in pos)
        multiples = [(sup[0], r) for sup, r in supports if len(sup) == 1 and r[sup[0]] != 1]
        for j, r in sorted(multiples, key=lambda m: m[0]):
            yield (
                f"object {s.objects[a]}, root {_root_label(r)} is a multiple "
                f"of simple root {_gen_label(j)}"
            )


def _axiom6(s: RootGroupoidScheme) -> Iterator[str]:
    # sigma_{i, i|>a} sigma_{i,a} = id; both are involutions, so this holds
    # exactly when they are equal, that is when their rows i, the
    # coefficient vectors, are
    for i, per_object in enumerate(s.coefficients):
        for a in range(s.n_objects):
            back = s.action[i][a]
            if per_object[a] != per_object[back]:
                yield (
                    f"generator {_gen_label(i)}: reflections at {s.objects[a]} and "
                    f"{s.objects[back]} do not compose to the identity"
                )


def _axiom7(s: RootGroupoidScheme, counts=None) -> Iterator[str]:
    """Witnesses against axiom 7 on these rank-two counts, else on fresh ones."""
    counts = _rank_two_table(s) if counts is None else counts
    for i in range(s.rank):
        for j in range(i + 1, s.rank):
            for a in range(s.n_objects):
                d = counts[i][j][a]
                try:
                    t = theta(s, i, j, a)
                except RuntimeError:
                    # only a non-involutive action, which axiom 1 names, keeps
                    # the orbit from closing
                    yield (
                        f"generators {_gen_label(i)},{_gen_label(j)} at object "
                        f"{s.objects[a]}: theta recursion does not close"
                    )
                    continue
                if d % t != 0:
                    yield (
                        f"generators {_gen_label(i)},{_gen_label(j)} at object "
                        f"{s.objects[a]}: theta {t} does not divide count {d}"
                    )


def validate(s: RootGroupoidScheme) -> ValidationReport:
    """Check the seven root-system axioms against the stored data.

    Root sets must be materialized first (prescribed schemes store them,
    generated schemes acquire them via generate_roots).  Failures are
    reported with the first counterexample in ascending (generator,
    object) order, never raised.  Each axiom's check count is the number
    of cases it covers: one per (generator, object) pair, one per stored
    root for axiom 3, and one per (generator pair, object) for axiom 7.
    Every axiom is checked on every scheme: the constructor has already
    refused data of the wrong shape, so each table reads as the scheme
    claims.

    Axiom 5 is checked on every scheme by the one build of the root
    index, which the root tables are made of; the tables are kept only
    when axioms 2, 3 and 5 pass.  The root_tables gate reads the same
    report and raises its first failure.  When every axiom passes on
    finite roots, the tables are kept as the scheme's root_tables, unless
    it has them already, so later reads do not check the axioms again.
    """
    report, tables = _checked(s)
    if s.status == FINITE and report.passed:
        # tables already built stay, with their pair table and the
        # elements that keep indices in them
        vars(s).setdefault("root_tables", tables)
    return report


def _checked(s: RootGroupoidScheme) -> tuple[ValidationReport, RootTables | None]:
    """validate's report, and the root tables if axioms 2, 3 and 5 pass.

    Axiom 5 is decided on every scheme by building the root index
    (_root_index); the simple indices and the rank-two table are added
    only when axioms 2, 3 and 5 pass, and axiom 7 is checked on that
    table, or on fresh counts when there are no tables.
    """
    _require_roots(s)
    per_pair = s.rank * s.n_objects
    n_roots = sum(len(pos) for pos in s.positive_roots)
    n_rank_two = math.comb(s.rank, 2) * s.n_objects
    witnesses = [next(check(s), None) for check in (_axiom1, _axiom2, _axiom3, _axiom4)]
    roots, index, sigma = _root_index(s)
    witnesses.append(sigma if isinstance(sigma, str) else None)
    tables = None
    # tables need axioms 2, 3 and 5: distinct, nonzero, sign-coherent
    # stored halves that every reflection permutes
    if all(witnesses[k] is None for k in (1, 2, 4)):
        simple = tuple(tuple(idx[s.simple_root(j)] for j in range(s.rank)) for idx in index)
        tables = RootTables(roots, index, sigma, simple, _rank_two_table(s), s.action)
    witnesses.append(next(_axiom6(s), None))
    witnesses.append(next(_axiom7(s, None if tables is None else tables.rank_two), None))
    checked = (per_pair, per_pair, n_roots, per_pair, per_pair, per_pair, n_rank_two)
    results = tuple(
        AxiomResult(axiom, witness is None, count, witness)
        for axiom, (witness, count) in enumerate(zip(witnesses, checked), start=1)
    )
    return ValidationReport(results), tables


# ---------------------------------------------------------------------------
# object walks and restriction to a generator subset

def _walk_objects(s: RootGroupoidScheme, gens: Sequence[int], start: int) -> list[int]:
    """The objects reachable from start under gens, in breadth-first order,
    trying the generators in the order given."""
    walk, seen = [start], {start}
    for a in walk:
        for i in gens:
            b = s.action[i][a]
            if b not in seen:
                seen.add(b)
                walk.append(b)
    return walk


def _relabelled(s: RootGroupoidScheme, gens: Sequence[int], objects: Sequence[int]):
    """The action and coefficient tables on gens and the listed objects, each
    object renamed to its position in the list, which must hold every
    object that gens reach from it."""
    position = {a: k for k, a in enumerate(objects)}
    action = tuple(tuple(position[s.action[i][a]] for a in objects) for i in gens)
    coefficients = tuple(
        tuple(tuple(s.coefficients[i][a][j] for j in gens) for a in objects) for i in gens
    )
    return action, coefficients


def orbit_decomposition(s: RootGroupoidScheme, subset: Iterable[int]) -> list[tuple[int, ...]]:
    """Orbits of the objects under the chosen generators.

    Each orbit is the walk (the objects the generators reach) from the
    smallest object that no earlier orbit holds, in ascending index order,
    so the orbits partition the objects and are ordered by their smallest
    object index.  ValueError unless the chosen generators act
    involutively, naming the first failure as axiom 1 does.
    """
    gens = sorted(set(subset))
    if not gens:
        raise ValueError("generator subset must be nonempty")
    for i in gens:
        check_generator(s, i)
    witness = next(_not_involutive(s, gens), None)
    if witness is not None:
        raise ValueError(witness)
    seen: set[int] = set()
    orbits = []
    for start in range(s.n_objects):
        if start not in seen:
            orbit = _walk_objects(s, gens, start)
            seen.update(orbit)
            orbits.append(tuple(sorted(orbit)))
    return orbits


def restrict(s: RootGroupoidScheme, subset: Iterable[int]) -> list[RootGroupoidScheme]:
    """Restrict to a generator subset, one scheme per object orbit.

    Each orbit's action and coefficient tables are read on the chosen
    generators, with objects renamed by their position in the sorted
    orbit.  The restricted root set of an object keeps exactly the roots
    supported on the chosen generators, re-coordinatized to the subset
    positions.
    """
    gens = sorted(set(subset))
    out = []
    for orbit in orbit_decomposition(s, gens):
        action, coefficients = _relabelled(s, gens, orbit)
        positive_roots = None if s.positive_roots is None else tuple(
            tuple(sorted(
                tuple(r[j] for j in gens)
                for r in s.positive_roots[a]
                if all(r[k] == 0 for k in range(s.rank) if k not in gens)
            ))
            for a in orbit
        )
        out.append(
            RootGroupoidScheme(
                rank=len(gens),
                objects=tuple(s.objects[a] for a in orbit),
                action=action,
                coefficients=coefficients,
                mode=s.mode,
                positive_roots=positive_roots,
                status=s.status,
                cutoff=s.cutoff,
            )
        )
    return out
