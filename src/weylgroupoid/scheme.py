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

Generators and objects are 0-based integers throughout the API.  Witness
strings in validation reports use 1-based generator labels and object
names, matching the command-line convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .intmat import (
    Matrix,
    Vector,
    basis_vector,
    identity_matrix,
    is_nonneg,
    is_zero,
    mat_mul,
    neg,
    reflect_vector,
)

# Not called here, but kept bound in this module: the benchmark's tracer
# (bench/tracing.py) counts calls through scheme.mat_vec.
from .intmat import mat_vec  # noqa: E402,F401

PRESCRIBED = "prescribed"
GENERATED = "generated"

FINITE = "finite"
TRUNCATED = "truncated"


class SchemeFormatError(ValueError):
    """A scheme file is malformed; the message names the offending field."""


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
                      (i, a); the entry at j == i is unused and set to -1
      mode            "prescribed" (root sets given) or "generated"
                      (root sets computed on demand)
      positive_roots  per object, the sorted tuple of positive roots, or
                      None when not yet materialized
      status          "finite" when the stored root sets are known to be
                      complete, "truncated" when generation hit its height
                      cutoff, None when no roots are stored
      cutoff          height bound used at generation time, if any
    """

    rank: int
    objects: tuple[str, ...]
    action: tuple[tuple[int, ...], ...]
    coefficients: tuple[tuple[tuple[int, ...], ...], ...]
    mode: str
    positive_roots: tuple[tuple[Vector, ...], ...] | None = None
    status: str | None = None
    cutoff: int | None = None

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
    def rank_two_counts(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Rank-two table: counts[i][j][a] for generators i, j and object a.

        The entry is the number of stored positive roots of object a whose
        coordinates outside {i, j} are all zero (the zero vector too), so the
        table is symmetric in i and j and counts[i][i][a] is the number of
        stored roots supported on i alone.  Built in one pass over the
        stored roots on first use and kept on the instance, outside the
        dataclass fields: equality, hashing and replace() ignore it, and a
        replaced scheme builds its own.
        """
        _require_roots(self)
        counts = [[[0] * self.n_objects for _ in range(self.rank)] for _ in range(self.rank)]
        for a, pos in enumerate(self.positive_roots):
            for r in pos:
                support = {k for k, x in enumerate(r) if x != 0}
                if len(support) > 2:
                    continue
                # support <= {i, j} exactly when support - {i} is empty
                # (any j) or is {j}
                for i in range(self.rank):
                    rest = support - {i}
                    if not rest:
                        for j in range(self.rank):
                            counts[i][j][a] += 1
                    elif len(rest) == 1:
                        (j,) = rest
                        counts[i][j][a] += 1
        return tuple(tuple(tuple(row) for row in per_i) for per_i in counts)

    @cached_property
    def root_tables(self) -> RootTables:
        """The scheme's root-index tables, built on first use.

        The one gate that every read of finite root data passes first.
        Needs finite roots (ValueError otherwise) that pass axioms 2, 3 and
        5, on which the index representation relies; otherwise raises
        InconsistentSchemeError with the first failing axiom's witness.
        Kept on the instance like rank_two_counts, so equality, hashing and
        replace() ignore it.
        """
        _require_roots(self)
        if self.status != FINITE:
            raise ValueError("operation requires finite root data, scheme is truncated")
        for axiom, check in ((2, _axiom2), (3, _axiom3)):
            witness = next(check(self), None)
            if witness is not None:
                raise InconsistentSchemeError(f"axiom {axiom} FAIL ({witness})")
        tables = _build_root_tables(self)
        if tables is None:
            raise InconsistentSchemeError(f"axiom 5 FAIL ({next(_axiom5(self))})")
        return tables


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
    """

    roots: tuple[tuple[Vector, ...], ...]
    index: tuple[dict[Vector, int], ...]
    sigma: tuple[tuple[tuple[int, ...], ...], ...]
    simple: tuple[tuple[int, ...], ...]


def _build_root_tables(s: RootGroupoidScheme) -> RootTables | None:
    """Root tables of finite roots that pass axioms 2 and 3; None unless
    they pass axiom 5 too.

    Under axioms 2 and 3 a stored half and its negatives are disjoint.  A
    reflection is injective, so it maps the roots of a onto those of
    i |> a exactly when every image is found there and both sets have
    the same size, which is axiom 5.
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
            target = index[s.action[i][a]]
            images = [target.get(reflect_vector(i, s.coefficients[i][a], r)) for r in pos]
            if None in images or len(target) != len(index[a]):
                return None
            # reflections are linear: the image of -r is the negative of r's
            row.append(tuple(images + [~k for k in reversed(images)]))
        sigma.append(tuple(row))
    simple = tuple(
        tuple(idx[s.simple_root(j)] for j in range(s.rank)) for idx in index
    )
    return RootTables(roots, index, tuple(sigma), simple)


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

    Row i is the coefficient vector with -1 in position i; all other rows
    are standard basis rows.  Such matrices are involutions.
    """
    n = len(coeffs)
    row_i = tuple(coeffs[:i]) + (-1,) + tuple(coeffs[i + 1 :])
    return tuple(row_i if r == i else basis_vector(n, r) for r in range(n))


def reflection_matrix(s: RootGroupoidScheme, i: int, a: int) -> Matrix:
    """Matrix of the reflection at (i, a), from a- to (i |> a)-coordinates.

    The reflection at (i, i |> a) with the same coefficients inverts it.
    """
    check_generator(s, i)
    check_object(s, a)
    return reflection_from_coefficients(i, s.coefficients[i][a])


def full_root_set(s: RootGroupoidScheme, a: int) -> frozenset[Vector]:
    """Both halves of the stored root set of an object."""
    _require_roots(s)
    pos = s.positive_roots[a]
    return frozenset(pos) | frozenset(neg(r) for r in pos)


# ---------------------------------------------------------------------------
# file format

_MODES = (PRESCRIBED, GENERATED)


def _as_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemeFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def load_scheme(text: str) -> RootGroupoidScheme:
    """Parse a scheme file (UTF-8 JSON).

    Structural checks only: table dimensions, index ranges, involutivity
    of the action, nonnegative coefficients, well-formed root vectors.
    The root-system axioms are checked separately by validate().
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemeFormatError(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise SchemeFormatError("top level: expected a JSON object")

    for field in ("rank", "objects", "action", "coefficients", "mode"):
        if field not in data:
            raise SchemeFormatError(f"missing field {field!r}")

    rank = _as_int(data["rank"], "rank")
    if rank < 1:
        raise SchemeFormatError("rank: must be at least 1")

    names = data["objects"]
    if not isinstance(names, list) or not names or not all(isinstance(x, str) for x in names):
        raise SchemeFormatError("objects: expected a nonempty array of strings")
    if len(set(names)) != len(names):
        dup = next(x for i, x in enumerate(names) if x in names[:i])
        raise SchemeFormatError(f"objects: duplicate object name {dup!r}")
    nobj = len(names)

    action_raw = data["action"]
    if not isinstance(action_raw, list) or len(action_raw) != rank:
        raise SchemeFormatError(f"action: expected {rank} rows")
    action = []
    for i, row in enumerate(action_raw):
        if not isinstance(row, list) or len(row) != nobj:
            raise SchemeFormatError(f"action[{i}]: expected {nobj} entries")
        for a, t in enumerate(row):
            t = _as_int(t, f"action[{i}][{a}]")
            if not 0 <= t < nobj:
                raise SchemeFormatError(f"action[{i}][{a}]: object index {t} out of range")
        action.append(tuple(row))
    for i in range(rank):
        for a in range(nobj):
            if action[i][action[i][a]] != a:
                raise SchemeFormatError(
                    f"action[{i}][{a}]: generator action is not involutive at object {names[a]!r}"
                )

    coeff_raw = data["coefficients"]
    if not isinstance(coeff_raw, list) or len(coeff_raw) != rank:
        raise SchemeFormatError(f"coefficients: expected {rank} rows")
    coefficients = []
    for i, per_obj in enumerate(coeff_raw):
        if not isinstance(per_obj, list) or len(per_obj) != nobj:
            raise SchemeFormatError(f"coefficients[{i}]: expected {nobj} entries")
        rows = []
        for a, vec in enumerate(per_obj):
            if not isinstance(vec, list) or len(vec) != rank:
                raise SchemeFormatError(f"coefficients[{i}][{a}]: expected {rank} integers")
            vec = tuple(_as_int(x, f"coefficients[{i}][{a}][{j}]") for j, x in enumerate(vec))
            if vec[i] != -1:
                raise SchemeFormatError(
                    f"coefficients[{i}][{a}][{i}]: unused entry must be -1 by convention"
                )
            for j, c in enumerate(vec):
                if j != i and c < 0:
                    raise SchemeFormatError(
                        f"coefficients[{i}][{a}][{j}]: reflection coefficients must be nonnegative"
                    )
            rows.append(vec)
        coefficients.append(tuple(rows))

    mode = data["mode"]
    if mode not in _MODES:
        raise SchemeFormatError(f"mode: expected one of {_MODES}, got {mode!r}")

    positive_roots = None
    status = None
    if mode == PRESCRIBED:
        if "roots" not in data:
            raise SchemeFormatError("roots: required in prescribed mode")
        roots_raw = data["roots"]
        if not isinstance(roots_raw, list) or len(roots_raw) != nobj:
            raise SchemeFormatError(f"roots: expected {nobj} per-object arrays")
        per_object = []
        for a, vecs in enumerate(roots_raw):
            if not isinstance(vecs, list):
                raise SchemeFormatError(f"roots[{a}]: expected an array of vectors")
            seen = set()
            rows = []
            for k, v in enumerate(vecs):
                if not isinstance(v, list) or len(v) != rank:
                    raise SchemeFormatError(f"roots[{a}][{k}]: expected {rank} integers")
                v = tuple(_as_int(x, f"roots[{a}][{k}]") for x in v)
                if is_zero(v):
                    raise SchemeFormatError(f"roots[{a}][{k}]: roots must be nonzero")
                if v in seen:
                    raise SchemeFormatError(f"roots[{a}][{k}]: duplicate root {list(v)}")
                seen.add(v)
                rows.append(v)
            for j in range(rank):
                if basis_vector(rank, j) not in seen:
                    raise SchemeFormatError(
                        f"roots[{a}]: missing simple root {j + 1} of object {names[a]!r}"
                    )
            per_object.append(tuple(sorted(rows)))
        positive_roots = tuple(per_object)
        status = FINITE
    elif "roots" in data and data["roots"] is not None:
        raise SchemeFormatError("roots: must be absent in generated mode")

    return RootGroupoidScheme(
        rank=rank,
        objects=tuple(names),
        action=tuple(action),
        coefficients=tuple(coefficients),
        mode=mode,
        positive_roots=positive_roots,
        status=status,
    )


def save_scheme(s: RootGroupoidScheme) -> str:
    """Serialize to the scheme file format with normalized ordering."""
    doc: dict = {
        "rank": s.rank,
        "objects": list(s.objects),
        "action": [list(row) for row in s.action],
        "coefficients": [[list(vec) for vec in per_obj] for per_obj in s.coefficients],
        "mode": s.mode,
    }
    if s.mode == PRESCRIBED:
        if s.positive_roots is None:
            raise ValueError("prescribed scheme has no root sets to save")
        doc["roots"] = [[list(r) for r in sorted(pos)] for pos in s.positive_roots]
    return json.dumps(doc, indent=2) + "\n"


def strip_roots(s: RootGroupoidScheme) -> RootGroupoidScheme:
    """Forget stored root sets, switching the scheme to generated mode."""
    return replace(s, mode=GENERATED, positive_roots=None, status=None, cutoff=None)


# ---------------------------------------------------------------------------
# validation

AXIOM_DESCRIPTIONS = {
    1: "the generator action is involutive and transitive",
    2: "every object stores its simple roots, all roots nonzero",
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


def _axiom1(s: RootGroupoidScheme) -> Iterator[str]:
    for i in range(s.rank):
        for a in range(s.n_objects):
            if s.action[i][s.action[i][a]] != a:
                yield f"generator {_gen_label(i)} is not involutive at object {s.objects[a]}"
    # with an involutive action the orbits partition the objects, so the
    # second orbit starts at the smallest object not reachable from the first
    orbits = orbit_decomposition(s, range(s.rank))
    if len(orbits) > 1:
        yield f"object {s.objects[orbits[1][0]]} is not reachable from {s.objects[0]}"


def _axiom2(s: RootGroupoidScheme) -> Iterator[str]:
    for a, pos in enumerate(s.positive_roots):
        stored = set(pos)
        for j in range(s.rank):
            if s.simple_root(j) not in stored:
                yield f"object {s.objects[a]} lacks simple root {_gen_label(j)}"
        if any(is_zero(r) for r in pos):
            yield f"object {s.objects[a]} stores the zero vector"


def _axiom3(s: RootGroupoidScheme) -> Iterator[str]:
    for a, pos in enumerate(s.positive_roots):
        for r in pos:
            if not is_nonneg(r):
                yield f"object {s.objects[a]}, root {_root_label(r)} has mixed signs"


def _axiom4(s: RootGroupoidScheme) -> Iterator[str]:
    for a, pos in enumerate(s.positive_roots):
        for j in range(s.rank):
            for r in pos:
                if r[j] not in (0, 1) and all(r[k] == 0 for k in range(s.rank) if k != j):
                    yield (
                        f"object {s.objects[a]}, root {_root_label(r)} is a multiple "
                        f"of simple root {_gen_label(j)}"
                    )


def _axiom5(s: RootGroupoidScheme) -> Iterator[str]:
    full = [full_root_set(s, a) for a in range(s.n_objects)]
    for i in range(s.rank):
        for a in range(s.n_objects):
            # reflections are linear, so the negative half maps to the
            # negatives of the positive half's image
            half = {reflect_vector(i, s.coefficients[i][a], r) for r in s.positive_roots[a]}
            image = half | {neg(r) for r in half}
            target = full[s.action[i][a]]
            if image != target:
                diff = sorted(target - image) + sorted(image - target)
                yield (
                    f"generator {_gen_label(i)} at object {s.objects[a]}: image does not "
                    f"equal the root set of {s.objects[s.action[i][a]]}, first mismatch "
                    f"{_root_label(diff[0])}"
                )


def _axiom6(s: RootGroupoidScheme) -> Iterator[str]:
    # sigma_{i, i|>a} sigma_{i,a} = id
    for i in range(s.rank):
        for a in range(s.n_objects):
            back = s.action[i][a]
            prod = mat_mul(reflection_matrix(s, i, back), reflection_matrix(s, i, a))
            if prod != identity_matrix(s.rank):
                yield (
                    f"generator {_gen_label(i)}: reflections at {s.objects[a]} and "
                    f"{s.objects[back]} do not compose to the identity"
                )


def _axiom7(s: RootGroupoidScheme) -> Iterator[str]:
    for i in range(s.rank):
        for j in range(i + 1, s.rank):
            for a in range(s.n_objects):
                d = s.rank_two_counts[i][j][a]
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


_AXIOMS = (_axiom1, _axiom2, _axiom3, _axiom4, _axiom5, _axiom6, _axiom7)


def validate(s: RootGroupoidScheme) -> ValidationReport:
    """Check the seven root-system axioms against the stored data.

    Root sets must be materialized first (prescribed schemes store them,
    generated schemes acquire them via generate_roots).  Failures are
    reported with the first counterexample in ascending (generator,
    object) order, never raised.  Each axiom's check count is the number
    of cases it covers: one per (generator, object) pair, one per stored
    root for axiom 3, and one per (generator pair, object) for axiom 7.
    """
    _require_roots(s)
    per_pair = s.rank * s.n_objects
    n_roots = sum(len(pos) for pos in s.positive_roots)
    n_rank_two = math.comb(s.rank, 2) * s.n_objects
    checked = (per_pair, per_pair, n_roots, per_pair, per_pair, per_pair, n_rank_two)
    results = []
    for axiom, (check, count) in enumerate(zip(_AXIOMS, checked), start=1):
        witness = next(check(s), None)
        results.append(AxiomResult(axiom, witness is None, count, witness))
    return ValidationReport(tuple(results))


# ---------------------------------------------------------------------------
# restriction to a generator subset

def orbit_decomposition(s: RootGroupoidScheme, subset: Iterable[int]) -> list[tuple[int, ...]]:
    """Orbits of the objects under the chosen generators.

    Orbits are ordered by their smallest object index; within an orbit,
    objects are listed in ascending index order.
    """
    gens = sorted(set(subset))
    if not gens:
        raise ValueError("generator subset must be nonempty")
    for i in gens:
        check_generator(s, i)
    seen: set[int] = set()
    orbits = []
    for start in range(s.n_objects):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            a = frontier.pop(0)
            for i in gens:
                b = s.action[i][a]
                if b not in orbit:
                    orbit.add(b)
                    frontier.append(b)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def restrict(s: RootGroupoidScheme, subset: Iterable[int]) -> list[RootGroupoidScheme]:
    """Restrict to a generator subset, one scheme per object orbit.

    The restricted root set of an object keeps exactly the roots supported
    on the chosen generators, re-coordinatized to the subset positions.
    """
    gens = sorted(set(subset))
    orbits = orbit_decomposition(s, gens)
    out = []
    for orbit in orbits:
        obj_index = {a: k for k, a in enumerate(orbit)}
        action = tuple(
            tuple(obj_index[s.action[i][a]] for a in orbit) for i in gens
        )
        coefficients = tuple(
            tuple(
                tuple(
                    -1 if gens[jj] == i else s.coefficients[i][a][gens[jj]]
                    for jj in range(len(gens))
                )
                for a in orbit
            )
            for i in gens
        )
        positive_roots = None
        status = None
        if s.positive_roots is not None:
            per_object = []
            for a in orbit:
                kept = [
                    tuple(r[j] for j in gens)
                    for r in s.positive_roots[a]
                    if all(r[k] == 0 for k in range(s.rank) if k not in gens)
                ]
                per_object.append(tuple(sorted(kept)))
            positive_roots = tuple(per_object)
            status = s.status
        out.append(
            RootGroupoidScheme(
                rank=len(gens),
                objects=tuple(s.objects[a] for a in orbit),
                action=action,
                coefficients=coefficients,
                mode=s.mode if positive_roots is not None else GENERATED,
                positive_roots=positive_roots,
                status=status,
                cutoff=s.cutoff,
            )
        )
    return out
