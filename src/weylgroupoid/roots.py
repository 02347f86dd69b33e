"""Reflection application, root generation, rank-two data, inversion sets.

Real roots are the images of simple roots under arbitrary reflection
words; generation enumerates them breadth-first up to a height cutoff and
certifies the result "finite" exactly when every reflection maps the
computed sets onto each other, so a cutoff that is too small can never be
mistaken for a complete system.  The sweep and its certificate run on the
positive halves alone; they fall back to vectors of both signs when an
action row is not a permutation or an image leaves the positive cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import Sequence

from .intmat import Vector, basis_vector, height, is_nonneg, neg, reflect_vector
from .scheme import (
    FINITE,
    GENERATED,
    TRUNCATED,
    RootGroupoidScheme,
    RootTables,
    _require_roots,
    check_generator,
    check_object,
    word_path,
)

# Not called here, but kept bound in this module: the benchmark's tracer
# (bench/tracing.py) counts calls through roots.mat_mul, roots.mat_vec and
# roots.reflection_matrix.
from .intmat import mat_mul, mat_vec  # noqa: E402,F401
from .scheme import reflection_matrix  # noqa: E402,F401


def reflect(s: RootGroupoidScheme, i: int, a: int, r: Vector) -> Vector:
    """Apply the reflection at (i, a) to a vector in a-coordinates.

    The result is reflection_matrix(s, i, a) times r, expressed in
    (i |> a)-coordinates; only coordinate i changes.
    """
    check_generator(s, i)
    check_object(s, a)
    if len(r) != s.rank:
        raise ValueError(f"vector has {len(r)} coordinates, expected {s.rank}")
    return reflect_vector(i, s.coefficients[i][a], r)


def generate_roots(s: RootGroupoidScheme, cutoff: int) -> RootGroupoidScheme:
    """Materialize the real-root sets of a generated-mode scheme.

    Starting from the simple roots, reflects every vector found by every
    generator once, keeping each image of height at most ``cutoff``,
    until no vector is left to reflect (_sweep).  The returned scheme
    stores the positive halves and is marked "finite" if no image was
    dropped and every reflection joins two sets of equal size,
    "truncated" otherwise.  A cutoff that is no int (a bool is none) or
    is below 1 raises ValueError before anything is swept.

    When every action row is a permutation, the sweep runs over
    nonnegative vectors only and skips the image -alpha_i of alpha_i.
    The sweep over both signs would find these positive halves together
    with their negatives (each -alpha_j is the image of alpha_j at the
    preimage of its object under generator j, reflections are linear,
    and v and -v have one height), so the result is the same, the
    certificate is counted on the positive halves, and every set is sign
    coherent by construction.  That argument needs every image but
    -alpha_i to stay in the positive cone; when one leaves it, or when a
    row is not a permutation, the sweep runs again over vectors of both
    signs, and that result is finite only if, in addition, each set is
    its positive half together with the negatives.  The constructor has
    checked the shape of the tables, and the axioms are validate's to
    check.
    """
    if s.mode != GENERATED:
        raise ValueError("root generation applies to generated-mode schemes")
    if type(cutoff) is not int:
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")

    permutes = all(len(set(row)) == s.n_objects for row in s.action)
    swept = _sweep(s, cutoff, signed=False) if permutes else None
    signed = swept is None
    found, dropped = swept or _sweep(s, cutoff, signed=True)
    if signed:
        positive = tuple(tuple(sorted(v for v in vs if is_nonneg(v))) for vs in found)
    else:
        positive = tuple(tuple(sorted(vs)) for vs in found)
    # With nothing dropped, every reflection maps found[a] into
    # found[i |> a] (a positive half without alpha_i into one without
    # alpha_i); reflections are injective, so equal sizes make it onto.
    # They are invertible too, so no set holds the zero vector and a
    # positive half is disjoint from its negatives: a signed set is the two
    # together exactly when it holds every negative and has twice the size.
    finite = (
        not dropped
        and all(len(found[a]) == len(found[b]) for row in s.action for a, b in enumerate(row))
        and (not signed or all(
            len(vs) == 2 * len(pos) and all(neg(r) in vs for r in pos)
            for vs, pos in zip(found, positive)
        ))
    )
    status = FINITE if finite else TRUNCATED
    return replace(s, positive_roots=positive, status=status, cutoff=cutoff)


def _sweep(
    s: RootGroupoidScheme, cutoff: int, signed: bool
) -> tuple[list[set[Vector]], bool] | None:
    """generate_roots' worklist: the sets found and whether an image was
    dropped by the cutoff.  Unless signed, it keeps nonnegative vectors
    only: it skips alpha_i -> -alpha_i and returns None at the first other
    image that leaves the positive cone.

    Each vector travels with its height, and an image's height is tested
    before the image is built.  It travels with the generator that made
    it too, when that step can be undone: the generator i made v at
    b = i |> a from a vector u at a, and if i at b leads back to a with
    the same coefficients, reflecting v by i gives u back (coordinate i
    of the image is u's, since entry i of the row is -1).  u is found
    already, within the cutoff and, unsigned, nonnegative, so that step
    would change neither the sets, nor the dropped flag, nor the early
    None, and it is skipped.  Whether a step can be undone is decided at
    the object it starts from, a; decided at b it would be wrong once a
    generator's action is not a permutation, since then i at b may lead
    back to an object other than a.
    """
    rank, action, coefficients = s.rank, s.action, s.coefficients
    # per object a, (i, i |> a, row i of the reflection matrix, the letter
    # to skip from the image: i if the step can be undone, else -1)
    steps = []
    for a in range(s.n_objects):
        per_a = []
        for i in range(rank):
            b, row = action[i][a], coefficients[i][a]
            per_a.append((i, b, row, i if action[i][b] == a and coefficients[i][b] == row else -1))
        steps.append(per_a)
    found = [{basis_vector(rank, j) for j in range(rank)} for _ in steps]
    pending = [(a, r, 1, -1) for a, vs in enumerate(found) for r in vs]
    dropped = False
    while pending:
        a, r, h, last = pending.pop()
        for i, target, row, undo in steps[a]:
            if i == last:
                continue
            # the reflection changes coordinate i only, to x
            x = sum(map(mul, row, r))
            hx = h - abs(r[i]) + abs(x)
            if hx > cutoff:
                dropped = True
                continue
            if x < 0 and not signed:
                if h == r[i] == 1:  # r is alpha_i
                    continue
                return None
            v = r[:i] + (x,) + r[i + 1 :]
            if v not in found[target]:
                found[target].add(v)
                pending.append((target, v, hx, undo))
    return found, dropped


def _require_two_generators(s: RootGroupoidScheme, i: int, j: int, a: int) -> RootTables | None:
    """Check rank-two arguments; the root tables on finite roots, else None."""
    check_generator(s, i)
    check_generator(s, j)
    check_object(s, a)
    if i == j:
        raise ValueError("rank-two data requires two distinct generators")
    _require_roots(s)
    return s.root_tables if s.status == FINITE else None


def _chain_bound(s: RootGroupoidScheme) -> int:
    """Height bound of a rank-two chain walk: the generation cutoff, or four
    times the largest stored height when there is none."""
    if s.cutoff is not None:
        return s.cutoff
    return 4 * max(height(r) for pos in s.positive_roots for r in pos)


def _closing_chain(
    s: RootGroupoidScheme, i: int, j: int, a: int, bound: int
) -> tuple[list[Vector], Vector | None]:
    """Walk the rank-two chain at a until it reaches the j-th simple root.

    Root m is the image, in a-coordinates, of the next simple root of the
    zigzag i, j, i, ... under its first m reflections anchored at a; by the
    rank-two recurrence (Cuntz-Heckenberger) it is c * root m-1 - root m-2,
    from -alpha_j and alpha_i, with c = coefficients[x][x |> obj][y] for
    the letter x just applied.  A finite cone is walked exactly, ending at
    alpha_j.  Returns the distinct roots walked and the root that stopped
    the walk early (None when the chain closed): one of height above bound
    or one already walked.
    """
    last = basis_vector(s.rank, j)
    chain: list[Vector] = []
    prev, root = neg(last), basis_vector(s.rank, i)
    x, y, obj = i, j, a
    while True:
        if height(root) > bound or root in chain:
            return chain, root
        chain.append(root)
        if root == last:
            return chain, None
        obj = s.action[x][obj]
        c = s.coefficients[x][obj][y]
        prev, root = root, tuple(c * u - v for u, v in zip(root, prev))
        x, y = y, x


def rank_two_count(s: RootGroupoidScheme, i: int, j: int, a: int) -> int | float:
    """Number of positive roots of an object supported on two generators.

    For finite schemes this is a lookup in the rank-two table of the root
    tables, which check all seven axioms (InconsistentSchemeError
    otherwise).  For truncated schemes the alternating chain is walked
    instead, and ``math.inf`` is returned when the chain escapes its height
    bound (the generation cutoff, or four times the largest stored height
    when there is none) before closing.
    """
    tables = _require_two_generators(s, i, j, a)
    if tables is not None:
        return tables.rank_two[i][j][a]
    bound = _chain_bound(s)
    chain, stop = _closing_chain(s, i, j, a, bound)
    if stop is None:
        return len(chain)
    if height(stop) > bound:
        return math.inf
    raise ValueError("rank-two chain cycles without closing; scheme data is inconsistent")


def rank_two_positive_chain(s: RootGroupoidScheme, i: int, j: int, a: int) -> tuple[Vector, ...]:
    """The rank-two cone of positive roots at a, in chain order.

    Starts at the i-th simple root and ends at the j-th; the chain length
    equals the rank-two count.  Raises if the rank-two component does not
    close (infinite, or beyond the height bound of rank_two_count); on
    finite roots, as root_tables does (InconsistentSchemeError on
    inconsistent ones).
    """
    _require_two_generators(s, i, j, a)
    chain, stop = _closing_chain(s, i, j, a, _chain_bound(s))
    if stop is not None:
        raise ValueError("rank-two component at this object is infinite or truncated")
    return tuple(chain)


@dataclass(frozen=True)
class InversionSet:
    """Positive roots of the source object inverted by a word.

    Entries are (position, root) pairs ordered by position, where
    position r (1-based from the left) is the letter whose application
    turns the root negative for good.  For a reduced word of length m the
    positions are exactly 1..m.
    """

    entries: tuple[tuple[int, Vector], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def roots(self) -> frozenset[Vector]:
        return frozenset(r for _, r in self.entries)


def inversion_set(s: RootGroupoidScheme, letters: Sequence[int], a: int) -> InversionSet:
    """Positive roots of object a sent to negative roots by the word, by index
    lookups in root_tables (ValueError or InconsistentSchemeError as it raises)."""
    path = word_path(s, letters, a)
    tables = s.root_tables
    # (reflection on indices, 1-based position) of the word's letters, rightmost first
    steps = [(tables.sigma[i][b], k) for k, (i, b) in enumerate(zip(letters, path[1:]), 1)][::-1]
    entries = []
    for k, beta in enumerate(s.positive_roots[a]):
        start = None  # the letter that began the current negative run
        for sigma, position in steps:
            k = sigma[k]
            if k >= 0:
                start = None
            elif start is None:
                start = position
        if start is not None:
            entries.append((start, beta))
    entries.sort()
    return InversionSet(tuple(entries))
