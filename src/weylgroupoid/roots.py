"""Reflection application, root generation, rank-two data, inversion sets.

Real roots are the images of simple roots under arbitrary reflection
words; generation enumerates them breadth-first up to a height cutoff and
certifies the result "finite" exactly when every reflection maps the
computed sets onto each other, so a cutoff that is too small can never be
mistaken for a complete system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .intmat import Vector, basis_vector, height, is_nonneg, neg, reflect_vector
from .scheme import (
    FINITE,
    GENERATED,
    TRUNCATED,
    RootGroupoidScheme,
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
    until no vector is left to reflect.  The returned scheme stores the
    positive halves and is marked "finite" if every reflection maps the
    accumulated sets bijectively onto each other and each set is its
    positive half together with the negatives, "truncated" otherwise.
    """
    if s.mode != GENERATED:
        raise ValueError("root generation applies to generated-mode schemes")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")

    found: list[set[Vector]] = [
        {basis_vector(s.rank, j) for j in range(s.rank)} for _ in range(s.n_objects)
    ]
    pending = [(a, r) for a in range(s.n_objects) for r in found[a]]
    dropped = False
    while pending:
        a, r = pending.pop()
        h = height(r)
        for i in range(s.rank):
            v = reflect_vector(i, s.coefficients[i][a], r)
            target = s.action[i][a]
            # the reflection changes coordinate i only
            if h - abs(r[i]) + abs(v[i]) > cutoff:
                dropped = True
            elif v not in found[target]:
                found[target].add(v)
                pending.append((target, v))

    positive = tuple(tuple(sorted(v for v in vs if is_nonneg(v))) for vs in found)
    # With nothing dropped, every reflection maps found[a] into
    # found[i |> a]; reflections are injective, so equal sizes make it onto.
    onto = all(len(found[a]) == len(found[b]) for row in s.action for a, b in enumerate(row))
    coherent = all(vs == set(pos) | {neg(r) for r in pos} for vs, pos in zip(found, positive))
    status = FINITE if not dropped and onto and coherent else TRUNCATED
    return replace(s, positive_roots=positive, status=status, cutoff=cutoff)


def _require_two_generators(s: RootGroupoidScheme, i: int, j: int, a: int) -> None:
    check_generator(s, i)
    check_generator(s, j)
    check_object(s, a)
    if i == j:
        raise ValueError("rank-two data requires two distinct generators")
    _require_roots(s)
    if s.status == FINITE:
        s.root_tables  # raises unless the roots are consistent


def _max_height(s: RootGroupoidScheme) -> int:
    return max(height(r) for pos in s.positive_roots for r in pos)


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

    For finite schemes this is a lookup in the scheme's rank-two table,
    which is computed once per scheme (RootGroupoidScheme.rank_two_counts),
    read once root_tables has passed (InconsistentSchemeError otherwise).
    For truncated schemes the alternating chain is walked instead, and
    ``math.inf`` is returned when the chain escapes the generation cutoff
    before closing.
    """
    _require_two_generators(s, i, j, a)
    if s.status == FINITE:
        return s.rank_two_counts[i][j][a]
    bound = s.cutoff if s.cutoff is not None else 4 * _max_height(s)
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
    close (infinite, or beyond the generation cutoff); on finite roots, as
    root_tables does (InconsistentSchemeError on inconsistent ones).
    """
    _require_two_generators(s, i, j, a)
    bound = max(_max_height(s), s.cutoff or 0)
    chain, stop = _closing_chain(s, i, j, a, bound)
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
