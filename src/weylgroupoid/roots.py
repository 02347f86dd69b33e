"""Reflection application, root generation, rank-two data, inversion sets.

Real roots are the images of simple roots under arbitrary reflection
words; generation enumerates them breadth-first up to a height cutoff and
certifies the result "finite" exactly when every reflection maps the
computed sets onto each other, so a cutoff that is too small can never be
mistaken for a complete system.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .intmat import (
    Vector,
    basis_vector,
    height,
    identity_matrix,
    is_nonneg,
    is_nonpos,
    mat_col,
    neg,
    reflect_columns,
    reflect_vector,
)
from .scheme import (
    FINITE,
    GENERATED,
    TRUNCATED,
    RootGroupoidScheme,
    _require_finite_roots,
    _require_roots,
    check_generator,
    check_object,
)

# Not called here since reflections are applied by the one-row kernels,
# but kept bound in this module: the benchmark's tracer (bench/tracing.py)
# counts calls through roots.mat_mul, roots.mat_vec and
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


def _chain_walk(s: RootGroupoidScheme, i: int, j: int, a: int) -> Iterator[Vector]:
    """Yield the alternating rank-two chain roots at a, in a-coordinates.

    The m-th root is the image of the next simple root of the zigzag
    i, j, i, ... under the first m reflections of the zigzag anchored at
    a.  In a finite rank-two cone the walk produces exactly the cone and
    reaches the j-th simple root last; the caller decides when to stop.
    """
    transform = identity_matrix(s.rank)
    obj = a
    for letter in itertools.cycle((i, j)):
        yield mat_col(transform, letter)
        obj = s.action[letter][obj]
        transform = reflect_columns(transform, letter, s.coefficients[letter][obj])


def _require_two_generators(s: RootGroupoidScheme, i: int, j: int, a: int) -> None:
    check_generator(s, i)
    check_generator(s, j)
    check_object(s, a)
    if i == j:
        raise ValueError("rank-two data requires two distinct generators")
    _require_roots(s)


def _max_height(s: RootGroupoidScheme) -> int:
    return max(height(r) for pos in s.positive_roots for r in pos)


def _closing_chain(
    s: RootGroupoidScheme, i: int, j: int, a: int, bound: int
) -> tuple[list[Vector], Vector | None]:
    """Walk the rank-two chain at a until it reaches the j-th simple root.

    Returns the distinct roots walked and the root that stopped the walk
    early, None when the chain closed.  The walk stops early at a root of
    height above bound or at a root it has already walked.
    """
    last = basis_vector(s.rank, j)
    chain: list[Vector] = []
    seen: set[Vector] = set()
    for root in _chain_walk(s, i, j, a):
        if height(root) > bound or root in seen:
            return chain, root
        seen.add(root)
        chain.append(root)
        if root == last:
            return chain, None


def rank_two_count(s: RootGroupoidScheme, i: int, j: int, a: int) -> int | float:
    """Number of positive roots of an object supported on two generators.

    For finite schemes this is a lookup in the scheme's rank-two table,
    which is computed once per scheme (RootGroupoidScheme.rank_two_counts).
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
    close (infinite, or beyond the generation cutoff).
    """
    _require_two_generators(s, i, j, a)
    bound = _max_height(s)
    if s.cutoff is not None:
        bound = max(bound, s.cutoff)
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
    """Positive roots of object a sent to negative roots by the word."""
    check_object(s, a)
    _require_finite_roots(s)
    letters = tuple(letters)
    for i in letters:
        check_generator(s, i)
    m = len(letters)
    steps = []  # (letter, coefficients) of the word's reflections, rightmost first
    obj = a
    for letter in reversed(letters):
        steps.append((letter, s.coefficients[letter][obj]))
        obj = s.action[letter][obj]
    entries = []
    for beta in s.positive_roots[a]:
        v = beta
        negative_after = []  # after applying the last t letters, t = 1..m
        for letter, coeffs in steps:
            v = reflect_vector(letter, coeffs, v)
            negative_after.append(is_nonpos(v))
        if m > 0 and negative_after[-1]:
            t_star = m  # start of the final negative run, as an application step
            while t_star > 1 and negative_after[t_star - 2]:
                t_star -= 1
            entries.append((m - t_star + 1, beta))
    entries.sort()
    return InversionSet(tuple(entries))
