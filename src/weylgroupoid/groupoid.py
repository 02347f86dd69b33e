"""Groupoid elements through the faithful matrix representation.

An element is a triple (source object, unimodular integer matrix, target
object); the representation is faithful, so equality of triples is
equality in the groupoid.  The distinguished zero element absorbs
composition and arises exactly when sources and targets fail to match.

Words follow the convention that the rightmost letter acts first; the
object chain of a word is always derived from its base object, so a word
can never be "mismatched" and its evaluation is never zero.

On a finite scheme an element's matrix columns, the images of the simple
roots, are roots of its target, so word evaluation, length, the weak-order
walk and enumeration work on their indices in the scheme's root tables
(RootGroupoidScheme.root_tables).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .intmat import Matrix, identity_matrix, mat_inverse, mat_mul, reflect_columns
from .roots import rank_two_count
from .scheme import (
    InconsistentSchemeError,
    RootGroupoidScheme,
    RootTables,
    act,
    act_word,
    check_generator,
    check_object,
    reflection_matrix,
    word_path,
)

# Not called here, but kept bound in this module: the benchmark's tracer
# (bench/tracing.py) counts calls through groupoid.mat_vec.
from .intmat import mat_vec  # noqa: E402,F401


@dataclass(frozen=True)
class GroupoidElement:
    """A morphism (source -> target) as an integer matrix, or zero.

    The zero element is the single instance with all fields None; use the
    module constant ZERO.
    """

    source: int | None
    target: int | None
    matrix: Matrix | None

    @property
    def is_zero(self) -> bool:
        return self.matrix is None


ZERO = GroupoidElement(None, None, None)


class _MinusInfinity:
    """Sentinel for the length of the zero element; MINUS_INFINITY is its one instance."""

    def __repr__(self) -> str:
        return "-infinity"


MINUS_INFINITY = _MinusInfinity()


@dataclass(frozen=True)
class Word:
    """A generator word anchored at a base object (its source).

    Letters are stored left to right; the rightmost letter acts first.
    """

    base: int
    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)


def word_target(s: RootGroupoidScheme, w: Word) -> int:
    return act_word(s, w.letters, w.base)


def identity_element(s: RootGroupoidScheme, a: int) -> GroupoidElement:
    check_object(s, a)
    return GroupoidElement(a, a, identity_matrix(s.rank))


def generator_element(s: RootGroupoidScheme, i: int, a: int) -> GroupoidElement:
    """The generator at (i, a), a morphism from a to i |> a."""
    return GroupoidElement(a, act(s, i, a), reflection_matrix(s, i, a))


def _element(tables: RootTables, source: int, target: int, cols) -> GroupoidElement:
    """The element from source to target whose columns have these root indices."""
    return GroupoidElement(source, target, tuple(zip(*map(tables.roots[target].__getitem__, cols))))


def element_of_word(s: RootGroupoidScheme, w: Word) -> GroupoidElement:
    """Evaluate a word: the product of its reflection matrices.

    With root tables, the simple roots of the base are carried through
    the letters, rightmost first, by index lookups.  Without them
    (roots missing or truncated, or breaking axiom 2, 3 or 5) each
    letter's matrix multiplies on the right, leftmost letter first.
    Either way the result is never zero, and root data raises nothing.
    """
    try:
        path, cols = _word_columns(s, w.letters, w.base)
    except ValueError:  # roots missing, truncated or inconsistent; a bad letter raises below
        path = word_path(s, w.letters, w.base)
        matrix = identity_matrix(s.rank)
        # each letter with the object it acts from, leftmost first
        for i, a in zip(w.letters, path[1:]):
            matrix = reflect_columns(matrix, i, s.coefficients[i][a])
        return GroupoidElement(w.base, path[0], matrix)
    return _element(s.root_tables, w.base, path[0], cols)


def _word_columns(s: RootGroupoidScheme, letters, base: int):
    """The word's path (see word_path), then the root indices of its columns:
    the simple roots of the base carried through the letters, rightmost first."""
    path = word_path(s, letters, base)
    tables = s.root_tables
    cols = tables.simple[base]
    for i, a in zip(reversed(letters), reversed(path[1:])):
        cols = tuple(map(tables.sigma[i][a].__getitem__, cols))
    return path, cols


def compose(g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
    """The product g after h; zero when g's source is not h's target."""
    if g.is_zero or h.is_zero or g.source != h.target:
        return ZERO
    return GroupoidElement(h.source, g.target, mat_mul(g.matrix, h.matrix))


def inverse(g: GroupoidElement) -> GroupoidElement:
    if g.is_zero:
        raise ValueError("the zero element has no inverse")
    return GroupoidElement(g.target, g.source, mat_inverse(g.matrix))


def length(s: RootGroupoidScheme, g: GroupoidElement):
    """Number of positive source roots sent negative; MINUS_INFINITY for zero.

    Equals the minimal number of generators in any word evaluating to g.
    Roots are sign coherent, so g sends beta to a negative root exactly
    when h.beta < 0, where h holds the heights of g's columns.  Raises as
    root_tables does on roots that are missing, truncated or inconsistent.
    """
    if g.is_zero:
        return MINUS_INFINITY
    s.root_tables  # raises unless the roots are finite and consistent
    h = [sum(col) for col in zip(*g.matrix)]
    return sum(1 for r in s.positive_roots[g.source] if sum(map(operator.mul, h, r)) < 0)


def is_descent(s: RootGroupoidScheme, g: GroupoidElement, j: int) -> bool:
    """Whether appending the j-th generator on the right shortens g.

    True exactly when g sends the j-th simple root of its source to a
    negative root of its target.  Raises as root_tables does (ValueError,
    InconsistentSchemeError) unless the roots are finite and consistent.
    """
    if g.is_zero:
        raise ValueError("the zero element has no descents")
    check_generator(s, j)
    s.root_tables  # raises unless the roots are finite and consistent
    return all(row[j] <= 0 for row in g.matrix)


def _append_generator(
    s: RootGroupoidScheme, tables: RootTables, source: int, target: int, cols, j: int
):
    """g after the j-th generator that ends at g's source, on root indices.

    g runs from source to target and its columns have the indices cols.
    The product's column j is the negative of g's, and each column k
    where the reflection has a coefficient c gains c times g's column j.
    Returns the product's source and column indices; KeyError if a column
    leaves the target's roots, which only a non-element g allows.
    """
    b = s.action[j][source]
    roots, index = tables.roots[target], tables.index[target]
    col_j = roots[cols[j]]
    out = list(cols)
    for k, c in enumerate(s.coefficients[j][b]):
        if c and k != j:
            step = col_j if c == 1 else tuple(map(operator.mul, col_j, itertools.repeat(c)))
            out[k] = index[tuple(map(operator.add, roots[cols[k]], step))]
    out[j] = ~cols[j]
    return b, out


def _greedy_walk(s: RootGroupoidScheme, source: int, target: int, cols, descents: bool):
    """Append the smallest right descent (for descents=False, non-descent) while one is left.

    Walks up from the element from source to target whose columns have
    the root indices cols, so j is a descent exactly when cols[j] is
    negative.  Stops after as many letters as the source has positive
    roots.  Returns the letters, the source and columns reached, and the
    next letter (None if none).
    """
    # A loop guard only: under axioms 2, 3 and 5, which the tables need,
    # each step changes the length by at least one, so the walk stops by
    # itself within this many letters.
    bound = len(s.positive_roots[source])
    tables = s.root_tables
    letters = []
    while True:
        j = next((j for j, k in enumerate(cols) if (k < 0) == descents), None)
        if j is None or len(letters) == bound:
            return letters, source, list(cols), j
        letters.append(j)
        source, cols = _append_generator(s, tables, source, target, cols, j)


def canonical_reduced_word(s: RootGroupoidScheme, g: GroupoidElement) -> Word:
    """Reduced word for g obtained by stripping smallest right descents.

    Deterministic; the result has length(g) letters and evaluates back to
    g.  If stripping finds no descent, or has not reached the identity
    after as many letters as the source has positive roots,
    InconsistentSchemeError is raised.
    """
    if g.is_zero:
        raise ValueError("the zero element has no reduced word")
    tables = s.root_tables
    try:
        cols = [tables.index[g.target][col] for col in zip(*g.matrix)]
        return Word(g.source, _stripped_letters(s, g.source, g.target, cols))
    except KeyError:
        raise ValueError(
            "matrix columns are not roots of its target; not a groupoid element"
        ) from None


def _stripped_letters(s: RootGroupoidScheme, source: int, target: int, cols) -> tuple[int, ...]:
    """The letters of canonical_reduced_word, and its errors, for the element
    from source to target whose columns have the root indices cols."""
    letters, reached, cols, _ = _greedy_walk(s, source, target, cols, descents=True)
    # The walk has stopped without a descent.  A product of reflections
    # that keeps every positive root positive but is not the identity
    # would end here; no root data with tables is known to give one.
    if cols != list(s.root_tables.simple[target]):
        raise InconsistentSchemeError(
            f"stripping descents does not reach the identity within "
            f"{len(s.positive_roots[source])} letters; scheme data is inconsistent"
        )
    if reached != target:
        raise ValueError("identity matrix between distinct objects; scheme data is inconsistent")
    return tuple(reversed(letters))


def longest_element(s: RootGroupoidScheme, a: int) -> GroupoidElement:
    """The unique maximal-length element with the given source.

    Appends the smallest non-descent to the identity at a until none is
    left, then inverts by evaluating the letters in reverse order.  The
    result's length is the number of positive roots; if the walk has not
    ended after that many steps, the stored roots violate the axioms and
    InconsistentSchemeError is raised.
    """
    check_object(s, a)
    letters, _, _, j = _greedy_walk(s, a, a, s.root_tables.simple[a], descents=False)
    if j is None:
        return element_of_word(s, Word(a, tuple(reversed(letters))))
    # Unreachable once the tables exist (see _greedy_walk); kept as a guard.
    raise InconsistentSchemeError(
        f"longest element from object {s.objects[a]} not reached within "
        f"{len(s.positive_roots[a])} steps, its number of positive roots; "
        "scheme data is inconsistent"
    )


def enumerate_elements(
    s: RootGroupoidScheme, source: int | None = None
) -> list[GroupoidElement]:
    """All elements of the groupoid, by breadth-first closure.

    Starts from the identities (only the one at source, if given) and
    composes generators on the left, by index lookups on the columns;
    level k of the search holds the elements of length k, so it ends by
    the level after the largest number of positive roots of any object.
    If that level is not empty, the stored roots violate the axioms and
    InconsistentSchemeError is raised.  Sorted by (length, source,
    target, matrix); optionally filtered by source object.
    """
    tables = s.root_tables
    if source is not None:
        check_object(s, source)
    bound = max(len(pos) for pos in s.positive_roots)
    sources = range(s.n_objects) if source is None else (source,)
    generators = list(zip(s.action, tables.sigma))
    # (source, target, column indices) per element
    frontier = [(a, a, tables.simple[a]) for a in sources]
    depth = dict.fromkeys(frontier, 0)
    for level in range(1, bound + 2):
        nxt = []
        for a, b, cols in frontier:
            for action, sigma in generators:
                key = (a, action[b], tuple(map(sigma[b].__getitem__, cols)))
                if key not in depth:
                    depth[key] = level
                    nxt.append(key)
        frontier = nxt
    if frontier:
        raise InconsistentSchemeError(
            f"elements of length {bound + 1} found, more than the {bound} positive roots "
            "of any object; scheme data is inconsistent"
        )
    # (length, source, target, matrix) tuples are distinct, so they sort alone
    items = sorted(
        (n, a, b, tuple(zip(*map(tables.roots[b].__getitem__, cols))))
        for (a, b, cols), n in depth.items()
    )
    return [GroupoidElement(a, b, matrix) for _, a, b, matrix in items]


def c_element(s: RootGroupoidScheme, i: int, j: int, a: int) -> Word:
    """The alternating word one letter short of the rank-two relation.

    Starts with i on the left and has m - 1 letters, where m is the
    rank-two count of (i, j) at a; the rightmost letter is j when m is
    odd and i when m is even.  Composing the i-th generator on the left
    equals composing the shifted word with a single generator on the
    right, which is the commutation rule used by the weak exchange
    factorization.  Raises as rank_two_count does (InconsistentSchemeError too).
    """
    m = rank_two_count(s, i, j, a)
    if not isinstance(m, int):
        raise ValueError("rank-two count is infinite; no relation word exists")
    return Word(a, _alternating(i, j, m - 1))


def _alternating(x: int, y: int, n: int) -> tuple[int, ...]:
    """The n letters x, y, x, ... that alternate starting with x."""
    return tuple(y if t % 2 else x for t in range(n))
