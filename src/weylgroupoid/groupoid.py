"""Groupoid elements through the faithful matrix representation.

An element is a triple (source object, unimodular integer matrix, target
object); the representation is faithful, so equality of triples is
equality in the groupoid.  The distinguished zero element absorbs
composition and arises exactly when sources and targets fail to match.

Words follow the convention that the rightmost letter acts first; the
object chain of a word is always derived from its base object, so a word
can never be "mismatched" and its evaluation is never zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import (
    Matrix,
    identity_matrix,
    is_nonpos,
    mat_col,
    mat_inverse,
    mat_mul,
    mat_vec,
    reflect_columns,
)
from .roots import rank_two_count
from .scheme import (
    InconsistentSchemeError,
    RootGroupoidScheme,
    _require_finite_roots,
    act,
    act_word,
    check_generator,
    check_object,
    reflection_matrix,
    word_path,
)


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


def element_of_word(s: RootGroupoidScheme, w: Word) -> GroupoidElement:
    """Evaluate a word: the product of its reflection matrices.

    Built leftmost letter first, each letter's matrix multiplying on the
    right as in _times_generator; the result is never zero.
    """
    path = word_path(s, w.letters, w.base)
    matrix = identity_matrix(s.rank)
    # each letter with the object it acts from, leftmost first
    for i, a in zip(w.letters, path[1:]):
        matrix = reflect_columns(matrix, i, s.coefficients[i][a])
    return GroupoidElement(w.base, path[0], matrix)


def _times_generator(s: RootGroupoidScheme, g: GroupoidElement, j: int) -> GroupoidElement:
    """g after the j-th generator that ends at g's source.

    Equals compose(g, generator_element(s, j, act(s, j, g.source))) for a
    nonzero g and a generator index already checked.
    """
    b = s.action[j][g.source]
    return GroupoidElement(b, g.target, reflect_columns(g.matrix, j, s.coefficients[j][b]))


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
    """
    if g.is_zero:
        return MINUS_INFINITY
    _require_finite_roots(s)
    return sum(
        1 for r in s.positive_roots[g.source] if is_nonpos(mat_vec(g.matrix, r))
    )


def is_descent(s: RootGroupoidScheme, g: GroupoidElement, j: int) -> bool:
    """Whether appending the j-th generator on the right shortens g.

    True exactly when g sends the j-th simple root of its source to a
    negative root of its target.
    """
    if g.is_zero:
        raise ValueError("the zero element has no descents")
    check_generator(s, j)
    _require_finite_roots(s)
    return is_nonpos(mat_col(g.matrix, j))


def _greedy_walk(s: RootGroupoidScheme, g: GroupoidElement, descents: bool):
    """Append the smallest right descent (for descents=False, non-descent) while one is left.

    Stops after as many letters as g's source has positive roots.  Returns
    the letters, the element reached and the next letter (None if none).
    """
    bound = len(s.positive_roots[g.source])
    letters, current = [], g
    while True:
        candidates = (j for j in range(s.rank) if is_nonpos(mat_col(current.matrix, j)) == descents)
        j = next(candidates, None)
        if j is None or len(letters) == bound:
            return letters, current, j
        letters.append(j)
        current = _times_generator(s, current, j)


def canonical_reduced_word(s: RootGroupoidScheme, g: GroupoidElement) -> Word:
    """Reduced word for g obtained by stripping smallest right descents.

    Deterministic; the result has length(g) letters and evaluates back to
    g.  If stripping finds no descent, or has not reached the identity
    after as many letters as the source has positive roots,
    InconsistentSchemeError is raised.
    """
    if g.is_zero:
        raise ValueError("the zero element has no reduced word")
    _require_finite_roots(s)
    letters, current, _ = _greedy_walk(s, g, descents=True)
    if current.matrix != identity_matrix(s.rank):
        raise InconsistentSchemeError(
            f"stripping descents does not reach the identity within "
            f"{len(s.positive_roots[g.source])} letters; scheme data is inconsistent"
        )
    if current.source != current.target:
        raise ValueError("identity matrix between distinct objects; scheme data is inconsistent")
    return Word(g.source, tuple(reversed(letters)))


def longest_element(s: RootGroupoidScheme, a: int) -> GroupoidElement:
    """The unique maximal-length element with the given source.

    Appends the smallest non-descent to the identity at a until none is
    left, then inverts.  The result's length is the number of positive
    roots; if the walk has not ended after that many steps, the stored
    roots violate the axioms and InconsistentSchemeError is raised.
    """
    check_object(s, a)
    _require_finite_roots(s)
    _, current, j = _greedy_walk(s, identity_element(s, a), descents=False)
    if j is None:
        return inverse(current)
    raise InconsistentSchemeError(
        f"longest element from object {s.objects[a]} not reached within "
        f"{len(s.positive_roots[a])} steps, its number of positive roots; "
        "scheme data is inconsistent"
    )


def enumerate_elements(
    s: RootGroupoidScheme, source: int | None = None
) -> list[GroupoidElement]:
    """All elements of the groupoid, by breadth-first closure.

    Starts from the identities and appends generators on the right;
    level k of the search holds the elements of length k, so it ends by
    the level after the largest number of positive roots of any object.
    If that level is not empty, the stored roots violate the axioms and
    InconsistentSchemeError is raised.  Sorted by (length, source,
    target, matrix); optionally filtered by source object.
    """
    _require_finite_roots(s)
    if source is not None:
        check_object(s, source)
    bound = max(len(pos) for pos in s.positive_roots)
    frontier = [identity_element(s, a) for a in range(s.n_objects)]
    depth: dict[GroupoidElement, int] = {g: 0 for g in frontier}
    for level in range(1, bound + 2):
        nxt = []
        for g in frontier:
            for j in range(s.rank):
                h = _times_generator(s, g, j)
                if h not in depth:
                    depth[h] = level
                    nxt.append(h)
        frontier = nxt
    if frontier:
        raise InconsistentSchemeError(
            f"elements of length {bound + 1} found, more than the {bound} positive roots "
            "of any object; scheme data is inconsistent"
        )
    items = sorted(depth.items(), key=lambda kv: (kv[1], kv[0].source, kv[0].target, kv[0].matrix))
    return [g for g, _ in items if source is None or g.source == source]


def c_element(s: RootGroupoidScheme, i: int, j: int, a: int) -> Word:
    """The alternating word one letter short of the rank-two relation.

    Starts with i on the left and has m - 1 letters, where m is the
    rank-two count of (i, j) at a; the rightmost letter is j when m is
    odd and i when m is even.  Composing the i-th generator on the left
    equals composing the shifted word with a single generator on the
    right, which is the commutation rule used by the weak exchange
    factorization.
    """
    m = rank_two_count(s, i, j, a)
    if not isinstance(m, int):
        raise ValueError("rank-two count is infinite; no relation word exists")
    return Word(a, _alternating(i, j, m - 1))


def _alternating(x: int, y: int, n: int) -> tuple[int, ...]:
    """The n letters x, y, x, ... that alternate starting with x."""
    return tuple(y if t % 2 else x for t in range(n))
