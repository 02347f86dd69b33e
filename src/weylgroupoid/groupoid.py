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
(RootGroupoidScheme.root_tables).  A word is evaluated two letters per
step: the tables' pair table (RootTables.pairs) holds, for every letter
pair (i, j) and object a, the permutation of root indices that s_j at a
followed by s_i makes, so one lookup per column carries two letters;
an odd word's rightmost letter takes one reflection alone.  The pair
table has rank^2 x objects maps of 2|Phi+(a)| entries (15,360 for E8)
and is built on the first word of two or more letters, so a scheme that
evaluates no word never builds it.  The elements that element_of_word
and longest_element return keep those indices; any other element has
them looked up once, on its first query.  Length and the canonical
reduced word are both read off one walk that strips right descents, made
once per element and kept with its indices.  An element keeps at most one word that
evaluates to it: the word it was evaluated from, or its canonical word
once walked; the longest element keeps the word of the walk that built
it (longest_element).  A reflection at i |> a undoes the one at a, so an
element that keeps a word is inverted by evaluating it reversed on the
same tables, and a product g after h carries h's column indices through
g's word (_carry).  Only an element that keeps no word, or a right
factor on other tables, falls back to integer matrix algebra
(mat_inverse, mat_mul).  As one generator changes the length by exactly
one, enumeration goes level by level, an element's level being its
length, and holds at most two.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .intmat import Matrix, identity_matrix, mat_inverse, mat_mul, mat_vec, transpose
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

    def __getstate__(self) -> dict:
        # copies and pickles hold the fields, not the root indices that
        # _keep adds
        return {k: v for k, v in vars(self).items() if k != "_indices"}


ZERO = GroupoidElement(None, None, None)


# the length of the zero element, below every length
MINUS_INFINITY = -math.inf


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


def _keep(
    g: GroupoidElement, tables: RootTables, cols: tuple[int, ...], stripped=None, word=None
) -> GroupoidElement:
    """g, holding cols, the root indices of its columns in tables.

    They live on the instance, outside the fields, so equality, hashing,
    repr and replace() ignore them; next to them sit the memo of the
    descent walk (_stripped), None until it is walked unless its letters
    are given as stripped, and g's one kept word: the letters of a word
    that evaluates to g from its source on these tables, or None.  The
    walk writes its canonical word there too.
    """
    vars(g)["_indices"] = [tables, cols, stripped, word]
    return g


def element_of_word(s: RootGroupoidScheme, w: Word) -> GroupoidElement:
    """Evaluate a word: the product of its reflection matrices.

    Letters act rightmost first.  With root tables the simple roots of the
    base, the columns, are carried through by index lookups, two letters
    per lookup (_word_columns), and the result keeps their indices and
    its letters (_keep); without them (roots missing or truncated, or breaking one of
    the seven axioms) each reflection replaces row i of the matrix M by
    c.M, c its coefficients.  Either
    way the result is never zero, and root data raises nothing.
    """
    try:
        path, cols = _word_columns(s, w.letters, w.base)
    except ValueError:  # roots missing, truncated or inconsistent; a bad letter raises below
        path = word_path(s, w.letters, w.base)
        m = identity_matrix(s.rank)
        for i, a in zip(reversed(w.letters), reversed(path[1:])):
            m = m[:i] + (mat_vec(transpose(m), s.coefficients[i][a]),) + m[i + 1 :]
        return GroupoidElement(w.base, path[0], m)
    tables = s.root_tables
    return _keep(_element(tables, w.base, path[0], cols), tables, cols, word=tuple(w.letters))


def _word_columns(s: RootGroupoidScheme, letters, base: int):
    """The word's path (see word_path), then the root indices of its
    columns: the simple roots of the base carried through the letters
    (_carry).  Checks the base and the letters, as word_path does, before
    it reads the root tables."""
    check_object(s, base)
    if letters and not (0 <= min(letters) and max(letters) < s.rank):
        word_path(s, letters, base)  # raises naming the bad letter
    tables = s.root_tables
    return _carry(tables, letters, base, tables.simple[base])


def _carry(tables: RootTables, letters, base: int, cols):
    """The word's path from base (see word_path), then cols, root indices
    at base, carried through the letters, rightmost first, two letters
    per lookup in the pair table (RootTables.pairs).  Checks nothing."""
    action = tables.action
    k = len(letters)
    path = [base] * (k + 1)
    a = base
    if k % 2:  # the rightmost letter of an odd word goes alone
        k -= 1
        i = letters[k]
        cols = tuple(map(tables.sigma[i][a].__getitem__, cols))
        path[k] = a = action[i][a]
    if k:  # then two letters per step; the pair table is built on first use
        pairs = tables.pairs
        for k in range(k - 2, -1, -2):
            i, j = letters[k], letters[k + 1]
            cols = tuple(map(pairs[i][j][a].__getitem__, cols))
            path[k + 1] = b = action[j][a]
            path[k] = a = action[i][b]
    return path, cols


def compose(g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
    """The product g after h; zero when g's source is not h's target, and
    ValueError unless both matrices are square of one size.

    When g keeps a word (_keep) and h keeps its column indices on the
    same root tables, h's columns, roots of g's source, are carried
    through g's word (_carry) and the product keeps its column indices
    but no word, so no kept word grows by composition; otherwise the
    matrices are multiplied.  The representation is faithful, so both
    give the same element.
    """
    if g.is_zero or h.is_zero or g.source != h.target:
        return ZERO
    if {len(h.matrix), *map(len, g.matrix), *map(len, h.matrix)} != {len(g.matrix)}:
        raise ValueError("element matrices are not square of one size")
    entry, h_entry = vars(g).get("_indices"), vars(h).get("_indices")
    if entry and entry[3] is not None and h_entry and h_entry[0] is entry[0]:
        tables = entry[0]
        cols = _carry(tables, entry[3], h.target, h_entry[1])[1]
        return _keep(_element(tables, h.source, g.target, cols), tables, cols)
    return GroupoidElement(h.source, g.target, mat_mul(g.matrix, h.matrix))


def inverse(g: GroupoidElement) -> GroupoidElement:
    """g's inverse; ValueError for zero and for a matrix that is not square.

    A reflection at i |> a undoes the one at a, so when g keeps a word
    (_keep) its inverse is that word reversed, evaluated from g's
    target on g's root tables (_carry); the result keeps its column
    indices and the reversed word.  Any other g, such as one built from
    a matrix, is inverted by integer row operations (mat_inverse).
    """
    if g.is_zero:
        raise ValueError("the zero element has no inverse")
    if {*map(len, g.matrix)} != {len(g.matrix)}:
        raise ValueError("element matrix is not square")
    entry = vars(g).get("_indices")
    if entry is None or entry[3] is None:
        return GroupoidElement(g.target, g.source, mat_inverse(g.matrix))
    tables, back = entry[0], entry[3][::-1]
    cols = _carry(tables, back, g.target, tables.simple[g.target])[1]
    return _keep(_element(tables, g.target, g.source, cols), tables, cols, word=back)


def _indices(s: RootGroupoidScheme, g: GroupoidElement) -> list:
    """The nonzero g's [tables, column indices, stripped letters or None,
    word or None] for s (_keep).

    Raises as s.root_tables does first.  The entry that _keep left is
    used when its tables are s's own; otherwise g must fit s (source and
    target objects of s, a rank x rank matrix, else ValueError), each
    column is looked up once among the roots of g's target (ValueError
    if one is not a root), and the result is kept in the same way.
    """
    tables = s.root_tables
    entry = vars(g).get("_indices")
    if entry is not None and entry[0] is tables:
        return entry
    n, rank = s.n_objects, s.rank
    if not (0 <= g.source < n and 0 <= g.target < n):
        check_object(s, g.source)
        check_object(s, g.target)
    if len(g.matrix) != rank or any(map(rank.__ne__, map(len, g.matrix))):
        raise ValueError(f"element matrix is not {rank} x {rank}")
    try:
        cols = tuple(map(tables.index[g.target].__getitem__, zip(*g.matrix)))
    except KeyError:
        raise ValueError(
            "matrix columns are not roots of its target; not a groupoid element"
        ) from None
    return vars(_keep(g, tables, cols))["_indices"]


def _stripped(s: RootGroupoidScheme, g: GroupoidElement) -> tuple[int, ...]:
    """The letters of g's canonical reduced word, walked once per element
    and kept with its indices as its walk and its word (_indices, which
    raises first)."""
    entry = _indices(s, g)
    if entry[2] is None:
        try:
            entry[2] = entry[3] = _stripped_letters(s, g.source, g.target, entry[1])
        except KeyError:
            raise ValueError(
                "not a groupoid element: the descent walk leaves the roots of its target"
            ) from None
    return entry[2]


def length(s: RootGroupoidScheme, g: GroupoidElement):
    """Number of positive source roots sent negative; MINUS_INFINITY for zero.

    Equals the minimal number of generators in any word evaluating to g,
    which needs the roots to pass the axioms that root_tables checks.
    Under them each stripped right descent lowers that number by one, so
    it is the number of letters of canonical_reduced_word, whose walk it
    shares.  Raises as canonical_reduced_word does: a matrix that is no
    groupoid element, such as diag(2, 1, 1) or diag(-1, 1, 1) at object
    0 of the bundled example, gets a ValueError, not a length.
    """
    if g.is_zero:
        return MINUS_INFINITY
    return len(_stripped(s, g))


def is_descent(s: RootGroupoidScheme, g: GroupoidElement, j: int) -> bool:
    """Whether appending the j-th generator on the right shortens g.

    True exactly when g sends the j-th simple root of its source to a
    negative root of its target.  Raises as root_tables does, and
    ValueError if g does not fit s or has a column that is not a root of
    its target (_indices).  That is all it checks of g, and no walk is
    made: diag(-1, 1, 1) at object 0 of the bundled example, whose
    columns are roots but which is no element, has the descent 0.
    """
    if g.is_zero:
        raise ValueError("the zero element has no descents")
    check_generator(s, j)
    return _indices(s, g)[1][j] < 0


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
    # A loop guard only: under axioms 2, 3, 4 and 5, which the tables
    # check, each step changes the length by exactly one, so the walk stops
    # by itself within this many letters.
    bound = len(s.positive_roots[source])
    tables = s.root_tables
    letters = []
    # cols[j] is a descent's index exactly when 0 > cols[j]
    wanted = (0).__gt__ if descents else (-1).__lt__
    while True:
        j = next(itertools.compress(itertools.count(), map(wanted, cols)), None)
        if j is None or len(letters) == bound:
            return letters, source, list(cols), j
        letters.append(j)
        source, cols = _append_generator(s, tables, source, target, cols, j)


def canonical_reduced_word(s: RootGroupoidScheme, g: GroupoidElement) -> Word:
    """Reduced word for g obtained by stripping smallest right descents.

    Deterministic; the result has length(g) letters and evaluates back to
    g.  Raises as root_tables does, and ValueError if g does not fit s, if
    its columns are not roots of its target (_indices), or if they are
    but the walk leaves those roots, as for diag(-1, 1, 1) at object 0 of
    the bundled example.
    """
    if g.is_zero:
        raise ValueError("the zero element has no reduced word")
    return Word(g.source, _stripped(s, g))


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
    # Unreachable once the tables exist: they check axiom 7, without which
    # a word such as (1 2)^3 on two-object A2 is the identity matrix
    # between distinct objects.  Kept as a guard.
    if reached != target:
        raise InconsistentSchemeError(
            "identity matrix between distinct objects; scheme data is inconsistent"
        )
    return tuple(reversed(letters))


def longest_element(s: RootGroupoidScheme, a: int) -> GroupoidElement:
    """The unique maximal-length element with the given source.

    Built once per object and kept next to s.root_tables: like them it
    lives on the instance, outside the fields, so equality, hashing and
    replace() ignore it.  The first call appends the smallest non-descent
    to the identity at a until none is left, which ends at the longest
    element from some b to a.  It sends every simple root to a negative
    one, and so does its inverse, so its matrix is a negated permutation
    and the inverse, from a to b, is its transpose: the walk's columns
    are the rows of the result.  The result's length is the number of
    positive roots.

    It keeps its column indices and its canonical word, as its walk and
    its word (_keep), read off the same walk: w0 sends every positive root
    of a negative, so the right descents of w0 after w are exactly the
    ascents of w, and stripping the smallest descent from w0 appends,
    letter by letter, the smallest ascent that the walk appended.  The
    stripped letters are the walk's, and the canonical word is the walk
    reversed; length and canonical_reduced_word make no walk of their own.
    Raises as root_tables does.
    """
    check_object(s, a)
    tables = s.root_tables
    cache = vars(s).setdefault("_longest", {})
    if a not in cache:
        letters, b, cols, j = _greedy_walk(s, a, a, tables.simple[a], descents=False)
        # Unreachable once the tables exist (see _greedy_walk); kept as a guard.
        if j is not None:
            raise InconsistentSchemeError(
                f"longest element from object {s.objects[a]} not reached within "
                f"{len(s.positive_roots[a])} steps, its number of positive roots; "
                "scheme data is inconsistent"
            )
        w0 = GroupoidElement(a, b, tuple(map(tables.roots[a].__getitem__, cols)))
        w0_cols = tuple(map(tables.index[b].__getitem__, zip(*w0.matrix)))
        letters = tuple(reversed(letters))
        cache[a] = _keep(w0, tables, w0_cols, letters, letters)
    return cache[a]


def _levels(s: RootGroupoidScheme, source: int | None):
    """The elements of each length in turn, as dicts keyed by (source,
    target, column indices), each grown on the left of the one before.
    An element's value has bit i set when generator i found it from the
    level below, so the set bits are its left descents.  Under the axioms
    that the tables check one generator changes the length by exactly
    one, so every other generator leads one level up, and only the level
    being grown and the next are held.  Raises as root_tables does.
    """
    tables = s.root_tables
    if source is not None:
        check_object(s, source)
    bound = max(len(pos) for pos in s.positive_roots)
    sources = range(s.n_objects) if source is None else (source,)
    generators = [(1 << i, s.action[i], tables.sigma[i]) for i in range(s.rank)]
    level = {(a, a, tables.simple[a]): 0 for a in sources}
    for _ in range(bound + 1):
        yield level
        nxt = {}
        for (a, b, cols), descents in level.items():
            for bit, action, sigma in generators:
                if not descents & bit:
                    key = (a, action[b], tuple(map(sigma[b].__getitem__, cols)))
                    nxt[key] = nxt.get(key, 0) | bit
        level = nxt
    # Unreachable once the tables exist: under the seven axioms they check
    # no element is longer than its source's positive roots.  Kept as a guard.
    if level:
        raise InconsistentSchemeError(
            f"elements of length {bound + 1} found, more than the {bound} positive roots "
            "of any object; scheme data is inconsistent"
        )


def _sorted_level(s: RootGroupoidScheme, level) -> list:
    """The (source, target, matrix) of a level's elements, sorted."""
    roots = s.root_tables.roots
    return sorted((a, b, tuple(zip(*map(roots[b].__getitem__, cols)))) for a, b, cols in level)


def enumerate_elements(
    s: RootGroupoidScheme, source: int | None = None
) -> list[GroupoidElement]:
    """All elements of the groupoid, level by level (_levels).

    Starts from the identities (only the one at source, if given) and
    holds at most two levels besides the result.  Raises as root_tables
    does.  Sorted by (length, source, target, matrix).
    """
    return [GroupoidElement(a, b, matrix) for level in _levels(s, source)
            for a, b, matrix in _sorted_level(s, level)]


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
    return ((x, y) * n)[:n]
