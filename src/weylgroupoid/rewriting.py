"""Braid-move rewriting on words and the weak exchange factorization.

A braid move replaces an alternating two-letter segment of a word by the
opposite alternation, where the segment length equals the rank-two count
of the letter pair at the object the segment acts from.  Moves preserve
base, length, and evaluation.  Any two reduced words of the same element
are connected by such moves, so braid search decides the word problem for
reduced words; the search enforces this as a runtime assertion and fails
hard if it would have to leave the element's reduced-word set.  The search
runs on letter tuples at a fixed base and reads m from the rank-two table
of the finite root tables, which it requires; Word and BraidMove are built
only for its results.  Each word it reaches carries its object path,
derived from the path of the word it came from, since a move changes only
the objects inside its segment.  Only applicable_moves and apply_move,
which take single words, also run on truncated data, walking the chain.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .groupoid import (
    GroupoidElement,
    Word,
    _alternating,
    _carry,
    _stripped_letters,
    _word_columns,
    canonical_reduced_word,
    element_of_word,
)
from .roots import rank_two_count
from .scheme import FINITE, RootGroupoidScheme, check_generator, word_path


@dataclass(frozen=True)
class BraidMove:
    """One application of a rank-two relation inside a word.

    position  index (0-based) of the leftmost letter of the segment
    first     letter the segment currently starts with
    second    the alternating partner letter
    m         segment length, the rank-two count of the pair
    anchor    object the segment's rightmost letter acts from
    """

    position: int
    first: int
    second: int
    m: int
    anchor: int


@dataclass(frozen=True)
class MoveChain:
    start: Word
    moves: tuple[BraidMove, ...]
    end: Word


def _segments(s: RootGroupoidScheme, letters: tuple[int, ...], path: list, positions=None) -> list:
    """The braid moves of a word as (position, first, second, m, anchor) tuples,
    at every position or only at those given; path is the word's object
    path (word_path).  On finite data m is read from the rank-two table of
    root_tables, elsewhere from rank_two_count; either asks for root data
    at the first pair of distinct letters.  A segment qualifies when its
    m letters repeat with period two.
    """
    n = len(letters)
    counts = None  # the rank-two table of the root tables, on finite data
    found = []
    for p in range(n - 1) if positions is None else positions:
        x, y = letters[p], letters[p + 1]
        if x == y:
            continue
        if counts is None and s.status == FINITE:
            counts = s.root_tables.rank_two
        if counts is not None:
            m = counts[x][y][path[p + 1]]
        else:
            m = rank_two_count(s, x, y, path[p + 1])
            if not isinstance(m, int):
                continue
        if p + m <= n and (m < 3 or letters[p + 2 : p + m] == letters[p : p + m - 2]):
            found.append((p, x, y, m, path[p + m]))
    return found


def _swapped(letters: tuple[int, ...], seg) -> tuple[int, ...]:
    """The letters with the segment replaced by the opposite alternation."""
    p, x, y, m, _ = seg
    return letters[:p] + _alternating(y, x, m) + letters[p + m :]


def applicable_moves(s: RootGroupoidScheme, w: Word) -> list[BraidMove]:
    """All braid moves applicable to the word, ordered by position.

    A segment qualifies when it alternates between two distinct letters
    and its length equals the (finite) rank-two count of the pair at the
    object its leftmost letter acts from; on data that passes axiom 5 it
    is the count at the move's anchor, where its rightmost letter acts.
    Raises as root_tables does on finite roots (InconsistentSchemeError
    naming the first of the seven axioms that fails).
    """
    return [BraidMove(*seg) for seg in _segments(s, w.letters, word_path(s, w.letters, w.base))]


def apply_move(s: RootGroupoidScheme, w: Word, mv: BraidMove) -> Word:
    """Replace the segment by the opposite alternation.

    Raises ValueError unless mv is one of applicable_moves(s, w); only the
    move's own position is examined (InconsistentSchemeError as in
    applicable_moves).  The result has the same base, length, and
    evaluation.  Applying the induced move at the same position again
    restores the original word.
    """
    return Word(w.base, _applied(s, w.letters, word_path(s, w.letters, w.base), mv))


def _applied(s: RootGroupoidScheme, letters: tuple[int, ...], path: list, mv: BraidMove):
    """The letters after the move, checked as apply_move checks it; path is
    the object path of letters (word_path)."""
    p = mv.position
    at = [p] if p in range(len(letters) - 1) else []
    segs = _segments(s, letters, path, at)
    if segs != [(p, mv.first, mv.second, mv.m, mv.anchor)]:
        raise ValueError("move is not applicable to this word")
    return _swapped(letters, segs[0])


def _is_reduced(s: RootGroupoidScheme, letters: tuple[int, ...], path: list) -> bool:
    """Whether the word with this object path (word_path) is reduced.

    Under the axioms that root_tables checks, putting letter m in front of
    the letters to its right lengthens their product exactly when the
    simple root of letter m, carried back through those letters to the
    base, is positive; the word is reduced when every such root is.  The
    roots are carried by index lookups, all in one pass from the left.
    Raises as root_tables does.
    """
    tables = s.root_tables
    sigma, simple = tables.sigma, tables.simple
    carried: tuple[int, ...] = ()
    for m, i in enumerate(letters):
        carried = (*map(sigma[i][path[m]].__getitem__, carried), simple[path[m + 1]][i])
    return min(carried, default=0) >= 0


def _moved_path(s: RootGroupoidScheme, letters: tuple[int, ...], path: list, p: int, m: int) -> list:
    """The object path of letters, a word that a braid move at position p
    with m letters made from a word with the given path.  Only the objects
    inside the segment change; if the relation does not close on them,
    the whole prefix is recomputed."""
    action = s.action
    out = path[:]
    for k in range(p + m - 1, p, -1):
        out[k] = action[letters[k]][out[k + 1]]
    if action[letters[p]][out[p + 1]] != path[p]:
        out[: p + 2] = word_path(s, letters[: p + 1], out[p + 1])
    return out


def _next_level(s: RootGroupoidScheme, frontier: list, parents: dict) -> list:
    """The words one braid move from the frontier that parents does not hold yet.

    A frontier entry is (letters, path, segment): a start word with its
    object path (word_path) and None, or a word with the path of the word
    it came from and the segment of the move that made it.  The move at
    that position leads back to a word already in parents, so it is not
    tried.  Expands the frontier in letter order, finding segments as
    _segments does on finite data; records each new word in parents as
    letters -> (previous letters, segment), and returns the new entries.
    """
    counts = s.root_tables.rank_two
    nxt = []
    for letters, path, made in sorted(frontier, key=operator.itemgetter(0)):
        skip = None
        if made is not None:
            skip = made[0]
            path = _moved_path(s, letters, path, skip, made[3])
        n = len(letters)
        for p in range(n - 1):
            x, y = letters[p], letters[p + 1]
            if x == y or p == skip:
                continue
            m = counts[x][y][path[p + 1]]
            if p + m <= n and (m < 3 or letters[p + 2 : p + m] == letters[p : p + m - 2]):
                new = letters[:p] + ((y, x) * m)[:m] + letters[p + m :]
                if new not in parents:
                    seg = (p, x, y, m, path[p + m])
                    parents[new] = (letters, seg)
                    nxt.append((new, path, seg))
    return nxt


def braid_connect(s: RootGroupoidScheme, u: Word, v: Word) -> MoveChain:
    """A shortest chain of braid moves transforming u into v.

    Both words must be reduced, share their base, and evaluate to the
    same element; the chain then exists.  Bidirectional breadth-first
    search with deterministic tie-breaking; exhausting the reduced-word
    set without meeting indicates inconsistent scheme data and raises.
    """
    if u.base != v.base:
        raise ValueError("words have different bases")
    try:
        (pu, cu), (pv, cv) = (_word_columns(s, w.letters, w.base) for w in (u, v))
    except ValueError:  # a bad letter, or roots missing, truncated or inconsistent
        gu, gv = element_of_word(s, u), element_of_word(s, v)  # raises naming a bad letter
        tu, tv, same = gu.target, gv.target, gu == gv
        pu, pv = (word_path(s, w.letters, w.base) for w in (u, v))
    else:  # on the root tables, target and column indices determine the element
        tu, tv, same = pu[0], pv[0], (pu[0], cu) == (pv[0], cv)
    if not same:
        if tu != tv:
            raise ValueError(
                "words evaluate to different elements: target mismatch: "
                f"{s.objects[tu]} != {s.objects[tv]}"
            )
        raise ValueError("words evaluate to different elements")
    if not _is_reduced(s, u.letters, pu):
        raise ValueError("first word is not reduced")
    if not _is_reduced(s, v.letters, pv):
        raise ValueError("second word is not reduced")

    if u == v:
        return MoveChain(u, (), v)

    # letters -> (previous letters, segment) and the frontier (entries as
    # in _next_level), u side 0 and v side 1; every word of the search is
    # based at u.base
    parents: tuple[dict, dict] = ({u.letters: None}, {v.letters: None})
    frontiers = [[(u.letters, pu, None)], [(v.letters, pv, None)]]

    meets: list[tuple[int, ...]] = []
    while not meets:
        # an empty frontier's parent map holds its whole braid class: no meet
        if not frontiers[0] or not frontiers[1]:
            raise RuntimeError(
                "braid search exhausted the reduced words without connecting; "
                "scheme data is inconsistent"
            )
        # expand the smaller frontier; ties expand the u side
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        frontiers[side] = _next_level(s, frontiers[side], parents[side])
        meets = [w for w, *_ in frontiers[side] if w in parents[1 - side]]
    meet = min(meets)

    # walk back from the meet to u, then on from the meet to v; the
    # inverse of a move is the move at the same position with the letters
    # swapped
    moves = []
    w = meet
    while parents[0][w] is not None:
        w, seg = parents[0][w]
        moves.append(BraidMove(*seg))
    moves.reverse()
    w = meet
    while parents[1][w] is not None:
        w, (p, x, y, m, anchor) = parents[1][w]
        moves.append(BraidMove(p, y, x, m, anchor))

    # the chain is self-checked before being returned, each move as
    # apply_move checks it, on the path carried from the move before
    w, path = u.letters, pu
    for mv in moves:
        w = _applied(s, w, path, mv)
        path = _moved_path(s, w, path, mv.position, mv.m)
    if Word(u.base, w) != v:
        raise RuntimeError("assembled move chain does not reach the target word")
    return MoveChain(u, tuple(moves), v)


def all_reduced_words(s: RootGroupoidScheme, g: GroupoidElement) -> set[Word]:
    """Braid-move closure of the canonical reduced word of g.

    By braid connectivity this is the set of all reduced words of g.
    """
    if g.is_zero:
        raise ValueError("the zero element has no reduced words")
    start = canonical_reduced_word(s, g)
    frontier = [(start.letters, word_path(s, start.letters, start.base), None)]
    parents = {start.letters: None}
    while frontier:
        frontier = _next_level(s, frontier, parents)
    return {Word(start.base, letters) for letters in parents}


@dataclass(frozen=True)
class WeakExchangeFactorization:
    """Normal form of a reduced word as a product of relation blocks.

    The element of the factored word equals the product of the blocks
    C[t] over t = 1..r, where block t is the alternating word on the
    letter pair (j[t], k[t]) of length m(j[t], k[t]; anchor) - 1 based at
    anchors[t].  k has r + 1 entries; the trailing one is the absorbed
    letter.  Multiplying the word by that letter on the right equals
    multiplying the emitted letter k[0] on the left of the same blocks at
    shifted anchors.
    """

    r: int
    j: tuple[int, ...]
    k: tuple[int, ...]
    anchors: tuple[int, ...]


def _block_word(s: RootGroupoidScheme, js, ks, anchors):
    """The blocks on (js[t], ks[t]) at anchors[t] as one word based at anchors[-1], its
    path and its columns; raises unless each block starts where the block to its right ends."""
    counts = s.root_tables.rank_two
    words = [_alternating(x, y, counts[x][y][b] - 1) for x, y, b in zip(js, ks, anchors)]
    letters = sum(words, ())
    path, cols = _word_columns(s, letters, anchors[-1])
    # block t is based at the object its rightmost letter acts from
    if [path[end] for end in itertools.accumulate(map(len, words))] != anchors:
        raise RuntimeError("relation blocks do not compose; factorization is invalid")
    return letters, path, cols


def weak_exchange_factor(
    s: RootGroupoidScheme, w: Word, j: int
) -> WeakExchangeFactorization:
    """Factor a reduced word into relation blocks that absorb a letter.

    Requires the word to be reduced and to map the j-th simple root of
    its base to a simple root at its target (the weak exchange
    hypothesis).  Blocks are extracted greedily from the left; the
    returned factorization is re-verified by word evaluation on the root
    tables before being returned, including the absorption identities in
    both directions and the block-size bookkeeping.
    """
    check_generator(s, j)
    m = len(w.letters)
    if m < 1:
        raise ValueError("word must have at least one letter")
    a = w.base
    path, cols = _word_columns(s, w.letters, a)
    tables = s.root_tables
    target = path[0]
    if not _is_reduced(s, w.letters, path):
        raise ValueError("word is not reduced")
    simple_index = next((k for k in range(s.rank) if cols[j] == tables.simple[target][k]), None)
    if simple_index is None:
        raise ValueError(
            "weak exchange hypothesis fails: the word does not send the chosen "
            "simple root to a simple root at its target"
        )

    js, ks, anchors, block_sizes = [], [], [], []

    # the tail's letters (a reduced word based at a), target and columns
    tail, tail_target, tail_cols = w.letters, target, cols
    k_current = simple_index
    while tail:
        jt = tail[0]
        if jt == k_current:
            raise RuntimeError("block letters coincide; factorization is invalid")
        d = tables.rank_two[jt][k_current][tail_target]
        # the block's inverse followed by the tail; it ends at the block's base
        back = _alternating(jt, k_current, d - 1)[::-1]
        back_path, tail_cols = _carry(tables, back, tail_target, tail_cols)
        tail_target = back_path[0]
        rest = _stripped_letters(s, a, tail_target, tail_cols)
        if len(rest) != len(tail) - (d - 1):
            raise RuntimeError("block stripping did not shorten as required")
        js.append(jt)
        ks.append(k_current)
        anchors.append(tail_target)
        block_sizes.append(d)
        k_next = jt if d % 2 == 1 else k_current
        # invariant: the tail still sends the j-th simple root of the base
        # to the simple root k_next at its own target
        if tail_cols[j] != tables.simple[tail_target][k_next]:
            raise RuntimeError("exchange invariant broken while stripping blocks")
        tail = rest
        k_current = k_next

    if k_current != j:
        raise RuntimeError("trailing absorbed letter does not match; factorization is invalid")
    ks.append(k_current)
    r = len(js)
    if anchors and anchors[-1] != a:
        raise RuntimeError("last block is not anchored at the base")
    if sum(block_sizes) - r != m:
        raise RuntimeError("block sizes do not add up to the word length")
    if js[0] != w.letters[0] or ks[0] != simple_index:
        raise RuntimeError("leading block does not start the word")

    # full re-verification, each side evaluated as one word; blocks start at a
    _, block_path, block_cols = _block_word(s, js, ks, anchors)
    if (block_path[0], block_cols) != (target, cols):
        raise RuntimeError("block product does not reproduce the element")
    shifted = [s.action[ks[t + 1]][anchors[t]] for t in range(r)]
    shifted_letters, shifted_path, shifted_cols = _block_word(s, js, ks, shifted)
    b = s.action[j][a]
    # absorption: (blocks) s_{j, j|>a} = s_{k1} (shifted blocks); the left
    # side is zero unless j |> b is a, and it starts at b
    path1, cols1 = _word_columns(s, w.letters + (j,), b)
    path2, cols2 = _carry(tables, (simple_index,), shifted_path[0], shifted_cols)
    if s.action[j][b] != a or shifted_path[-1] != b or (path1[0], cols1) != (path2[0], cols2):
        raise RuntimeError("absorption identity fails on the shifted blocks")
    # and back: (shifted blocks) s_{j, a} = s_{k1} (blocks), both from a
    path1, cols1 = _word_columns(s, shifted_letters + (j,), a)
    path2, cols2 = _carry(tables, (simple_index,), target, cols)
    if (path1[0], cols1) != (path2[0], cols2):
        raise RuntimeError("reverse absorption identity fails")

    return WeakExchangeFactorization(r, tuple(js), tuple(ks), tuple(anchors))
