"""Braid-move rewriting on words and the weak exchange factorization.

A braid move replaces an alternating two-letter segment of a word by the
opposite alternation, where the segment length equals the rank-two count
of the letter pair at the object the segment acts from.  Moves preserve
base, length, and evaluation.  Any two reduced words of the same element
are connected by such moves, so braid search decides the word problem for
reduced words; the search enforces this as a runtime assertion and fails
hard if it would have to leave the element's reduced-word set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groupoid import (
    GroupoidElement,
    Word,
    _alternating,
    c_element,
    canonical_reduced_word,
    compose,
    element_of_word,
    generator_element,
    length,
)
from .intmat import basis_vector, mat_col
from .roots import rank_two_count
from .scheme import RootGroupoidScheme, act, check_generator, word_path


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


def _move_at(s: RootGroupoidScheme, w: Word, path: list[int], p: int) -> BraidMove | None:
    """The braid move whose segment starts at position p, or None.

    path is word_path(s, w.letters, w.base); the one-position test behind
    both applicable_moves and apply_move.
    """
    x, y = w.letters[p], w.letters[p + 1]
    if x == y:
        return None
    m = rank_two_count(s, x, y, path[p + 1])
    if isinstance(m, int) and w.letters[p : p + m] == _alternating(x, y, m):
        return BraidMove(p, x, y, m, path[p + m])
    return None


def applicable_moves(s: RootGroupoidScheme, w: Word) -> list[BraidMove]:
    """All braid moves applicable to the word, ordered by position.

    A segment qualifies when it alternates between two distinct letters
    and its length equals the (finite) rank-two count of the pair at the
    object its leftmost letter acts from; on data that passes axiom 5 it
    is the count at the move's anchor, where its rightmost letter acts.
    """
    path = word_path(s, w.letters, w.base)
    moves = (_move_at(s, w, path, p) for p in range(len(w.letters) - 1))
    return [mv for mv in moves if mv is not None]


def apply_move(s: RootGroupoidScheme, w: Word, mv: BraidMove) -> Word:
    """Replace the segment by the opposite alternation.

    Raises ValueError unless mv is one of applicable_moves(s, w); only the
    move's own position is examined.  The result has the same base,
    length, and evaluation.  Applying the induced move at the same
    position again restores the original word.
    """
    path = word_path(s, w.letters, w.base)
    if mv.position not in range(len(w.letters) - 1) or _move_at(s, w, path, mv.position) != mv:
        raise ValueError("move is not applicable to this word")
    return _swap(w, mv)


def _swap(w: Word, mv: BraidMove) -> Word:
    """The word with the move's segment replaced; mv must come from applicable_moves(s, w)."""
    swapped = _alternating(mv.second, mv.first, mv.m)
    letters = w.letters[: mv.position] + swapped + w.letters[mv.position + mv.m :]
    return Word(w.base, letters)


def _word_key(w: Word):
    return (w.letters, w.base)


def _next_level(s: RootGroupoidScheme, frontier: list[Word], parents: dict) -> list[Word]:
    """The words one braid move from the frontier that parents does not hold yet.

    Expands the frontier in _word_key order; records each new word in
    parents as word -> (previous word, move).
    """
    nxt = []
    for w in sorted(frontier, key=_word_key):
        for mv in applicable_moves(s, w):
            w2 = _swap(w, mv)
            if w2 not in parents:
                parents[w2] = (w, mv)
                nxt.append(w2)
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
    gu = element_of_word(s, u)
    gv = element_of_word(s, v)
    if gu != gv:
        if gu.target != gv.target:
            raise ValueError(
                "words evaluate to different elements: target mismatch: "
                f"{s.objects[gu.target]} != {s.objects[gv.target]}"
            )
        raise ValueError("words evaluate to different elements")
    n = length(s, gu)
    if n != len(u.letters):
        raise ValueError("first word is not reduced")
    if n != len(v.letters):
        raise ValueError("second word is not reduced")

    if u == v:
        return MoveChain(u, (), v)

    # word -> (previous word, move) and the frontier, u side 0 and v side 1
    parents: tuple[dict[Word, tuple[Word, BraidMove] | None], ...] = ({u: None}, {v: None})
    frontiers = [[u], [v]]

    meets: list[Word] = []
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
        meets = [w for w in frontiers[side] if w in parents[1 - side]]
    meet = min(meets, key=_word_key)

    # walk back from the meet to u, then on from the meet to v; the
    # inverse of a move is the move at the same position with the letters
    # swapped
    moves = []
    w = meet
    while parents[0][w] is not None:
        w, mv = parents[0][w]
        moves.append(mv)
    moves.reverse()
    w = meet
    while parents[1][w] is not None:
        w, mv = parents[1][w]
        moves.append(BraidMove(mv.position, mv.second, mv.first, mv.m, mv.anchor))

    # the chain is self-checked before being returned
    w = u
    for mv in moves:
        w = apply_move(s, w, mv)
    if w != v:
        raise RuntimeError("assembled move chain does not reach the target word")
    return MoveChain(u, tuple(moves), v)


def all_reduced_words(s: RootGroupoidScheme, g: GroupoidElement) -> set[Word]:
    """Braid-move closure of the canonical reduced word of g.

    By braid connectivity this is the set of all reduced words of g.
    """
    if g.is_zero:
        raise ValueError("the zero element has no reduced words")
    start = canonical_reduced_word(s, g)
    frontier, parents = [start], {start: None}
    while frontier:
        frontier = _next_level(s, frontier, parents)
    return set(parents)


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


def _product_of_blocks(s: RootGroupoidScheme, words: list[Word]) -> GroupoidElement:
    result = element_of_word(s, words[-1])
    for w in reversed(words[:-1]):
        result = compose(element_of_word(s, w), result)
        if result.is_zero:
            raise RuntimeError("relation blocks do not compose; factorization is invalid")
    return result


def weak_exchange_factor(
    s: RootGroupoidScheme, w: Word, j: int
) -> WeakExchangeFactorization:
    """Factor a reduced word into relation blocks that absorb a letter.

    Requires the word to be reduced and to map the j-th simple root of
    its base to a simple root at its target (the weak exchange
    hypothesis).  Blocks are extracted greedily from the left; the
    returned factorization is re-verified by matrix products before being
    returned, including the absorption identities in both directions and
    the block-size bookkeeping.
    """
    check_generator(s, j)
    m = len(w.letters)
    if m < 1:
        raise ValueError("word must have at least one letter")
    g = element_of_word(s, w)
    if length(s, g) != m:
        raise ValueError("word is not reduced")
    image = mat_col(g.matrix, j)
    simple_index = next((k for k in range(s.rank) if image == basis_vector(s.rank, k)), None)
    if simple_index is None:
        raise ValueError(
            "weak exchange hypothesis fails: the word does not send the chosen "
            "simple root to a simple root at its target"
        )

    a = w.base
    js: list[int] = []
    ks: list[int] = []
    anchors: list[int] = []
    block_sizes: list[int] = []

    tail, tail_target = w, g.target
    k_current = simple_index
    while tail.letters:
        jt = tail.letters[0]
        if jt == k_current:
            raise RuntimeError("block letters coincide; factorization is invalid")
        d = rank_two_count(s, jt, k_current, tail_target)
        if not isinstance(d, int):
            raise RuntimeError("rank-two count is infinite; factorization is invalid")
        blk_letters = _alternating(jt, k_current, d - 1)
        # the block's inverse followed by the tail; it ends at the block's base
        rest = element_of_word(s, Word(tail.base, blk_letters[::-1] + tail.letters))
        if length(s, rest) != len(tail.letters) - (d - 1):
            raise RuntimeError("block stripping did not shorten as required")
        js.append(jt)
        ks.append(k_current)
        anchors.append(rest.target)
        block_sizes.append(d)
        k_next = jt if d % 2 == 1 else k_current
        tail, tail_target = canonical_reduced_word(s, rest), rest.target
        # invariant: the tail still sends the j-th simple root of the base
        # to the simple root k_next at its own target
        if mat_col(rest.matrix, j) != basis_vector(s.rank, k_next):
            raise RuntimeError("exchange invariant broken while stripping blocks")
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

    # full re-verification by matrix products
    blocks = [c_element(s, js[t], ks[t], anchors[t]) for t in range(r)]
    if _product_of_blocks(s, blocks) != g:
        raise RuntimeError("block product does not reproduce the element")
    shifted = [
        c_element(s, js[t], ks[t], act(s, ks[t + 1], anchors[t])) for t in range(r)
    ]
    shifted_prod = _product_of_blocks(s, shifted)
    # absorption: (blocks) s_{j, j|>a} = s_{k1} (shifted blocks)
    lhs1 = compose(g, generator_element(s, j, act(s, j, a)))
    rhs1 = compose(
        generator_element(s, simple_index, shifted_prod.target), shifted_prod
    )
    if lhs1.is_zero or lhs1 != rhs1:
        raise RuntimeError("absorption identity fails on the shifted blocks")
    # and back: (shifted blocks) s_{j, a} = s_{k1} (blocks)
    lhs2 = compose(shifted_prod, generator_element(s, j, a))
    rhs2 = compose(generator_element(s, simple_index, g.target), g)
    if lhs2.is_zero or lhs2 != rhs2:
        raise RuntimeError("reverse absorption identity fails")

    return WeakExchangeFactorization(r, tuple(js), tuple(ks), tuple(anchors))
