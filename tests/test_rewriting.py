import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from weylgroupoid import Word, rewriting
from weylgroupoid.groupoid import generator_element
from weylgroupoid.rewriting import BraidMove

A, B, C, D, E = range(5)
EX5 = wg.rank3_example()  # for the hypothesis test, which cannot take fixtures in its strategy
E6 = (
    (2, -1, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0),
    (0, -1, 2, -1, 0, -1),
    (0, 0, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 2),
)
ORACLE_SCHEMES = {
    "EX": EX5,
    "BI3": wg.generate_roots(wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 30),
    "E6": wg.generate_roots(wg.from_cartan(E6), 30),
}

DISPLAY = [
    Word(A, (0, 1, 0, 2, 1, 2, 0, 2, 1, 0)),
    Word(A, (0, 1, 0, 1, 2, 1, 0, 2, 1, 0)),
    Word(A, (1, 0, 1, 0, 2, 1, 0, 2, 1, 0)),
    Word(A, (1, 0, 1, 2, 0, 1, 0, 2, 1, 0)),
    Word(A, (1, 0, 1, 2, 1, 0, 1, 2, 1, 0)),
    Word(A, (1, 0, 1, 2, 1, 0, 2, 1, 2, 0)),
    Word(A, (1, 0, 1, 2, 1, 0, 2, 1, 0, 2)),
]
COUNTEREXAMPLE = Word(A, (1, 0, 2, 1, 2, 0, 2, 1, 0, 2))


# ---------------------------------------------------------------------------
# moves


def test_moves_on_commuting_pair(ex5):
    moves = wg.applicable_moves(ex5, Word(A, (0, 2)))
    assert len(moves) == 1
    assert wg.apply_move(ex5, Word(A, (0, 2)), moves[0]) == Word(A, (2, 0))


def test_no_moves_on_empty_word(ex5):
    assert wg.applicable_moves(ex5, Word(A, ())) == []


def test_move_on_four_term_relation(ex5):
    w = Word(A, (1, 2, 1, 2))
    moves = wg.applicable_moves(ex5, w)
    assert len(moves) == 1
    assert moves[0].m == 4
    assert wg.apply_move(ex5, w, moves[0]) == Word(A, (2, 1, 2, 1))


def test_move_on_three_term_relation(ex5):
    w = Word(A, (0, 1, 0))
    moves = [m for m in wg.applicable_moves(ex5, w) if m.m == 3]
    assert len(moves) == 1
    assert wg.apply_move(ex5, w, moves[0]) == Word(A, (1, 0, 1))


def _assert_moves_preserve(s, w):
    g = wg.element_of_word(s, w)
    count = 0
    for mv in wg.applicable_moves(s, w):
        w2 = wg.apply_move(s, w, mv)
        assert w2.base == w.base
        assert len(w2.letters) == len(w.letters)
        assert wg.element_of_word(s, w2) == g
        count += 1
    return count


def test_moves_preserve_base_length_evaluation(ex5):
    # exhaustive through length six
    checked = 0
    for m in range(1, 7):
        for base in range(5):
            for letters in itertools.product(range(3), repeat=m):
                checked += _assert_moves_preserve(ex5, Word(base, letters))
    assert checked > 0
    # sampled reduced words up to length ten
    rng = random.Random(77)
    sampled = 0
    while sampled < 40:
        letters = tuple(rng.randrange(3) for _ in range(rng.randint(7, 10)))
        w = Word(rng.randrange(5), letters)
        if wg.length(ex5, wg.element_of_word(ex5, w)) != len(letters):
            continue
        _assert_moves_preserve(ex5, w)
        sampled += 1


def test_applying_move_twice_restores(ex5):
    w = Word(A, (1, 2, 1, 2))
    mv = wg.applicable_moves(ex5, w)[0]
    w2 = wg.apply_move(ex5, w, mv)
    back = BraidMove(mv.position, mv.second, mv.first, mv.m, mv.anchor)
    assert wg.apply_move(ex5, w2, back) == w


def test_apply_rejects_inapplicable_move(ex5):
    with pytest.raises(ValueError):
        wg.apply_move(ex5, Word(A, (0, 2)), BraidMove(0, 0, 1, 3, A))


@st.composite
def _word_and_move(draw):
    """A word on the example and a move that may or may not apply to it.

    Half the draws take an applicable move of the word, and half of those
    redraw one of its fields, possibly to a wrong position, letter, m or
    anchor; the rest build a move at random.
    """
    w = Word(draw(st.integers(0, 4)), tuple(draw(st.lists(st.integers(0, 2), min_size=2, max_size=9))))
    fields = {
        "position": st.integers(-2, len(w.letters) + 1),
        "first": st.integers(0, 2),
        "second": st.integers(0, 2),
        "m": st.integers(0, 7),
        "anchor": st.integers(0, 4),
    }
    moves = wg.applicable_moves(EX5, w)
    if moves and draw(st.booleans()):
        mv = draw(st.sampled_from(moves))
        if draw(st.booleans()):
            field = draw(st.sampled_from(sorted(fields)))
            mv = dataclasses.replace(mv, **{field: draw(fields[field])})
        return w, mv
    return w, draw(st.builds(BraidMove, **fields))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=_word_and_move())
@example(case=(Word(A, (1, 2, 1, 2)), BraidMove(0, 1, 2, 4, A)))  # applicable
@example(case=(Word(A, (1, 2, 1, 2)), BraidMove(0, 1, 2, 3, A)))  # wrong m
@example(case=(Word(A, (1, 2, 1, 2)), BraidMove(0, 1, 2, 4, B)))  # wrong anchor
@example(case=(Word(A, (1, 2, 1, 2)), BraidMove(-1, 1, 2, 4, A)))  # out of range
@example(case=(Word(A, (1, 2, 1, 2)), BraidMove(3, 2, 1, 4, A)))  # out of range
@example(case=(Word(A, (1, 2, 1, 2)), BraidMove(-2, 1, 2, 4, B)))  # negative index aliasing
@example(case=(Word(A, (1, 2, 2, 1)), BraidMove(0, 1, 2, 4, A)))  # not alternating
def test_apply_move_accepts_exactly_the_applicable_moves(case):
    w, mv = case
    applicable = mv in wg.applicable_moves(EX5, w)
    try:
        w2 = wg.apply_move(EX5, w, mv)
    except ValueError:
        assert not applicable
    else:
        assert applicable
        assert wg.element_of_word(EX5, w2) == wg.element_of_word(EX5, w)


@st.composite
def _alternation_heavy_word(draw, s):
    """A word made of up to four alternating runs x, y, x, ... of 1 to 7 letters."""
    letter = st.integers(0, s.rank - 1)
    letters = []
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(letter), draw(letter)
        letters += [y if t % 2 else x for t in range(draw(st.integers(1, 7)))]
    return Word(draw(st.integers(0, s.n_objects - 1)), tuple(letters))


def _oracle_moves(s, w):
    """Every alternating segment as long as the rank-two chain of its letter
    pair, walked at the object the segment's rightmost letter acts from."""
    n = len(w.letters)
    acts_from = [w.base] * (n + 1)  # entry k: the object letter k acts from
    for k in range(n - 1, -1, -1):
        acts_from[k] = s.action[w.letters[k]][acts_from[k + 1]]
    moves = []
    for p in range(n - 1):
        x, y = w.letters[p], w.letters[p + 1]
        for m in range(2, n - p + 1):
            if x == y or w.letters[p + m - 1] != (y if m % 2 == 0 else x):
                break
            anchor = acts_from[p + m]
            if len(wg.rank_two_positive_chain(s, x, y, anchor)) == m:
                moves.append(BraidMove(p, x, y, m, anchor))
    return moves


@pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_applicable_moves_match_chain_oracle(name, data):
    s = ORACLE_SCHEMES[name]
    w = data.draw(_alternation_heavy_word(s))
    assert wg.applicable_moves(s, w) == _oracle_moves(s, w)


# ---------------------------------------------------------------------------
# braid connectivity


def test_connect_word_to_itself(ex5):
    w = Word(A, (0, 2))
    chain = wg.braid_connect(ex5, w, w)
    assert chain.moves == ()


def test_connect_raises_when_braid_classes_do_not_meet(ex5, monkeypatch):
    # with no move applicable each word is its own braid class, so the first
    # expansion empties the u frontier
    monkeypatch.setattr(rewriting, "rank_two_count", lambda *args: math.inf)
    with pytest.raises(RuntimeError, match="exhausted the reduced words"):
        wg.braid_connect(ex5, Word(A, (0, 1, 0)), Word(A, (1, 0, 1)))


def test_connect_three_term_pair(ex5):
    chain = wg.braid_connect(ex5, Word(A, (0, 1, 0)), Word(A, (1, 0, 1)))
    assert len(chain.moves) == 1


def test_connect_display_endpoints(ex5):
    chain = wg.braid_connect(ex5, DISPLAY[0], DISPLAY[-1])
    assert len(chain.moves) == 6
    w = DISPLAY[0]
    for mv in chain.moves:
        w = wg.apply_move(ex5, w, mv)
        assert wg.element_of_word(ex5, w) == wg.element_of_word(ex5, DISPLAY[0])
    assert w == DISPLAY[-1]


def test_connect_rejects_counterexample_pair(ex5):
    with pytest.raises(ValueError, match="target mismatch: d != e"):
        wg.braid_connect(ex5, DISPLAY[0], COUNTEREXAMPLE)


def test_connect_rejects_unreduced(ex5):
    with pytest.raises(ValueError, match="not reduced"):
        wg.braid_connect(ex5, Word(A, (1, 1, 0, 0)), Word(A, ()))


def test_connect_rejects_different_bases(ex5):
    with pytest.raises(ValueError, match="bases"):
        wg.braid_connect(ex5, Word(A, (0,)), Word(B, (0,)))


# ---------------------------------------------------------------------------
# reduced-word sets


def test_reduced_words_of_identity(ex5):
    from weylgroupoid.groupoid import identity_element

    assert wg.all_reduced_words(ex5, identity_element(ex5, A)) == {Word(A, ())}


def test_reduced_words_of_commuting_pair(ex5):
    g = wg.element_of_word(ex5, Word(A, (0, 2)))
    assert wg.all_reduced_words(ex5, g) == {Word(A, (0, 2)), Word(A, (2, 0))}


def test_reduced_words_of_a2_longest(a2):
    g = wg.longest_element(a2, 0)
    assert wg.all_reduced_words(a2, g) == {Word(0, (0, 1, 0)), Word(0, (1, 0, 1))}


def test_reduced_words_match_brute_force_sample(ex5):
    # exhaustive cross-check at short lengths
    for m in range(0, 5):
        by_element = {}
        for base in range(5):
            for letters in itertools.product(range(3), repeat=m):
                w = Word(base, letters)
                g = wg.element_of_word(ex5, w)
                if wg.length(ex5, g) == m:
                    by_element.setdefault(g, set()).add(w)
        for g, brute in by_element.items():
            assert wg.all_reduced_words(ex5, g) == brute


# ---------------------------------------------------------------------------
# weak exchange


def test_weak_exchange_single_letter(ex5):
    # the generator-1 reflection at a fixes alpha_3, a simple root
    fact = wg.weak_exchange_factor(ex5, Word(A, (0,)), 2)
    assert fact.r == 1
    assert fact.j == (0,)
    assert fact.k == (2, 2)
    assert fact.anchors == (A,)


def test_weak_exchange_display_pair(ex5):
    # stripping the leading letter of the second display line gives a
    # reduced word satisfying the hypothesis for the trailing letter of
    # the last display line
    u = Word(A, (1, 0, 1, 2, 1, 0, 2, 1, 0))
    fact = wg.weak_exchange_factor(ex5, u, 2)
    assert fact.r == 5
    assert fact.j == (1, 2, 1, 2, 0)
    assert fact.k == (0, 0, 0, 1, 2, 2)
    assert fact.anchors == (D, C, E, C, A)
    sizes = [wg.rank_two_count(ex5, fact.j[t], fact.k[t], fact.anchors[t]) for t in range(5)]
    assert sum(sizes) - fact.r == len(u.letters)
    # the shifted blocks concatenate to the same letters, re-based, and
    # absorbing the trailing letter emits the leading letter of line two
    shifted = [
        wg.c_element(ex5, fact.j[t], fact.k[t], wg.act(ex5, fact.k[t + 1], fact.anchors[t]))
        for t in range(fact.r)
    ]
    concat = sum((w.letters for w in shifted), ())
    assert concat == u.letters
    assert shifted[-1].base == B
    shifted_el = wg.element_of_word(ex5, Word(B, concat))
    lhs = wg.compose(shifted_el, generator_element(ex5, 2, A))
    assert lhs == wg.element_of_word(ex5, DISPLAY[-1])
    gu = wg.element_of_word(ex5, u)
    rhs = wg.compose(generator_element(ex5, 0, gu.target), gu)
    assert rhs == wg.element_of_word(ex5, DISPLAY[1])
    assert lhs == rhs


def test_weak_exchange_rejects_failed_hypothesis(ex5):
    # the generator-2 reflection at a sends alpha_3 to a non-simple root
    with pytest.raises(ValueError, match="hypothesis"):
        wg.weak_exchange_factor(ex5, Word(A, (1,)), 2)


def test_weak_exchange_rejects_unreduced(ex5):
    with pytest.raises(ValueError, match="not reduced"):
        wg.weak_exchange_factor(ex5, Word(A, (0, 0, 2)), 1)


def test_weak_exchange_rejects_empty(ex5):
    with pytest.raises(ValueError, match="at least one"):
        wg.weak_exchange_factor(ex5, Word(A, ()), 0)
