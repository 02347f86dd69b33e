import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from weylgroupoid import Word
from weylgroupoid.groupoid import _alternating, generator_element
from weylgroupoid.intmat import identity_matrix, mat_mul
from weylgroupoid.rewriting import BraidMove, _is_reduced, _moved_path, _segments, _swapped
from weylgroupoid.scheme import reflection_matrix, word_path

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


def test_moves_ask_for_roots_only_at_distinct_letters(ex5):
    # a pair of equal letters never needs a rank-two count, so it needs no roots
    s = wg.strip_roots(ex5)
    assert wg.applicable_moves(s, Word(A, (0, 0))) == []
    with pytest.raises(ValueError, match="root sets are not materialized"):
        wg.applicable_moves(s, Word(A, (0, 1)))


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


def test_connect_raises_when_braid_classes_do_not_meet(ex5):
    # with no move applicable each word is its own braid class, so the first
    # expansion empties the u frontier; a rank-two table whose counts exceed
    # every word's length, put in after the root tables have checked the
    # data, leaves no segment to match
    s = dataclasses.replace(ex5)
    counts = (((99,) * s.n_objects,) * s.rank,) * s.rank
    vars(s)["root_tables"] = dataclasses.replace(ex5.root_tables, rank_two=counts)
    with pytest.raises(RuntimeError, match="exhausted the reduced words"):
        wg.braid_connect(s, Word(A, (0, 1, 0)), Word(A, (1, 0, 1)))


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


def _a2_swapped():
    """A2 at two objects that generator 2 swaps; only axiom 7 fails."""
    s = wg.RootGroupoidScheme(
        rank=2, objects=("a", "b"), action=((0, 1), (1, 0)),
        coefficients=(((-1, 1),) * 2, ((1, -1),) * 2), mode=wg.GENERATED,
    )
    return wg.generate_roots(s, 10)


BRAID_ERROR_SCHEMES = {
    "EX": EX5,
    "EX stripped": wg.strip_roots(EX5),
    "A4 at cutoff 1": wg.generate_roots(
        wg.from_cartan(((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))), 1
    ),
    "A2 swapped": _a2_swapped(),
}
DIFFERENT = "words evaluate to different elements"


@pytest.mark.parametrize("name, u, v, error, message", [
    ("EX", Word(A, (0,)), Word(B, (0,)), ValueError, "words have different bases"),
    ("EX", Word(A, (9,)), Word(B, (1, 1)), ValueError, "words have different bases"),
    ("EX", DISPLAY[0], COUNTEREXAMPLE, ValueError, f"{DIFFERENT}: target mismatch: d != e"),
    # generator 2 fixes object a, so both words end at a
    ("EX", Word(A, ()), Word(A, (1,)), ValueError, DIFFERENT),
    ("EX", Word(A, (1, 1, 0, 0)), Word(A, ()), ValueError, "first word is not reduced"),
    ("EX", Word(A, ()), Word(A, (1, 1)), ValueError, "second word is not reduced"),
    ("EX", Word(A, (1, 1)), Word(A, (2, 2)), ValueError, "first word is not reduced"),
    ("EX", Word(A, (0, 9)), Word(A, (3,)), ValueError, "generator index 9 out of range 0..2"),
    ("EX", Word(A, (1, 1)), Word(A, (0, 3)), ValueError, "generator index 3 out of range 0..2"),
    ("EX", Word(A, (0, 1)), Word(A, (0, 1, 3)), ValueError, "generator index 3 out of range 0..2"),
    ("EX stripped", Word(A, ()), Word(A, (1,)), ValueError, DIFFERENT),
    ("EX stripped", Word(A, (0, 1, 0)), Word(A, (1, 0, 1)), ValueError, "root sets are not materialized"),
    ("A4 at cutoff 1", Word(A, (0,)), Word(A, (1,)), ValueError, DIFFERENT),
    ("A4 at cutoff 1", Word(A, (0, 5)), Word(A, (1,)), ValueError, "generator index 5 out of range 0..3"),
    ("A4 at cutoff 1", Word(A, (0, 1, 0)), Word(A, (1, 0, 1)), ValueError,
     "operation requires finite root data, scheme is truncated"),
    ("A4 at cutoff 1", Word(A, (0, 0)), Word(A, ()), ValueError,
     "operation requires finite root data, scheme is truncated"),
    # (1 2)^3 is the identity matrix from a to b
    ("A2 swapped", Word(A, (0, 1) * 3), Word(A, ()), ValueError, f"{DIFFERENT}: target mismatch: b != a"),
    ("A2 swapped", Word(A, (0, 1)), Word(A, (0, 1)), wg.InconsistentSchemeError,
     "axiom 7 FAIL (generators 1,2 at object a: theta 2 does not divide count 3)"),
], ids=[
    "bases", "bases-before-letters", "target", "matrix", "first-unreduced", "second-unreduced",
    "both-unreduced", "bad-letters-in-both", "bad-letter-in-v", "bad-letter-in-v-only",
    "stripped-matrix", "stripped-roots", "truncated-matrix", "truncated-bad-letter",
    "truncated-roots", "truncated-unreduced", "axiom-7-target", "axiom-7-roots",
])
def test_connect_errors_and_their_order(name, u, v, error, message):
    # each pair has one fault that the search names, or several, of which
    # it names the first it checks: bases, then the letters of u and v,
    # then evaluation, then root data, then reducedness of u and of v
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        wg.braid_connect(BRAID_ERROR_SCHEMES[name], u, v)


# ---------------------------------------------------------------------------
# the braid search against the Word-keyed search it replaced


def _word_move_at(s, w, path, p):
    x, y = w.letters[p], w.letters[p + 1]
    if x == y:
        return None
    m = wg.rank_two_count(s, x, y, path[p + 1])
    if isinstance(m, int) and w.letters[p : p + m] == _alternating(x, y, m):
        return BraidMove(p, x, y, m, path[p + m])
    return None


def _word_moves(s, w):
    path = word_path(s, w.letters, w.base)
    moves = (_word_move_at(s, w, path, p) for p in range(len(w.letters) - 1))
    return [mv for mv in moves if mv is not None]


def _word_key(w):
    return (w.letters, w.base)


def _word_next_level(s, frontier, parents):
    nxt = []
    for w in sorted(frontier, key=_word_key):
        for mv in _word_moves(s, w):
            swapped = _alternating(mv.second, mv.first, mv.m)
            w2 = Word(w.base, w.letters[: mv.position] + swapped + w.letters[mv.position + mv.m :])
            if w2 not in parents:
                parents[w2] = (w, mv)
                nxt.append(w2)
    return nxt


def _word_connect(s, u, v):
    """The moves of the bidirectional Word-keyed search from u to v."""
    if u == v:
        return ()
    parents, frontiers, meets = ({u: None}, {v: None}), [[u], [v]], []
    while not meets:
        assert frontiers[0] and frontiers[1]
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        frontiers[side] = _word_next_level(s, frontiers[side], parents[side])
        meets = [w for w in frontiers[side] if w in parents[1 - side]]
    meet = min(meets, key=_word_key)
    moves, w = [], meet
    while parents[0][w] is not None:
        w, mv = parents[0][w]
        moves.append(mv)
    moves.reverse()
    w = meet
    while parents[1][w] is not None:
        w, mv = parents[1][w]
        moves.append(BraidMove(mv.position, mv.second, mv.first, mv.m, mv.anchor))
    return tuple(moves)


def _word_closure(s, g):
    start = wg.canonical_reduced_word(s, g)
    frontier, parents = [start], {start: None}
    while frontier:
        frontier = _word_next_level(s, frontier, parents)
    return set(parents)


def _cartan_scheme(matrix, cutoff=30):
    return wg.generate_roots(wg.from_cartan(matrix), cutoff)


SEARCH_SCHEMES = {
    "EX": EX5,
    "BI3": ORACLE_SCHEMES["BI3"],
    "A4": _cartan_scheme(((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))),
    "D4": _cartan_scheme(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))),
    "F4": _cartan_scheme(((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))),
}
TRUNCATED_SCHEMES = {
    "affine A1": _cartan_scheme(((2, -2), (-2, 2)), 10),
    "A2 + affine A1": _cartan_scheme(((2, -1, 0), (-1, 2, -2), (0, -2, 2)), 10),
}


@st.composite
def _reduced_word(draw, s, max_size):
    """A reduced word of at most max_size letters, grown from drawn letters
    that each lengthen it."""
    w = Word(draw(st.integers(0, s.n_objects - 1)), ())
    letters = st.lists(st.integers(0, s.rank - 1), min_size=max_size, max_size=3 * max_size)
    for i in draw(letters):
        longer = Word(w.base, w.letters + (i,))
        if len(longer) <= max_size and wg.length(s, wg.element_of_word(s, longer)) == len(longer):
            w = longer
    return w


@pytest.mark.parametrize("name", sorted(SEARCH_SCHEMES))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_braid_search_matches_word_keyed_search(name, data):
    s = SEARCH_SCHEMES[name]
    u = data.draw(_reduced_word(s, 8))
    g = wg.element_of_word(s, u)
    closure = _word_closure(s, g)
    assert wg.all_reduced_words(s, g) == closure
    v = data.draw(st.sampled_from(sorted(closure, key=_word_key)))
    for a, b in ((u, v), (v, u)):
        chain = wg.braid_connect(s, a, b)
        assert (chain.start, chain.moves, chain.end) == (a, _word_connect(s, a, b), b)


# the two schemes of the braid-rewriting benchmark that SEARCH_SCHEMES leaves out
BENCH_SEARCH_SCHEMES = {
    "A5": _cartan_scheme(
        ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, 0), (0, 0, -1, 2, -1), (0, 0, 0, -1, 2))
    ),
    "B4": _cartan_scheme(((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2))),
}


@pytest.mark.parametrize("name", sorted(BENCH_SEARCH_SCHEMES))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_braid_search_matches_word_keyed_search_on_a5_and_b4(name, data):
    s = BENCH_SEARCH_SCHEMES[name]
    u = data.draw(_reduced_word(s, 8))
    g = wg.element_of_word(s, u)
    closure = _word_closure(s, g)
    assert wg.all_reduced_words(s, g) == closure
    v = data.draw(st.sampled_from(sorted(closure, key=_word_key)))
    for a, b in ((u, v), (v, u)):
        chain = wg.braid_connect(s, a, b)
        assert (chain.start, chain.moves, chain.end) == (a, _word_connect(s, a, b), b)


@pytest.mark.parametrize("name", sorted(TRUNCATED_SCHEMES))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_applicable_moves_on_truncated_data_match_word_keyed_scan(name, data):
    s = TRUNCATED_SCHEMES[name]
    assert s.status == wg.TRUNCATED
    w = data.draw(_alternation_heavy_word(s))
    assert wg.applicable_moves(s, w) == _word_moves(s, w)


@pytest.mark.parametrize("make", [
    wg.rank3_example,
    lambda: wg.generate_roots(wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 30),
    lambda: wg.generate_roots(wg.from_cartan(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), 30),
], ids=["EX", "BI3", "B3"])
def test_is_reduced_agrees_with_length(make):
    # the carried simple roots decide reducedness without a length
    s = make()
    rng = random.Random(89)
    seen = set()
    for _ in range(400):
        w = Word(rng.randrange(s.n_objects), tuple(rng.randrange(s.rank) for _ in range(rng.randint(0, 12))))
        reduced = wg.length(s, wg.element_of_word(s, w)) == len(w)
        assert _is_reduced(s, w.letters, word_path(s, w.letters, w.base)) == reduced
        seen.add(reduced)
    assert seen == {True, False}


def test_moved_path_is_the_path_of_the_new_word(ex5):
    # a braid move changes only the objects inside its segment; any other
    # change of the segment's letters makes the search recompute the prefix
    rng = random.Random(83)
    closed = 0
    for _ in range(400):
        n = rng.randint(2, 9)
        letters = tuple(rng.randrange(3) for _ in range(n))
        base, p = rng.randrange(5), rng.randrange(n - 1)
        moves = _segments(ex5, letters, word_path(ex5, letters, base), [p])
        if moves and rng.random() < 0.5:
            m = moves[0][3]
            new = _swapped(letters, moves[0])
        else:
            m = rng.randint(2, n - p)
            new = letters[:p] + tuple(rng.randrange(3) for _ in range(m)) + letters[p + m :]
        path = word_path(ex5, letters, base)
        closed += word_path(ex5, new, base)[p] == path[p]
        assert _moved_path(ex5, new, path, p, m) == word_path(ex5, new, base)
    assert 0 < closed < 400


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


def _tampered_rank_two(s, value):
    """A copy of s whose rank-two table has counts[0][1][a] = value, and
    counts[1][0][a] left as it was, so the table is no longer symmetric.
    The table is changed after the root tables have checked the data."""
    t = dataclasses.replace(s)
    counts = [[list(row) for row in per_i] for per_i in s.root_tables.rank_two]
    counts[0][1][A] = value
    counts = tuple(tuple(map(tuple, per_i)) for per_i in counts)
    vars(t)["root_tables"] = dataclasses.replace(s.root_tables, rank_two=counts)
    return t


@pytest.mark.parametrize(
    "value, word, j, message",
    [
        (4, Word(E, (0, 1)), 0, "block stripping did not shorten"),
        (2, Word(A, (0, 1)), 0, "block product does not reproduce"),
        (4, Word(A, (1, 0, 2, 1)), 0, "relation blocks do not compose"),
        (2, Word(C, (0, 1)), 0, "absorption identity fails on the shifted blocks"),
        (2, Word(E, (0, 1)), 0, "exchange invariant broken"),
    ],
)
def test_weak_exchange_self_checks_catch_a_tampered_rank_two_table(ex5, value, word, j, message):
    # each word satisfies the hypothesis on the real data; one wrong count
    # gives a block of the wrong size, which one of the checks must refuse
    wg.weak_exchange_factor(ex5, word, j)
    with pytest.raises(RuntimeError, match=message):
        wg.weak_exchange_factor(_tampered_rank_two(ex5, value), word, j)


# An oracle for factorizations built only from reflection matrices and
# their products, independent of the root tables the library evaluates on.


def _matrix_word(s, base, letters):
    """Target and matrix of a word: the product of its reflection matrices,
    the rightmost letter acting first."""
    target, matrix = base, identity_matrix(s.rank)
    for i in reversed(letters):
        matrix = mat_mul(reflection_matrix(s, i, target), matrix)
        target = s.action[i][target]
    return target, matrix


def _two_generator_roots(s, i, j, a):
    """Number of positive roots of a supported on {i, j}."""
    return sum(
        all(x == 0 for t, x in enumerate(r) if t not in (i, j)) for r in s.positive_roots[a]
    )


def _matrix_blocks(s, fact, anchors):
    """Source, target and matrix of the blocks C[0] ... C[r - 1] at these
    anchors, each block starting where the block to its right ends."""
    source = target = anchors[-1]
    matrix = identity_matrix(s.rank)
    for t in reversed(range(fact.r)):
        assert target == anchors[t]
        size = _two_generator_roots(s, fact.j[t], fact.k[t], anchors[t]) - 1
        target, block = _matrix_word(s, anchors[t], _alternating(fact.j[t], fact.k[t], size))
        matrix = mat_mul(block, matrix)
    return source, target, matrix


def _hypothesis_letters(s, w):
    """The j for which the word sends the j-th simple root to a simple root."""
    _, g = _matrix_word(s, w.base, w.letters)
    return [j for j in range(s.rank) if sorted(row[j] for row in g) == [0] * (s.rank - 1) + [1]]


def _assert_factorization_by_matrices(s, w, j):
    fact = wg.weak_exchange_factor(s, w, j)
    a, k0 = w.base, fact.k[0]
    target, g = _matrix_word(s, a, w.letters)
    sizes = [_two_generator_roots(s, fact.j[t], fact.k[t], fact.anchors[t]) for t in range(fact.r)]
    assert sum(sizes) - fact.r == len(w.letters)
    # the block product is the element of the word
    assert _matrix_blocks(s, fact, fact.anchors) == (a, target, g)
    assert wg.element_of_word(s, w) == wg.GroupoidElement(a, target, g)
    # absorption, both ways: (blocks) s_{j, j|>a} = s_{k0} (shifted blocks)
    # and (shifted blocks) s_{j, a} = s_{k0} (blocks)
    shifted = [s.action[fact.k[t + 1]][fact.anchors[t]] for t in range(fact.r)]
    source, shifted_target, h = _matrix_blocks(s, fact, shifted)
    assert source == s.action[j][a]
    assert s.action[k0][shifted_target] == target
    assert mat_mul(g, reflection_matrix(s, j, source)) == mat_mul(
        reflection_matrix(s, k0, shifted_target), h
    )
    assert mat_mul(h, reflection_matrix(s, j, a)) == mat_mul(reflection_matrix(s, k0, target), g)


def test_weak_exchange_matches_matrix_oracle_on_criterion_7_cases(ex5):
    checked = 0
    for m in range(1, 6):
        for base in range(5):
            for letters in itertools.product(range(3), repeat=m):
                w = Word(base, letters)
                if wg.length(ex5, wg.element_of_word(ex5, w)) != m:
                    continue
                for j in _hypothesis_letters(ex5, w):
                    _assert_factorization_by_matrices(ex5, w, j)
                    checked += 1
    assert checked == 80


ORACLE_EXCHANGE_SCHEMES = {
    "A4": SEARCH_SCHEMES["A4"],
    "B3": _cartan_scheme(((2, -1, 0), (-1, 2, -1), (0, -2, 2))),
    "F4": SEARCH_SCHEMES["F4"],
}


@pytest.mark.parametrize("name", sorted(ORACLE_EXCHANGE_SCHEMES))
def test_weak_exchange_matches_matrix_oracle_on_sampled_words(name):
    s = ORACLE_EXCHANGE_SCHEMES[name]
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        # a reduced word of up to 12 letters, grown by letters that lengthen it
        w = Word(rng.randrange(s.n_objects), ())
        for _ in range(rng.randint(1, 12)):
            longer = Word(w.base, w.letters + (rng.randrange(s.rank),))
            if wg.length(s, wg.element_of_word(s, longer)) == len(longer):
                w = longer
        for j in _hypothesis_letters(s, w):
            _assert_factorization_by_matrices(s, w, j)
            checked += 1


@pytest.mark.parametrize("scheme", ["truncated", "stripped", "affine"])
def test_weak_exchange_checks_letters_and_base_before_root_data(ex5, affine_file, scheme):
    s = {
        "truncated": TRUNCATED_SCHEMES["affine A1"],
        "stripped": wg.strip_roots(ex5),
        "affine": wg.load_scheme(affine_file.read_text(encoding="utf-8")),
    }[scheme]
    with pytest.raises(ValueError, match="generator index 9 out of range"):
        wg.weak_exchange_factor(s, Word(0, (0,)), 9)
    with pytest.raises(ValueError, match="generator index 9 out of range"):
        wg.weak_exchange_factor(s, Word(0, (0, 9, 1)), 0)
    with pytest.raises(ValueError, match="object index 7 out of range"):
        wg.weak_exchange_factor(s, Word(7, (0, 9)), 0)


def test_weak_exchange_refuses_truncated_roots():
    s = TRUNCATED_SCHEMES["affine A1"]
    with pytest.raises(ValueError, match="operation requires finite root data"):
        wg.weak_exchange_factor(s, Word(A, (0,)), 1)


def test_weak_exchange_refuses_inconsistent_roots(affine_file):
    aff = wg.load_scheme(affine_file.read_text(encoding="utf-8"))
    message = re.escape("axiom 5 FAIL (generator 1 at object a")
    with pytest.raises(wg.InconsistentSchemeError, match=message):
        wg.weak_exchange_factor(aff, Word(A, (0, 1, 0, 1)), 0)
