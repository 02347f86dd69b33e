import copy
import dataclasses
import itertools
import operator
import pickle
import random
import re

import pytest

import weylgroupoid as wg
from weylgroupoid import MINUS_INFINITY, ZERO, Word
from weylgroupoid import groupoid as groupoid_module
from weylgroupoid.groupoid import (
    _greedy_walk,
    _levels,
    _word_columns,
    generator_element,
    identity_element,
)
from weylgroupoid.intmat import identity_matrix, mat_inverse, mat_mul, transpose
from weylgroupoid.scheme import _checked, reflection_matrix, word_path

A, B, C, D, E = range(5)

LONGEST_A = Word(A, (0, 1, 0, 2, 1, 2, 0, 2, 1, 0))

# the first failing axiom of the affine_file fixture, as validate words it
AFFINE_AXIOM_5 = re.escape(
    "axiom 5 FAIL (generator 1 at object a: image does not equal the root set of a, "
    "first mismatch (0,-1))"
)


# ---------------------------------------------------------------------------
# evaluation and composition


def test_empty_word_is_identity(ex5):
    g = wg.element_of_word(ex5, Word(A, ()))
    assert g == identity_element(ex5, A)
    assert g.matrix == identity_matrix(3)


def test_single_letter_matrix(ex5):
    g = wg.element_of_word(ex5, Word(A, (0,)))
    assert (g.source, g.target) == (A, C)
    # columns are the images of the simple roots
    assert g.matrix == ((-1, 1, 0), (0, 1, 0), (0, 0, 1))


def test_squared_letter_is_identity(ex5):
    for i in range(3):
        for a in range(5):
            assert wg.element_of_word(ex5, Word(a, (i, i))) == identity_element(ex5, a)


def test_compose_identities(ex5):
    ea, eb = identity_element(ex5, A), identity_element(ex5, B)
    assert wg.compose(ea, eb) == ZERO
    assert wg.compose(ea, ea) == ea
    assert wg.compose(ZERO, ea) == ZERO
    assert wg.compose(ea, ZERO) == ZERO


def test_compose_object_mismatch_is_zero(ex5):
    # the generator-2 edge out of c lands at e, not b
    g = wg.compose(generator_element(ex5, 0, B), generator_element(ex5, 1, C))
    assert g.is_zero


def test_word_evaluation_never_zero(ex5):
    rng = random.Random(5)
    for _ in range(100):
        letters = tuple(rng.randrange(3) for _ in range(rng.randint(0, 12)))
        g = wg.element_of_word(ex5, Word(rng.randrange(5), letters))
        assert not g.is_zero


def test_inverse(ex5):
    g = wg.element_of_word(ex5, Word(A, (0,)))
    assert wg.inverse(g) == wg.element_of_word(ex5, Word(C, (0,)))
    assert wg.inverse(identity_element(ex5, A)) == identity_element(ex5, A)
    rng = random.Random(17)
    for _ in range(50):
        letters = tuple(rng.randrange(3) for _ in range(rng.randint(0, 8)))
        g = wg.element_of_word(ex5, Word(rng.randrange(5), letters))
        assert wg.inverse(wg.inverse(g)) == g
        assert wg.length(ex5, wg.inverse(g)) == wg.length(ex5, g)


def test_inverse_rejects_zero():
    with pytest.raises(ValueError):
        wg.inverse(ZERO)


def test_compose_refuses_matrices_of_two_sizes(ex5):
    # a 2 x 2 element after a 3 x 3 one used to give ((1, 0, 0), (0, 1, 0))
    g = wg.GroupoidElement(A, A, identity_matrix(2))
    with pytest.raises(ValueError, match="^element matrices are not square of one size$"):
        wg.compose(g, identity_element(ex5, A))


def test_inverse_refuses_a_matrix_that_is_not_square():
    # used to give ((0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="^element matrix is not square$"):
        wg.inverse(wg.GroupoidElement(A, A, ((1, 0, 0), (0, 1, 0))))


# ---------------------------------------------------------------------------
# length and descents


def test_length_basics(ex5):
    assert wg.length(ex5, identity_element(ex5, A)) == 0
    assert wg.length(ex5, ZERO) is MINUS_INFINITY
    g = wg.element_of_word(ex5, Word(A, (1, 2, 1, 2)))
    assert wg.length(ex5, g) == 4
    assert wg.length(ex5, wg.element_of_word(ex5, LONGEST_A)) == 10


def test_length_of_zero_orders_below_every_length(ex5):
    assert wg.length(ex5, ZERO) < 0
    assert min(wg.length(ex5, identity_element(ex5, A)), wg.length(ex5, ZERO)) is MINUS_INFINITY


def test_length_subadditive(ex5):
    rng = random.Random(31)
    for _ in range(100):
        g = wg.element_of_word(
            ex5, Word(rng.randrange(5), tuple(rng.randrange(3) for _ in range(rng.randint(0, 8))))
        )
        h = wg.element_of_word(
            ex5, Word(rng.randrange(5), tuple(rng.randrange(3) for _ in range(rng.randint(0, 8))))
        )
        gh = wg.compose(g, h)
        if not gh.is_zero:
            assert wg.length(ex5, gh) <= wg.length(ex5, g) + wg.length(ex5, h)


def test_appending_generator_changes_length_by_one(ex5):
    rng = random.Random(41)
    for _ in range(100):
        g = wg.element_of_word(
            ex5, Word(rng.randrange(5), tuple(rng.randrange(3) for _ in range(rng.randint(0, 9))))
        )
        for j in range(3):
            h = wg.compose(g, generator_element(ex5, j, wg.act(ex5, j, g.source)))
            delta = wg.length(ex5, h) - wg.length(ex5, g)
            assert delta in (-1, 1)
            assert (delta == -1) == wg.is_descent(ex5, g, j)


def test_descent_examples(ex5):
    assert not any(wg.is_descent(ex5, identity_element(ex5, A), j) for j in range(3))
    g = wg.element_of_word(ex5, Word(A, (1,)))
    assert [j for j in range(3) if wg.is_descent(ex5, g, j)] == [1]
    w0 = wg.longest_element(ex5, A)
    assert all(wg.is_descent(ex5, w0, j) for j in range(3))


def test_descent_rejects_zero(ex5):
    with pytest.raises(ValueError):
        wg.is_descent(ex5, ZERO, 0)


# ---------------------------------------------------------------------------
# canonical words


def test_canonical_word_of_identity(ex5):
    assert wg.canonical_reduced_word(ex5, identity_element(ex5, A)) == Word(A, ())


def test_canonical_word_round_trips(ex5):
    g = wg.element_of_word(ex5, Word(A, (1, 0)))
    w = wg.canonical_reduced_word(ex5, g)
    assert w == Word(A, (1, 0))
    assert wg.element_of_word(ex5, w) == g


def test_canonical_word_of_longest(ex5):
    g = wg.element_of_word(ex5, LONGEST_A)
    w = wg.canonical_reduced_word(ex5, g)
    assert w.letters == (0, 1, 2, 0, 1, 0, 2, 0, 1, 0)
    assert wg.element_of_word(ex5, w) == g


def test_canonical_word_is_reduced_and_canonical(ex5):
    # among all words of the same length evaluating to g, the canonical
    # one is reproducible and reduced
    rng = random.Random(59)
    for _ in range(50):
        letters = tuple(rng.randrange(3) for _ in range(rng.randint(0, 9)))
        g = wg.element_of_word(ex5, Word(rng.randrange(5), letters))
        w = wg.canonical_reduced_word(ex5, g)
        assert len(w.letters) == wg.length(ex5, g)
        assert wg.element_of_word(ex5, w) == g
        assert wg.canonical_reduced_word(ex5, g) == w


def test_canonical_word_rejects_a_matrix_that_is_no_element(ex5):
    # twice the first simple root is not a root of a
    g = wg.GroupoidElement(A, A, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="not a groupoid element"):
        wg.canonical_reduced_word(ex5, g)


@pytest.mark.parametrize("matrix, message", [
    # twice the first simple root is not a root of a
    (((2, 0, 0), (0, 1, 0), (0, 0, 1)),
     "matrix columns are not roots of its target; not a groupoid element"),
    # the columns -alpha1, alpha2 and alpha3 are roots of a, but no element
    # has them: stripping the descent 0 leaves the roots
    (((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
     "not a groupoid element: the descent walk leaves the roots of its target"),
], ids=["columns-not-roots", "walk-leaves-roots"])
def test_canonical_word_names_why_a_matrix_is_no_element(ex5, matrix, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        wg.canonical_reduced_word(ex5, wg.GroupoidElement(A, A, matrix))


def test_canonical_word_is_bounded_on_inconsistent_roots(affine_file):
    # (1 2)^2 has no reduced word within the two stored positive roots; the
    # root tables refuse the file before any walk starts
    aff = wg.load_scheme(affine_file.read_text(encoding="utf-8"))
    g = wg.element_of_word(aff, Word(A, (0, 1, 0, 1)))
    with pytest.raises(wg.InconsistentSchemeError, match=AFFINE_AXIOM_5):
        wg.canonical_reduced_word(aff, g)


def test_longest_element_is_bounded_on_inconsistent_roots(affine_file):
    # affine A1 has no longest element; the root tables refuse the file
    aff = wg.load_scheme(affine_file.read_text(encoding="utf-8"))
    with pytest.raises(wg.InconsistentSchemeError, match=AFFINE_AXIOM_5):
        wg.longest_element(aff, A)


def test_length_refuses_inconsistent_roots(affine_file):
    # counting the two stored roots would give length 1 for a word of length 4
    aff = wg.load_scheme(affine_file.read_text(encoding="utf-8"))
    g = wg.element_of_word(aff, Word(A, (0, 1, 0, 1)))
    with pytest.raises(wg.InconsistentSchemeError, match=AFFINE_AXIOM_5):
        wg.length(aff, g)


E6 = (
    (2, -1, 0, 0, 0, 0), (-1, 2, -1, 0, 0, 0), (0, -1, 2, -1, 0, -1),
    (0, 0, -1, 2, -1, 0), (0, 0, 0, -1, 2, 0), (0, 0, -1, 0, 0, 2),
)


@pytest.mark.parametrize("call", [
    wg.length, lambda s, g: wg.is_descent(s, g, 0), wg.canonical_reduced_word,
], ids=["length", "is_descent", "canonical_reduced_word"])
def test_element_queries_refuse_an_element_of_another_scheme(a2, ex5, call):
    # w0 of E6 used to get length 3 on A2 and 10 on the example, and to
    # have the descent 1 on both
    w0 = wg.longest_element(wg.generate_roots(wg.from_cartan(E6), 40), 0)
    for s in (a2, ex5):
        with pytest.raises(ValueError, match=rf"^element matrix is not {s.rank} x {s.rank}$"):
            call(s, w0)
    # the right number of rows, each one entry too long
    with pytest.raises(ValueError, match="^element matrix is not 2 x 2$"):
        call(a2, wg.GroupoidElement(0, 0, ((1, 0, 0), (0, 1, 0))))
    # the example's elements from and to its object e, asked of one-object
    # A3: an out-of-range source used to raise IndexError, or give no descent
    a3 = wg.generate_roots(wg.from_cartan(((2, -1, 0), (-1, 2, -1), (0, -1, 2))), 30)
    for g in (wg.element_of_word(ex5, Word(E, (0,))), wg.element_of_word(ex5, Word(A, (1, 0)))):
        assert E in (g.source, g.target)
        with pytest.raises(ValueError, match=r"^object index 4 out of range 0\.\.0$"):
            call(a3, g)


def _fails_axiom_4_only(b2):
    """BC2 (B2 with the roots (0,2) and (2,2) added) and rank 1 with the
    roots (1) and (2); each fails axiom 4 and no other."""
    bc2 = dataclasses.replace(b2, positive_roots=(b2.positive_roots[0] + ((0, 2), (2, 2)),))
    yield bc2, "object a, root (0,2) is a multiple of simple root 2"
    yield wg.load_scheme(
        '{"rank": 1, "objects": ["a"], "action": [[0]],'
        ' "coefficients": [[[-1]]], "mode": "prescribed", "roots": [[[1], [2]]]}'
    ), "object a, root (2) is a multiple of simple root 1"


@pytest.mark.parametrize("call", [
    lambda s: wg.length(s, wg.element_of_word(s, Word(A, (s.rank - 1,)))),
    lambda s: wg.longest_element(s, A),
    wg.enumerate_elements,
], ids=["length", "longest_element", "enumerate_elements"])
def test_lengths_refuse_axiom_4_failures(b2, call):
    # on BC2 the one-letter word 2 used to get length 2 and the longest
    # element length 6
    for s, witness in _fails_axiom_4_only(b2):
        assert [r.axiom for r in wg.validate(s).results if not r.passed] == [4]
        with pytest.raises(wg.InconsistentSchemeError, match=re.escape(f"axiom 4 FAIL ({witness})")):
            call(s)


@pytest.mark.parametrize("make", [
    wg.rank3_example,
    lambda: wg.generate_roots(wg.from_cartan(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), 30),
    lambda: wg.generate_roots(wg.from_cartan(((2, -1), (-3, 2))), 30),
    lambda: wg.generate_roots(wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 30),
], ids=["example", "B3", "G2", "BI3"])
def test_canonical_word_of_every_element_has_its_length(make):
    # every stripped descent lowers the length by exactly one, so the
    # canonical word has length(g) letters
    s = make()
    for g in wg.enumerate_elements(s):
        w = wg.canonical_reduced_word(s, g)
        assert len(w) == wg.length(s, g)
        assert wg.element_of_word(s, w) == g


# ---------------------------------------------------------------------------
# longest elements and enumeration


def test_longest_rank_one(rank1):
    w0 = wg.longest_element(rank1, 0)
    assert wg.length(rank1, w0) == 1


def test_longest_example(ex5):
    w0 = wg.longest_element(ex5, A)
    assert wg.length(ex5, w0) == 10 == len(ex5.positive_roots[A])
    assert w0 == wg.element_of_word(ex5, LONGEST_A)
    inv = wg.inversion_set(ex5, wg.canonical_reduced_word(ex5, w0).letters, A)
    assert inv.roots() == frozenset(ex5.positive_roots[A])


def test_longest_a2(a2):
    assert wg.length(a2, wg.longest_element(a2, 0)) == 3


def test_longest_unique_per_source(ex5):
    for a in range(5):
        w0 = wg.longest_element(ex5, a)
        maximal = [
            g for g in wg.enumerate_elements(ex5, a) if wg.length(ex5, g) == 10
        ]
        assert maximal == [w0]


def _chain(n, bonds=()):
    """The Cartan matrix of the chain 1 - 2 - ... - n, each pair of entries
    in bonds (0-based (i, j): (a_ij, a_ji)) replacing or adding a bond."""
    m = [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    for (i, j), (x, y) in dict(bonds).items():
        m[i][j], m[j][i] = x, y
    return tuple(map(tuple, m))


LONGEST_SCHEMES = {
    "EX": wg.rank3_example,
    "BI3": lambda: wg.generate_roots(
        wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 30),
    "BI4": lambda: wg.generate_roots(
        wg.from_bicharacter(((2, 2, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 0, 3)), 12, 4), 30),
    "A4": lambda: wg.generate_roots(wg.from_cartan(_chain(4)), 30),
    "B4": lambda: wg.generate_roots(wg.from_cartan(_chain(4, {(2, 3): (-1, -2)})), 30),
    "D5": lambda: wg.generate_roots(wg.from_cartan(_chain(5, {(3, 4): (0, 0), (2, 4): (-1, -1)})), 30),
    "F4": lambda: wg.generate_roots(wg.from_cartan(_chain(4, {(1, 2): (-1, -2)})), 30),
    "E6": lambda: wg.generate_roots(wg.from_cartan(E6), 30),
}


@pytest.mark.parametrize("make", LONGEST_SCHEMES.values(), ids=LONGEST_SCHEMES)
def test_longest_element_is_kept_per_object(make):
    # w0 from a is the transpose of the walk's end, kept once per object;
    # it used to be the reversed walk evaluated as a word on every call
    s = make()
    negated_unit = sorted([-1] + [0] * (s.rank - 1))
    for a in range(s.n_objects):
        letters, *_ = _greedy_walk(s, a, a, s.root_tables.simple[a], descents=False)
        w0 = wg.longest_element(s, a)
        assert w0 == wg.element_of_word(s, Word(a, tuple(reversed(letters))))
        assert wg.length(s, w0) == len(s.positive_roots[a])
        # a negated permutation matrix: one -1 in every row and every column
        assert all(sorted(line) == negated_unit for line in (*w0.matrix, *zip(*w0.matrix)))
        assert wg.longest_element(s, a) == w0
    # the copy is equal, and builds its own cache
    t = dataclasses.replace(s)
    assert t == s and hash(t) == hash(s) and "_longest" not in vars(t)
    assert [wg.longest_element(t, a) for a in range(t.n_objects)] == [
        wg.longest_element(s, a) for a in range(s.n_objects)
    ]
    assert vars(t)["_longest"] is not vars(s)["_longest"]


W0_SCHEMES = {
    **LONGEST_SCHEMES,
    "E8": lambda: wg.generate_roots(wg.from_cartan(_chain(8, {(6, 7): (0, 0), (4, 7): (-1, -1)})), 30),
}


@pytest.mark.parametrize("make", W0_SCHEMES.values(), ids=W0_SCHEMES)
def test_longest_element_word_is_its_stripping_walk(make, monkeypatch):
    # w0 keeps its canonical word from the walk that built it; it is the
    # word that stripping descents from w0 finds
    s = make()
    tables = s.root_tables
    for a in range(s.n_objects):
        w0 = wg.longest_element(s, a)
        cols = tuple(map(tables.index[w0.target].__getitem__, zip(*w0.matrix)))
        walked = groupoid_module._stripped_letters(s, a, w0.target, cols)
        assert wg.canonical_reduced_word(s, w0) == Word(a, walked)
        assert wg.length(s, w0) == len(walked) == len(s.positive_roots[a])
    # and no query of a fresh w0 strips it again
    walks = []
    stripped_letters = groupoid_module._stripped_letters
    monkeypatch.setattr(
        groupoid_module, "_stripped_letters", lambda *args: walks.append(args) or stripped_letters(*args)
    )
    t = make()
    for a in range(t.n_objects):
        w0 = wg.longest_element(t, a)
        assert wg.length(t, w0) == len(t.positive_roots[a])
        assert len(wg.canonical_reduced_word(t, w0)) == len(t.positive_roots[a])
    assert walks == []
    # the counter counts: an evaluated word of w0 is walked once
    g = wg.element_of_word(t, wg.canonical_reduced_word(t, wg.longest_element(t, 0)))
    assert wg.length(t, g) == len(t.positive_roots[0]) and len(walks) == 1


def test_enumerate_is_bounded_on_inconsistent_roots(affine_file):
    # the infinite dihedral group has elements of every length; the root
    # tables refuse the file before the search starts
    aff = wg.load_scheme(affine_file.read_text(encoding="utf-8"))
    with pytest.raises(wg.InconsistentSchemeError, match=AFFINE_AXIOM_5):
        wg.enumerate_elements(aff)


@pytest.fixture
def a2_swapped():
    """A2 at two objects that generator 2 swaps and generator 1 fixes.

    Axioms 1-6 hold; axiom 7 fails (theta 2 does not divide count 3), so
    the root tables refuse it, and (1 2)^3 is the identity matrix from a
    to b.
    """
    s = wg.RootGroupoidScheme(
        rank=2, objects=("a", "b"), action=((0, 1), (1, 0)),
        coefficients=(((-1, 1),) * 2, ((1, -1),) * 2), mode=wg.GENERATED,
    )
    return wg.generate_roots(s, 10)


A2_SWAPPED_AXIOM_7 = re.escape(
    "axiom 7 FAIL (generators 1,2 at object a: theta 2 does not divide count 3)"
)


def _past_the_gate(s):
    """A copy of s that holds root tables although an axiom other than 2, 3
    and 5 fails, so that the guards behind the gate can be reached."""
    t = dataclasses.replace(s)
    vars(t)["root_tables"] = _checked(t)[1]
    return t


@pytest.mark.parametrize("call", [
    lambda s: wg.longest_element(s, A),
    wg.enumerate_elements,
    lambda s: wg.canonical_reduced_word(s, wg.element_of_word(s, Word(A, (0, 1) * 3))),
], ids=["longest_element", "enumerate_elements", "canonical_reduced_word"])
def test_root_tables_refuse_axiom_7_failures(a2_swapped, call):
    # longest_element used to answer: 1 2 1, from a to b
    with pytest.raises(wg.InconsistentSchemeError, match=A2_SWAPPED_AXIOM_7):
        call(a2_swapped)


def test_enumerate_is_bounded_when_only_axiom_7_fails(a2_swapped):
    assert [r.axiom for r in wg.validate(a2_swapped).results if not r.passed] == [7]
    # the identity matrix from a to b is first reached at length 6
    with pytest.raises(
        wg.InconsistentSchemeError,
        match="elements of length 4 found, more than the 3 positive roots",
    ):
        wg.enumerate_elements(_past_the_gate(a2_swapped))


def test_canonical_word_rejects_identity_between_objects(a2_swapped):
    s = _past_the_gate(a2_swapped)
    g = wg.element_of_word(s, Word(A, (0, 1) * 3))
    assert (g.source, g.target, g.matrix) == (A, B, identity_matrix(2))
    with pytest.raises(ValueError, match="identity matrix between distinct objects"):
        wg.canonical_reduced_word(s, g)


def test_enumerate_rank_one(rank1):
    els = wg.enumerate_elements(rank1)
    assert len(els) == 2


def test_enumerate_a2(a2):
    assert len(wg.enumerate_elements(a2)) == 6


def test_enumerate_example_counts(ex5):
    els = wg.enumerate_elements(ex5)
    assert len(els) == 300  # regression value from breadth-first closure
    from_a = wg.enumerate_elements(ex5, A)
    assert len(from_a) == 60  # regression value
    assert max(wg.length(ex5, g) for g in from_a) == 10
    assert all(g.source == A for g in from_a)


def test_enumerate_sorted_and_deterministic(ex5):
    els = wg.enumerate_elements(ex5)
    assert els == wg.enumerate_elements(ex5)
    lengths = [wg.length(ex5, g) for g in els]
    assert lengths == sorted(lengths)


def test_elements_permute_root_sets(ex5):
    from weylgroupoid.intmat import mat_vec, neg

    def root_set(a):
        return {*ex5.positive_roots[a], *map(neg, ex5.positive_roots[a])}

    for g in wg.enumerate_elements(ex5):
        assert {mat_vec(g.matrix, r) for r in root_set(g.source)} == root_set(g.target)


def test_enumerate_closed_under_generators_and_inverse(ex5):
    els = set(wg.enumerate_elements(ex5))
    for g in els:
        assert wg.inverse(g) in els
        for j in range(3):
            h = wg.compose(g, generator_element(ex5, j, wg.act(ex5, j, g.source)))
            assert h in els


# ---------------------------------------------------------------------------
# relation words


def test_c_element_shapes(ex5):
    # orthogonal pair: single letter
    assert wg.c_element(ex5, 0, 2, A) == Word(A, (0,))
    # the (2,3) pair at a has a four-term relation: three letters
    assert wg.c_element(ex5, 1, 2, A) == Word(A, (1, 2, 1))


def test_c_element_commutation_rule(ex5):
    # s_i C_{j,i;a} equals C_{j,i} at the shifted object times a single
    # generator, with the shift and the trailing letter set by parity
    for a in range(5):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                m = wg.rank_two_count(ex5, j, i, a)
                c = wg.element_of_word(ex5, wg.c_element(ex5, j, i, a))
                lhs = wg.compose(generator_element(ex5, i, c.target), c)
                if m % 2 == 1:
                    rhs = wg.compose(
                        wg.element_of_word(ex5, wg.c_element(ex5, j, i, wg.act(ex5, j, a))),
                        generator_element(ex5, j, a),
                    )
                else:
                    rhs = wg.compose(
                        wg.element_of_word(ex5, wg.c_element(ex5, j, i, wg.act(ex5, i, a))),
                        generator_element(ex5, i, a),
                    )
                assert not lhs.is_zero
                assert lhs == rhs


def test_c_element_rejects_equal_generators(ex5):
    with pytest.raises(ValueError):
        wg.c_element(ex5, 1, 1, A)


# ---------------------------------------------------------------------------
# equality through the representation


def test_equal_words_from_relations(ex5):
    assert wg.element_of_word(ex5, Word(A, (0, 1, 0))) == wg.element_of_word(
        ex5, Word(A, (1, 0, 1))
    )
    assert wg.element_of_word(ex5, Word(A, (0, 2))) == wg.element_of_word(
        ex5, Word(A, (2, 0))
    )


def test_unequal_longest_words(ex5):
    g = wg.element_of_word(ex5, LONGEST_A)
    h = wg.element_of_word(ex5, Word(A, (1, 0, 2, 1, 2, 0, 2, 1, 0, 2)))
    assert g != h
    assert g.target != h.target


def test_all_rank_two_relations_hold(ex5):
    # both alternating words of the relation length evaluate equally
    for a in range(5):
        for i, j in itertools.combinations(range(3), 2):
            m = wg.rank_two_count(ex5, i, j, a)
            side_i = tuple(i if t % 2 == (m - 1) % 2 else j for t in range(m))
            side_j = tuple(j if t % 2 == (m - 1) % 2 else i for t in range(m))
            assert wg.element_of_word(ex5, Word(a, side_i)) == wg.element_of_word(
                ex5, Word(a, side_j)
            )


# ---------------------------------------------------------------------------
# elements that keep their root indices


def _dot_product_length(s, g):
    """Positive roots of g's source sent to negative roots, by dot products:
    roots are sign coherent, so the sign of h.beta decides, h the heights
    of g's columns."""
    h = [sum(col) for col in zip(*g.matrix)]
    return sum(1 for r in s.positive_roots[g.source] if sum(map(operator.mul, h, r)) < 0)


KEPT_INDEX_SCHEMES = {
    "EX": wg.rank3_example,
    "BI3": LONGEST_SCHEMES["BI3"],
    "BI4": LONGEST_SCHEMES["BI4"],
    "B3": lambda: wg.generate_roots(wg.from_cartan(_chain(3, {(1, 2): (-1, -2)})), 30),
    "G2": lambda: wg.generate_roots(wg.from_cartan(((2, -1), (-3, 2))), 30),
}


@pytest.mark.parametrize("make", KEPT_INDEX_SCHEMES.values(), ids=KEPT_INDEX_SCHEMES)
def test_hand_built_elements_answer_as_evaluated_words(make):
    # enumeration attaches no indices, so each query on a hand-built copy
    # looks them up; the evaluated canonical word carries its own
    s = make()
    for g in wg.enumerate_elements(s):
        assert "_indices" not in vars(g)
        copy_ = wg.GroupoidElement(g.source, g.target, g.matrix)
        w = wg.canonical_reduced_word(s, copy_)
        e = wg.element_of_word(s, w)
        assert vars(e)["_indices"][0] is s.root_tables
        assert e == copy_
        assert wg.length(s, copy_) == wg.length(s, e) == len(w) == _dot_product_length(s, g)
        descents = [j for j in range(s.rank) if wg.is_descent(s, copy_, j)]
        assert descents == [j for j in range(s.rank) if wg.is_descent(s, e, j)]
        assert wg.canonical_reduced_word(s, e) == w


def test_length_of_e8_longest_element():
    e8 = wg.generate_roots(wg.from_cartan(_chain(8, {(6, 7): (0, 0), (2, 7): (-1, -1)})), 30)
    w0 = wg.longest_element(e8, 0)
    assert wg.length(e8, w0) == 120 == _dot_product_length(e8, w0)
    assert all(wg.is_descent(e8, w0, j) for j in range(8))


def test_length_agrees_with_dot_products_on_random_words(ex5):
    rng = random.Random(67)
    for _ in range(200):
        letters = tuple(rng.randrange(3) for _ in range(rng.randint(0, 14)))
        g = wg.element_of_word(ex5, Word(rng.randrange(5), letters))
        assert wg.length(ex5, g) == _dot_product_length(ex5, g)


def test_element_asked_of_an_equal_scheme_is_looked_up_again(ex5):
    t = dataclasses.replace(ex5)
    assert t == ex5 and t.root_tables is not ex5.root_tables
    for letters in ((), (1, 2, 1, 2), LONGEST_A.letters, (0, 2, 1, 0, 1)):
        g = wg.element_of_word(ex5, Word(A, letters))
        answers = (
            wg.length(ex5, g),
            [wg.is_descent(ex5, g, j) for j in range(3)],
            wg.canonical_reduced_word(ex5, g),
        )
        assert vars(g)["_indices"][0] is ex5.root_tables
        assert answers == (
            wg.length(t, g),
            [wg.is_descent(t, g, j) for j in range(3)],
            wg.canonical_reduced_word(t, g),
        )
        assert vars(g)["_indices"][0] is t.root_tables
    w0 = wg.longest_element(ex5, B)
    assert wg.length(t, w0) == wg.length(ex5, w0) == 10


def test_kept_indices_are_outside_the_fields(ex5):
    g = wg.element_of_word(ex5, LONGEST_A)
    assert wg.length(ex5, g) == 10  # fills the walk's memo too
    bare = wg.GroupoidElement(g.source, g.target, g.matrix)
    assert vars(g)["_indices"][2] is not None and "_indices" not in vars(bare)
    assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
    assert dataclasses.fields(g) == dataclasses.fields(bare)
    replaced = dataclasses.replace(g)
    assert replaced == g and "_indices" not in vars(replaced)
    for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and hash(copied) == hash(g) and repr(copied) == repr(g)
        assert "_indices" not in vars(copied)
        assert wg.canonical_reduced_word(ex5, copied) == wg.canonical_reduced_word(ex5, g)


NOT_ROOTS = "matrix columns are not roots of its target; not a groupoid element"
WALK_LEAVES = "not a groupoid element: the descent walk leaves the roots of its target"


@pytest.mark.parametrize("call", [
    wg.length, lambda s, g: wg.is_descent(s, g, 0),
], ids=["length", "is_descent"])
def test_queries_refuse_columns_that_are_not_roots(ex5, call):
    # twice the first simple root is not a root of a; length used to be 0
    g = wg.GroupoidElement(A, A, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match=f"^{re.escape(NOT_ROOTS)}$"):
        call(ex5, g)


def test_length_refuses_a_matrix_whose_walk_leaves_the_roots(ex5):
    # the columns -alpha1, alpha2 and alpha3 are roots of a; length used to be 1
    g = wg.GroupoidElement(A, A, ((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match=f"^{re.escape(WALK_LEAVES)}$"):
        wg.length(ex5, g)
    # is_descent reads only the sign of column 0 and makes no walk
    assert wg.is_descent(ex5, g, 0)
    assert not wg.is_descent(ex5, g, 1)


# ---------------------------------------------------------------------------
# words evaluated two letters per step


PAIR_SCHEMES = {name: W0_SCHEMES[name] for name in ("EX", "BI3", "BI4", "E8")}


@pytest.mark.parametrize("make", PAIR_SCHEMES.values(), ids=PAIR_SCHEMES)
def test_words_of_every_parity_match_the_dense_product(make):
    s = make()
    tables = s.root_tables
    rng = random.Random(31)
    for n in range(42):
        for base in rng.sample(range(s.n_objects), min(2, s.n_objects)):
            letters = tuple(rng.randrange(s.rank) for _ in range(n))
            path, cols = _word_columns(s, letters, base)
            assert path == word_path(s, letters, base)
            m = identity_matrix(s.rank)
            for i, a in zip(reversed(letters), reversed(path[1:])):
                m = mat_mul(reflection_matrix(s, i, a), m)
            assert tuple(map(tables.roots[path[0]].__getitem__, cols)) == tuple(zip(*m))


@pytest.mark.parametrize("make", PAIR_SCHEMES.values(), ids=PAIR_SCHEMES)
def test_pair_table_composes_two_reflections(make):
    s = make()
    tables = s.root_tables
    sigma = tables.sigma
    for i, j, a in itertools.product(range(s.rank), range(s.rank), range(s.n_objects)):
        b = s.action[j][a]
        size = len(s.positive_roots[a])
        pair = tables.pairs[i][j][a]
        assert len(pair) == 2 * size
        assert all(pair[k] == sigma[i][b][sigma[j][a][k]] for k in range(-size, size))


@pytest.mark.parametrize("make", PAIR_SCHEMES.values(), ids=PAIR_SCHEMES)
def test_pair_table_is_built_by_the_first_word_of_two_letters(make):
    s = make()
    # validation and the walks read no word, so they build no pair table
    assert wg.validate(s).passed
    wg.length(s, wg.longest_element(s, 0))
    assert "pairs" not in vars(s.root_tables)
    wg.element_of_word(s, Word(0, (0,)))
    assert "pairs" not in vars(s.root_tables)
    wg.element_of_word(s, Word(0, (0, 1)))
    pairs = vars(s.root_tables)["pairs"]
    # an equal copy builds its own tables, and no pair table with them
    t = dataclasses.replace(s)
    assert t == s and hash(t) == hash(s) and "root_tables" not in vars(t)
    assert "pairs" not in vars(t.root_tables)
    assert t.root_tables.pairs == pairs and t.root_tables.pairs is not pairs


def test_validate_keeps_the_tables_it_finds(ex5):
    s = dataclasses.replace(ex5)
    g = wg.element_of_word(s, LONGEST_A)
    tables = s.root_tables
    assert "pairs" in vars(tables)
    assert wg.validate(s).passed
    assert s.root_tables is tables and "pairs" in vars(tables)
    assert vars(g)["_indices"][0] is s.root_tables


# ---------------------------------------------------------------------------
# inverse and compose on the root tables


def _dense(g):
    """g's inverse by integer row operations."""
    return wg.GroupoidElement(g.target, g.source, mat_inverse(g.matrix))


def _product(g, h):
    """g after h by matrix multiplication."""
    return wg.GroupoidElement(h.source, g.target, mat_mul(g.matrix, h.matrix))


@pytest.mark.parametrize("make", PAIR_SCHEMES.values(), ids=PAIR_SCHEMES)
def test_inverse_and_compose_match_the_dense_kernels(make):
    s = make()
    rng = random.Random(43)
    for n in range(42):
        for walked in (False, True):
            h = wg.element_of_word(s, Word(rng.randrange(s.n_objects),
                                           tuple(rng.randrange(s.rank) for _ in range(n))))
            g = wg.element_of_word(s, Word(h.target,
                                           tuple(rng.randrange(s.rank) for _ in range(n))))
            if walked:  # the canonical word is the one carried
                wg.length(s, g)
            inv = wg.inverse(g)
            assert inv == _dense(g)
            entry = vars(inv)["_indices"]
            assert entry[0] is s.root_tables and entry[2] is None
            carried = vars(g)["_indices"][2 if walked else 3]
            assert entry[3] == carried[::-1]
            assert wg.inverse(inv) == g
            assert wg.length(s, inv) == wg.length(s, g)
            gh = wg.compose(g, h)
            assert gh == _product(g, h)
            # the product keeps its columns but no word
            assert vars(gh)["_indices"][0] is s.root_tables
            assert vars(gh)["_indices"][2:] == [None, None]
            e = wg.compose(g, inv)
            assert e == identity_element(s, g.target)
            assert wg.compose(inv, g) == identity_element(s, g.source)


@pytest.mark.parametrize("make", PAIR_SCHEMES.values(), ids=PAIR_SCHEMES)
def test_inverse_of_the_longest_element_reverses_its_walk(make):
    s = make()
    for a in range(s.n_objects):
        w0 = wg.longest_element(s, a)
        letters = vars(w0)["_indices"][2]
        inv = wg.inverse(w0)
        # w0's matrix is a negated permutation, so its inverse is its transpose
        assert inv == _dense(w0) == wg.GroupoidElement(w0.target, a, transpose(w0.matrix))
        assert vars(inv)["_indices"][3] == letters[::-1]
        assert wg.length(s, inv) == len(letters)
        assert wg.compose(w0, inv) == identity_element(s, w0.target)


def test_copies_and_other_tables_fall_back_to_the_dense_kernels(ex5):
    rng = random.Random(47)
    t = dataclasses.replace(ex5)
    for _ in range(30):
        h = wg.element_of_word(ex5, Word(rng.randrange(5),
                                         tuple(rng.randrange(3) for _ in range(rng.randint(0, 12)))))
        g = wg.element_of_word(ex5, Word(h.target,
                                         tuple(rng.randrange(3) for _ in range(rng.randint(0, 12)))))
        for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            # a copy keeps no word, so it is inverted and multiplied as a matrix
            inv = wg.inverse(copied)
            assert inv == _dense(g) and "_indices" not in vars(inv)
            gh = wg.compose(copied, h)
            assert gh == _product(g, h) and "_indices" not in vars(gh)
        # a right factor evaluated on an equal scheme has other tables
        h_t = wg.element_of_word(t, Word(h.source, vars(h)["_indices"][3]))
        assert h_t == h
        gh = wg.compose(g, h_t)
        assert gh == _product(g, h) and "_indices" not in vars(gh)


def test_elements_built_from_matrices_keep_the_dense_kernels(ex5):
    m = wg.element_of_word(ex5, LONGEST_A)
    built = wg.GroupoidElement(m.source, m.target, m.matrix)
    inv = wg.inverse(built)
    assert inv == _dense(m) and "_indices" not in vars(inv)
    # once walked, its canonical word is kept and carried
    assert wg.length(ex5, built) == 10
    inv = wg.inverse(built)
    assert inv == _dense(m) and vars(inv)["_indices"][3] == vars(built)["_indices"][2][::-1]
    # a matrix that is no element is refused as mat_inverse refuses it
    doubled = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError) as dense_error:
        mat_inverse(doubled)
    with pytest.raises(ValueError, match=f"^{re.escape(str(dense_error.value))}$"):
        wg.inverse(wg.GroupoidElement(A, A, doubled))
    # the shape checks come before any kept word is read
    small = wg.GroupoidElement(m.source, m.source, identity_matrix(2))
    with pytest.raises(ValueError, match="^element matrices are not square of one size$"):
        wg.compose(m, small)
    with pytest.raises(ValueError, match="^element matrices are not square of one size$"):
        wg.compose(wg.GroupoidElement(m.target, m.target, identity_matrix(2)), m)

def _q_integer_product(degrees):
    """The coefficients of the product of [d]_q = 1 + q + ... + q^(d-1)."""
    coefficients = [1]
    for d in degrees:
        out = [0] * (len(coefficients) + d - 1)
        for k, c in enumerate(coefficients):
            for e in range(d):
                out[k + e] += c
        coefficients = out
    return coefficients


# the degrees of the basic invariants (Humphreys, Reflection Groups and
# Coxeter Groups, Table 3.1)
DEGREES = {
    "A4": (2, 3, 4, 5),
    "B4": (2, 4, 6, 8),
    "D5": (2, 4, 5, 6, 8),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
}


@pytest.mark.parametrize("name", DEGREES)
def test_level_widths_are_the_poincare_polynomial(name):
    # the number of elements of each length in a Weyl group is the
    # coefficient of its Poincare polynomial, the product of [d_i]_q
    s = LONGEST_SCHEMES[name]()
    widths = [len(level) for level in _levels(s, 0)]
    assert widths == _q_integer_product(DEGREES[name])


@pytest.mark.parametrize("name", ["EX", "BI3", "BI4"])
def test_level_widths_are_palindromic_at_every_object(name):
    # w -> w0 w maps the elements of length l from a onto those of length
    # |Phi+(a)| - l, and every object has as many elements leaving it
    s = LONGEST_SCHEMES[name]()
    totals = set()
    for a in range(s.n_objects):
        widths = [len(level) for level in _levels(s, a)]
        assert len(widths) == len(s.positive_roots[a]) + 1
        assert widths == widths[::-1]
        totals.add(sum(widths))
    assert len(totals) == 1
