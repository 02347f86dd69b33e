import itertools
import random
import re

import pytest

import weylgroupoid as wg
from weylgroupoid import MINUS_INFINITY, ZERO, Word
from weylgroupoid.groupoid import generator_element, identity_element
from weylgroupoid.intmat import identity_matrix

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


# ---------------------------------------------------------------------------
# length and descents


def test_length_basics(ex5):
    assert wg.length(ex5, identity_element(ex5, A)) == 0
    assert wg.length(ex5, ZERO) is MINUS_INFINITY
    g = wg.element_of_word(ex5, Word(A, (1, 2, 1, 2)))
    assert wg.length(ex5, g) == 4
    assert wg.length(ex5, wg.element_of_word(ex5, LONGEST_A)) == 10


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


def test_enumerate_is_bounded_on_inconsistent_roots(affine_file):
    # the infinite dihedral group has elements of every length; the root
    # tables refuse the file before the search starts
    aff = wg.load_scheme(affine_file.read_text(encoding="utf-8"))
    with pytest.raises(wg.InconsistentSchemeError, match=AFFINE_AXIOM_5):
        wg.enumerate_elements(aff)


@pytest.fixture
def a2_swapped():
    """A2 at two objects that generator 2 swaps and generator 1 fixes.

    Axioms 1-6 hold, so the root tables exist; axiom 7 fails (theta 2 does
    not divide count 3), and (1 2)^3 is the identity matrix from a to b.
    """
    s = wg.RootGroupoidScheme(
        rank=2, objects=("a", "b"), action=((0, 1), (1, 0)),
        coefficients=(((-1, 1),) * 2, ((1, -1),) * 2), mode=wg.GENERATED,
    )
    return wg.generate_roots(s, 10)


def test_enumerate_is_bounded_when_only_axiom_7_fails(a2_swapped):
    assert [r.axiom for r in wg.validate(a2_swapped).results if not r.passed] == [7]
    # the identity matrix from a to b is first reached at length 6
    with pytest.raises(
        wg.InconsistentSchemeError,
        match="elements of length 4 found, more than the 3 positive roots",
    ):
        wg.enumerate_elements(a2_swapped)


def test_canonical_word_rejects_identity_between_objects(a2_swapped):
    g = wg.element_of_word(a2_swapped, Word(A, (0, 1) * 3))
    assert (g.source, g.target, g.matrix) == (A, B, identity_matrix(2))
    with pytest.raises(ValueError, match="identity matrix between distinct objects"):
        wg.canonical_reduced_word(a2_swapped, g)


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
    from weylgroupoid.intmat import mat_vec
    from weylgroupoid.scheme import full_root_set

    for g in wg.enumerate_elements(ex5):
        image = {mat_vec(g.matrix, r) for r in full_root_set(ex5, g.source)}
        assert image == full_root_set(ex5, g.target)


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
