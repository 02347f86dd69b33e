import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from weylgroupoid.constructors import (
    NotArithmeticError,
    _coefficient,
    basis_fingerprint,
    from_bicharacter,
    from_cartan,
    schemes_isomorphic,
)

A2 = ((2, -1), (-1, 2))


# ---------------------------------------------------------------------------
# Cartan constructors


def test_from_cartan_shape():
    s = from_cartan(A2)
    assert s.rank == 2
    assert s.n_objects == 1
    assert s.mode == wg.GENERATED
    assert s.coefficients == (((-1, 1),), ((1, -1),))


def test_from_cartan_rank_one():
    s = wg.generate_roots(from_cartan(((2,),)), 5)
    assert s.rank == 1
    assert s.positive_roots == (((1,),),)


def test_from_cartan_counts(a2, b2, g2):
    for s, n_roots, n_elements in ((a2, 3, 6), (b2, 4, 8), (g2, 6, 12)):
        assert s.status == wg.FINITE
        assert len(s.positive_roots[0]) == n_roots
        assert len(wg.enumerate_elements(s)) == n_elements
        assert wg.validate(s).passed


def test_from_cartan_rejects_bad_matrices():
    with pytest.raises(ValueError, match="diagonal"):
        from_cartan(((1, 0), (0, 2)))
    with pytest.raises(ValueError, match="nonpositive"):
        from_cartan(((2, 1), (-1, 2)))
    with pytest.raises(ValueError, match="vanish together"):
        from_cartan(((2, 0), (-1, 2)))
    with pytest.raises(ValueError, match="square"):
        from_cartan(((2, -1),))


# ---------------------------------------------------------------------------
# bicharacter constructors


def test_generic_cartan_exponents_give_one_object():
    s = from_bicharacter(A2, 10, None)
    assert s.n_objects == 1
    assert schemes_isomorphic(s, from_cartan(A2))


def test_generic_matches_cartan_after_generation():
    s = wg.generate_roots(from_bicharacter(A2, 10, None), 20)
    assert s.status == wg.FINITE
    assert len(s.positive_roots[0]) == 3


def test_degenerate_diagonal_rejected():
    # exponent 2 at order 2 means the diagonal value is 1
    with pytest.raises(NotArithmeticError, match="diagonal"):
        from_bicharacter(((2, 1), (0, 1)), 10, 2)


def test_generic_not_arithmetic():
    # no nonnegative integer m solves 2m = 1
    with pytest.raises(NotArithmeticError, match="not arithmetic"):
        from_bicharacter(((2, -1), (0, 2)), 10, None)


def test_object_cutoff_enforced():
    with pytest.raises(ValueError, match="cutoff"):
        from_bicharacter(((2, 1), (0, 2)), 2, 4)


def test_order_four_multi_object_regression():
    # frozen breadth-first closure: three inequivalent objects
    s = from_bicharacter(((2, 1), (0, 2)), 10, 4)
    assert s.n_objects == 3
    assert s.action == ((1, 0, 2), (2, 1, 0))
    assert s.coefficients == (
        ((-1, 1), (-1, 1), (-1, 1)),
        ((1, -1), (1, -1), (1, -1)),
    )
    full = wg.generate_roots(s, 10)
    assert full.status == wg.FINITE
    assert [len(p) for p in full.positive_roots] == [3, 3, 3]
    assert wg.validate(full).passed
    assert len(wg.enumerate_elements(full)) == 18


def test_order_six_input_reproduces_bundled_example(ex5):
    # found by exhaustive search over small orders: a sixth root of unity
    # with these exponents drives the same five-object scheme
    s = from_bicharacter(((3, 4, 0), (0, 1, 4), (0, 0, 3)), 8, 6)
    assert s.n_objects == 5
    assert schemes_isomorphic(s, wg.strip_roots(ex5))
    full = wg.generate_roots(s, 10)
    assert full.status == wg.FINITE
    assert all(len(pos) == 10 for pos in full.positive_roots)
    assert wg.validate(full).passed


def _coefficient_by_scan(d, s, order):
    # the definition: the smallest m >= 0 meeting either condition
    for m in range(order):
        if ((m + 1) * d) % order == 0 or (m * d + s) % order == 0:
            return m
    return None


def test_coefficient_closed_form_matches_scan():
    for order in range(1, 25):
        for d in range(-order, 2 * order):
            for s in range(-order, 2 * order):
                assert _coefficient(d, s, order) == _coefficient_by_scan(d, s, order), (d, s, order)


def test_large_order_is_fast():
    start = time.perf_counter()
    s = from_bicharacter(((2, 1), (0, 2)), 10, 10**8 + 1)
    assert time.perf_counter() - start < 5
    assert s.n_objects == 1
    assert s.coefficients == (((-1, 5 * 10**7),), ((5 * 10**7, -1),))


@st.composite
def _bicharacters(draw):
    # positive diagonals keep the start object arithmetic more often
    n = draw(st.integers(2, 3))
    order = draw(st.none() | st.integers(2, 12))
    exponents = [
        [draw(st.integers(1, 6) if i == j else st.integers(-6, 6)) for j in range(n)]
        for i in range(n)
    ]
    return exponents, order


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=_bicharacters())
def test_bicharacter_schemes_are_well_formed(case):
    exponents, order = case
    try:
        s = from_bicharacter(exponents, 8, order)
    except ValueError:  # not arithmetic, or more than 8 objects
        return
    assert all(s.action[i][s.action[i][a]] == a for i in range(s.rank) for a in range(s.n_objects))
    assert wg.load_scheme(wg.save_scheme(s)) == s
    full = wg.generate_roots(s, 30)
    if full.status == wg.FINITE:
        assert wg.validate(full).passed


def test_fingerprint_is_permutation_sensitive_but_stable():
    fp = basis_fingerprint((2, 3), (1,), 5)
    assert fp == basis_fingerprint((2, 3), (1,), 5)
    assert fp == ((2, 3), (1,))
    assert basis_fingerprint((7, 3), (6,), 5) == ((2, 3), (1,))


# ---------------------------------------------------------------------------
# isomorphism helper and the bundled example


def test_schemes_isomorphic_detects_relabeling(ex5):
    relabeled = wg.RootGroupoidScheme(
        rank=ex5.rank,
        objects=tuple(reversed(ex5.objects)),
        action=tuple(
            tuple(4 - row[4 - a] for a in range(5)) for row in ex5.action
        ),
        coefficients=tuple(
            tuple(per[4 - a] for a in range(5)) for per in ex5.coefficients
        ),
        mode=wg.GENERATED,
    )
    assert schemes_isomorphic(wg.strip_roots(ex5), relabeled)


def test_schemes_isomorphic_rejects_different_tables(a2, b2):
    assert not schemes_isomorphic(a2, b2)


def test_example_basics(ex5):
    assert ex5.n_objects == 5
    assert ex5.rank == 3
    assert all(len(pos) == 10 for pos in ex5.positive_roots)
    # the generator-2 reflection at b adds twice alpha_2 to alpha_1
    assert ex5.coefficients[1][1][0] == 2
    assert wg.validate(ex5).passed
