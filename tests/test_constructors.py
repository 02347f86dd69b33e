import dataclasses
import itertools
import random
import re
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
from weylgroupoid.intmat import mat_mul, transpose
from weylgroupoid.scheme import reflection_from_coefficients

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


@pytest.mark.parametrize(
    "cutoff, order, message",
    [
        ("3", 4, "object cutoff must be an integer, got '3'"),
        (True, 4, "object cutoff must be an integer, got True"),
        (2.5, None, "object cutoff must be an integer, got 2.5"),
        (8, 2.5, "order must be None or an integer, got 2.5"),
        (8, True, "order must be None or an integer, got True"),
        (8, "4", "order must be None or an integer, got '4'"),
    ],
    ids=["cutoff-str", "cutoff-bool", "cutoff-float", "order-float", "order-bool", "order-str"],
)
def test_from_bicharacter_refuses_a_cutoff_or_order_that_is_no_int(cutoff, order, message, monkeypatch):
    def no_discovery(*args):
        raise AssertionError("discovered an object")

    monkeypatch.setattr(wg.constructors, "basis_fingerprint", no_discovery)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_bicharacter(((2, 1), (0, 2)), cutoff, order)


@pytest.mark.parametrize(
    "exponents, message",
    [
        (((2.5, 1), (0, 2)), "exponent entry [0][0] must be an integer, got 2.5"),
        ((("2", 1), (0, 2)), "exponent entry [0][0] must be an integer, got '2'"),
        (((True, 1), (0, 2)), "exponent entry [0][0] must be an integer, got True"),
        (((2, 1), (0.0, 2)), "exponent entry [1][0] must be an integer, got 0.0"),
    ],
    ids=["float", "str", "bool", "off-diagonal-float"],
)
def test_from_bicharacter_refuses_an_exponent_that_is_no_int(exponents, message, monkeypatch):
    def no_discovery(*args):
        raise AssertionError("discovered an object")

    monkeypatch.setattr(wg.constructors, "basis_fingerprint", no_discovery)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_bicharacter(exponents, 8, 4)


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


def _dense_from_bicharacter(exponents, cutoff, order):
    """from_bicharacter with each target exponent matrix S^T B S formed by
    two dense products with the reflection matrix S, kept as the oracle."""
    n = len(exponents)

    def reduced(b):
        return b if order is None else tuple(tuple(x % order for x in row) for row in b)

    def fingerprint(b):
        sym = [b[i][j] + b[j][i] for i in range(n) for j in range(i + 1, n)]
        return basis_fingerprint([b[i][i] for i in range(n)], sym, order)

    def check_diag(fp, label):
        for i, d in enumerate(fp[0]):
            if d == 0:
                raise NotArithmeticError(
                    f"diagonal exponent of index {i + 1} is trivial at object {label}"
                )

    bases = [reduced(tuple(map(tuple, exponents)))]
    check_diag(fingerprint(bases[0]), "0")
    index_of = {fingerprint(bases[0]): 0}
    action = [[] for _ in range(n)]
    coefficients = [[] for _ in range(n)]
    for pos, b in enumerate(bases):  # grows while walked
        for i in range(n):
            coeff = []
            for j in range(n):
                m = -1 if j == i else _coefficient(b[i][i], b[i][j] + b[j][i], order)
                if m is None:
                    raise NotArithmeticError(
                        f"not arithmetic at object {pos}, generator {i + 1}, index {j + 1}"
                    )
                coeff.append(m)
            refl = reflection_from_coefficients(i, coeff)
            target = reduced(mat_mul(transpose(refl), mat_mul(b, refl)))
            fp = fingerprint(target)
            if fp not in index_of:
                check_diag(fp, str(len(bases)))
                if len(bases) == cutoff:
                    raise ValueError(f"object cutoff {cutoff} exceeded")
                index_of[fp] = len(bases)
                bases.append(target)
            action[i].append(index_of[fp])
            coefficients[i].append(tuple(coeff))
    return wg.RootGroupoidScheme(
        rank=n,
        objects=tuple(str(k) for k in range(len(bases))),
        action=tuple(map(tuple, action)),
        coefficients=tuple(map(tuple, coefficients)),
        mode=wg.GENERATED,
    )


@st.composite
def _exponent_matrices(draw):
    """Rank 2-4 exponent matrices at generic, small and large orders."""
    n = draw(st.integers(2, 4))
    order = draw(st.none() | st.integers(2, 12) | st.integers(1000, 10000))
    top = 7 if order is None else order
    exponents = tuple(
        tuple(
            draw(st.integers(1, top - 1) if i == j else st.integers(-top + 1, top - 1) | st.just(0))
            for j in range(n)
        )
        for i in range(n)
    )
    return exponents, order


def _built(build, exponents, order, cutoff=12):
    try:
        return build(exponents, cutoff, order)
    except ValueError as e:
        return type(e), str(e)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=_exponent_matrices())
def test_from_bicharacter_matches_dense_products(case):
    exponents, order = case
    assert _built(from_bicharacter, exponents, order) == _built(
        _dense_from_bicharacter, exponents, order
    )


@pytest.mark.parametrize("exponents, order", [
    (((3, 2, 0), (0, 3, 2), (0, 0, 3)), 6),  # BI3
    (((2, 2, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 0, 3)), 4),  # BI4
    (A2, None),
], ids=["BI3", "BI4", "A2"])
def test_from_bicharacter_matches_dense_products_at_every_object_cutoff(exponents, order):
    n_objects = from_bicharacter(exponents, 12, order).n_objects
    for cutoff in range(1, n_objects + 2):
        built = _built(from_bicharacter, exponents, order, cutoff)
        assert built == _built(_dense_from_bicharacter, exponents, order, cutoff)
        if cutoff < n_objects:
            assert built == (ValueError, f"object cutoff {cutoff} exceeded")
        else:
            assert built.n_objects == n_objects


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


def _isomorphic_by_brute_force(s1, s2):
    """Whether some object bijection carries the action and coefficient
    tables of s1 onto s2's."""
    if (s1.rank, s1.n_objects) != (s2.rank, s2.n_objects):
        return False
    return any(
        all(
            s2.action[i][p[a]] == p[s1.action[i][a]]
            and s2.coefficients[i][p[a]] == s1.coefficients[i][a]
            for i in range(s1.rank)
            for a in range(s1.n_objects)
        )
        for p in itertools.permutations(range(s1.n_objects))
    )


def _renamed(s, p):
    """s with object a renamed p[a] (tables only: s stores no roots)."""
    inv = sorted(range(s.n_objects), key=p.__getitem__)
    return dataclasses.replace(
        s,
        objects=tuple(s.objects[a] for a in inv),
        action=tuple(tuple(p[row[a]] for a in inv) for row in s.action),
        coefficients=tuple(tuple(per[a] for a in inv) for per in s.coefficients),
    )


def _with_coefficient_changed(s, i, a, j):
    coefficients = [[list(vec) for vec in per] for per in s.coefficients]
    coefficients[i][a][j] += 1
    return dataclasses.replace(s, coefficients=tuple(tuple(map(tuple, per)) for per in coefficients))


def _with_action_pair_changed(s, i, a):
    """s where generator i fixes a and its partner if it moves a, and
    otherwise swaps a with the next object it fixes (None if there is none)."""
    row = list(s.action[i])
    b = row[a]
    if b == a:
        b = next((c for c in range(a + 1, s.n_objects) if row[c] == c), None)
        if b is None:
            return None
        row[a], row[b] = b, a
    else:
        row[a], row[b] = a, b
    action = list(s.action)
    action[i] = tuple(row)
    return dataclasses.replace(s, action=tuple(action))


def _isomorphism_pool():
    a2_coefficients = (((-1, 1),) * 2, ((1, -1),) * 2)
    bases = [
        wg.strip_roots(wg.rank3_example()),
        from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6),  # BI3
        from_bicharacter(((2, 2, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 0, 3)), 12, 4),  # BI4
        # A2 at two objects that generator 2 swaps
        wg.RootGroupoidScheme(2, ("a", "b"), ((0, 1), (1, 0)), a2_coefficients, wg.GENERATED),
        # two disconnected copies of A2
        wg.RootGroupoidScheme(2, ("a", "b"), ((0, 1), (0, 1)), a2_coefficients, wg.GENERATED),
    ]
    rng = random.Random(15)
    pool = []
    for s in bases:
        pool.append(s)
        for _ in range(2):
            p = list(range(s.n_objects))
            rng.shuffle(p)
            copy = _renamed(s, p)
            i, a = rng.randrange(s.rank), rng.randrange(s.n_objects)
            j = rng.choice([k for k in range(s.rank) if k != i])
            pool += [copy, _with_coefficient_changed(copy, i, a, j)]
            changed = _with_action_pair_changed(copy, i, a)
            if changed is not None:
                pool.append(changed)
    return pool


def test_schemes_isomorphic_matches_brute_force():
    pool = _isomorphism_pool()
    verdicts = [[schemes_isomorphic(s1, s2) for s2 in pool] for s1 in pool]
    assert verdicts == [[_isomorphic_by_brute_force(s1, s2) for s2 in pool] for s1 in pool]
    # both verdicts occur among schemes of equal shape
    shapes = [(s.rank, s.n_objects) for s in pool]
    same_shape = [v for row, x in zip(verdicts, shapes) for v, y in zip(row, shapes) if x == y]
    assert True in same_shape and False in same_shape


def test_example_basics(ex5):
    assert ex5.n_objects == 5
    assert ex5.rank == 3
    assert all(len(pos) == 10 for pos in ex5.positive_roots)
    # the generator-2 reflection at b adds twice alpha_2 to alpha_1
    assert ex5.coefficients[1][1][0] == 2
    assert wg.validate(ex5).passed
