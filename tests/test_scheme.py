import dataclasses
import json

import pytest

import weylgroupoid as wg
from weylgroupoid.scheme import AxiomResult, SchemeFormatError

A, B, C, D, E = range(5)


# ---------------------------------------------------------------------------
# file format


def test_load_example_file(ex5):
    loaded = wg.load_scheme(wg.save_scheme(ex5))
    assert loaded.n_objects == 5
    assert loaded.rank == 3
    assert loaded == ex5


def test_save_load_bit_stable(ex5):
    text = wg.save_scheme(ex5)
    assert wg.save_scheme(wg.load_scheme(text)) == text


def test_save_normalizes_root_order(ex5):
    doc = json.loads(wg.save_scheme(ex5))
    doc["roots"][0].reverse()
    loaded = wg.load_scheme(json.dumps(doc))
    assert loaded == ex5


def test_load_rank_one_minimal(rank1):
    assert rank1.rank == 1
    assert rank1.objects == ("a",)
    assert rank1.positive_roots == (((1,),),)


def test_load_rejects_non_involutive_action(ex5):
    doc = json.loads(wg.save_scheme(ex5))
    doc["action"][0][0] = 0  # 1 |> a = a while 1 |> c = a
    with pytest.raises(SchemeFormatError, match="involutive"):
        wg.load_scheme(json.dumps(doc))


def test_load_rejects_duplicate_names(ex5):
    doc = json.loads(wg.save_scheme(ex5))
    doc["objects"][1] = "a"
    with pytest.raises(SchemeFormatError, match="duplicate"):
        wg.load_scheme(json.dumps(doc))


def test_load_rejects_bad_dimensions(ex5):
    doc = json.loads(wg.save_scheme(ex5))
    doc["action"] = doc["action"][:2]
    with pytest.raises(SchemeFormatError, match="action"):
        wg.load_scheme(json.dumps(doc))


def test_load_rejects_garbage():
    with pytest.raises(SchemeFormatError, match="JSON"):
        wg.load_scheme("not json at all {")


def test_load_rejects_negative_coefficient(ex5):
    doc = json.loads(wg.save_scheme(ex5))
    doc["coefficients"][0][0][1] = -2
    with pytest.raises(SchemeFormatError, match="nonnegative"):
        wg.load_scheme(json.dumps(doc))


def test_load_rejects_missing_simple_root(ex5):
    doc = json.loads(wg.save_scheme(ex5))
    doc["roots"][0] = [r for r in doc["roots"][0] if r != [1, 0, 0]]
    with pytest.raises(SchemeFormatError, match="simple root"):
        wg.load_scheme(json.dumps(doc))


# ---------------------------------------------------------------------------
# action and theta


def test_act_table(ex5):
    assert wg.act(ex5, 0, A) == C
    assert wg.act(ex5, 2, A) == B
    assert wg.act(ex5, 1, C) == E
    assert wg.act(ex5, 1, A) == A  # no generator-2 edge at a


def test_act_is_involutive(ex5):
    for i in range(3):
        for a in range(5):
            assert wg.act(ex5, i, wg.act(ex5, i, a)) == a


def test_act_one_object(rank1):
    assert wg.act(rank1, 0, 0) == 0


def test_act_rejects_bad_indices(ex5):
    with pytest.raises(ValueError):
        wg.act(ex5, 3, A)
    with pytest.raises(ValueError):
        wg.act(ex5, -1, A)
    with pytest.raises(ValueError):
        wg.act(ex5, 0, 5)


def test_act_word(ex5):
    assert wg.act_word(ex5, (0, 2), A) == D  # 1 |> (3 |> a) = 1 |> b = d
    assert wg.act_word(ex5, (), A) == A
    for i in range(3):
        for a in range(5):
            assert wg.act_word(ex5, (i, i), a) == a


def test_theta_values(ex5):
    assert wg.theta(ex5, 0, 2, A) == 2
    assert wg.theta(ex5, 0, 1, A) == 3
    assert wg.theta(ex5, 0, 2, E) == 1  # both generators fix e


def test_theta_symmetry_and_invariance(ex5):
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for a in range(5):
                t = wg.theta(ex5, i, j, a)
                assert t == wg.theta(ex5, j, i, a)
                assert t == wg.theta(ex5, i, j, wg.act(ex5, i, a))
                assert t == wg.theta(ex5, i, j, wg.act(ex5, j, a))


def test_theta_rejects_equal_generators(ex5):
    with pytest.raises(ValueError):
        wg.theta(ex5, 1, 1, A)


# ---------------------------------------------------------------------------
# validation


def test_validate_example_passes(ex5):
    report = wg.validate(ex5)
    assert report.passed
    assert report.result(5).checked == 15


def test_validate_rank_one(rank1):
    assert wg.validate(rank1).passed


def test_validate_mutated_root_set_fails_axiom_5(ex5):
    roots = list(ex5.positive_roots)
    roots[A] = tuple(r for r in roots[A] if r != (0, 2, 1))
    mutated = dataclasses.replace(ex5, positive_roots=tuple(roots))
    report = wg.validate(mutated)
    assert not report.passed
    r5 = report.result(5)
    assert not r5.passed
    # first counterexample in ascending (generator, object) order
    assert "generator 1 at object a" in r5.witness
    # the deletion also breaks theta-divisibility of the (2,3) cone at a
    assert not report.result(7).passed


def test_validate_detects_intransitive_action(ex5):
    # two disconnected copies of the one-object rank-1 scheme
    s = wg.load_scheme(
        '{"rank": 1, "objects": ["a", "b"], "action": [[0, 1]],'
        ' "coefficients": [[[-1], [-1]]], "mode": "prescribed",'
        ' "roots": [[[1]], [[1]]]}'
    )
    report = wg.validate(s)
    assert not report.result(1).passed
    assert "not reachable" in report.result(1).witness


def test_validate_detects_sign_incoherence(ex5):
    roots = list(ex5.positive_roots)
    roots[A] = roots[A] + ((1, -1, 0),)
    mutated = dataclasses.replace(ex5, positive_roots=tuple(roots))
    assert not wg.validate(mutated).result(3).passed


def test_validate_detects_simple_root_multiple(ex5):
    roots = list(ex5.positive_roots)
    roots[A] = tuple(sorted(roots[A] + ((2, 0, 0),)))
    mutated = dataclasses.replace(ex5, positive_roots=tuple(roots))
    assert not wg.validate(mutated).result(4).passed


@pytest.mark.parametrize(
    "obj, drop, add, witness",
    [
        (B, (0, 1, 0), (), "object b lacks simple root 2"),
        (C, None, ((0, 0, 0),), "object c stores the zero vector"),
    ],
)
def test_validate_detects_missing_simple_root_or_zero(ex5, obj, drop, add, witness):
    roots = list(ex5.positive_roots)
    roots[obj] = tuple(r for r in roots[obj] if r != drop) + add
    report = wg.validate(dataclasses.replace(ex5, positive_roots=tuple(roots)))
    assert report.result(2) == AxiomResult(2, False, 15, witness)


def test_validate_detects_non_inverse_reflections(ex5):
    coefficients = [list(per_obj) for per_obj in ex5.coefficients]
    coeffs = list(coefficients[1][C])
    coeffs[0] += 1
    coefficients[1][C] = tuple(coeffs)
    mutated = dataclasses.replace(ex5, coefficients=tuple(map(tuple, coefficients)))
    report = wg.validate(mutated)
    assert report.result(6).witness == (
        "generator 2: reflections at c and e do not compose to the identity"
    )
    assert not report.result(6).passed and report.result(6).checked == 15


def test_validate_reports_involutivity_before_reachability():
    # built directly, since load_scheme rejects a non-involutive action:
    # a -> b -> b, and c is reachable from neither
    s = wg.RootGroupoidScheme(
        rank=1, objects=("a", "b", "c"), action=((1, 1, 2),),
        coefficients=(((-1,),) * 3,), mode=wg.PRESCRIBED,
        positive_roots=(((1,),),) * 3, status=wg.FINITE,
    )
    r1 = wg.validate(s).result(1)
    assert r1.witness == "generator 1 is not involutive at object a"
    assert not r1.passed and r1.checked == 3


def test_validate_reports_theta_that_does_not_close(ex5):
    # generator 3 sends a to itself but b to a: the theta recursion of
    # generators 1, 3 at a never closes, which axiom 7 reports
    action = [list(row) for row in ex5.action]
    action[2][A] = A
    mutated = dataclasses.replace(ex5, action=tuple(map(tuple, action)))
    with pytest.raises(RuntimeError, match="did not close"):
        wg.theta(mutated, 0, 2, A)
    report = wg.validate(mutated)
    assert report.result(1).witness == "generator 3 is not involutive at object b"
    assert report.result(7) == AxiomResult(
        7, False, 15, "generators 1,3 at object a: theta recursion does not close"
    )


@pytest.mark.parametrize(
    "name, checked",
    [
        # one per (generator, object) pair, one per stored root for axiom 3,
        # one per (generator pair, object) for axiom 7
        ("example", (15, 15, 50, 15, 15, 15, 15)),
        ("E6", (6, 6, 36, 6, 6, 6, 15)),
        ("bichar-rank-3", (15, 15, 50, 15, 15, 15, 15)),
    ],
)
def test_validate_check_counts(ex5, name, checked):
    report = wg.validate(_table_scheme(name, ex5))
    assert report.passed
    assert tuple(r.checked for r in report.results) == checked


def test_validate_is_deterministic(ex5):
    assert wg.validate(ex5) == wg.validate(ex5)


def test_validate_requires_roots(ex5):
    with pytest.raises(ValueError, match="materialized"):
        wg.validate(wg.strip_roots(ex5))


# ---------------------------------------------------------------------------
# rank-two table


def _cartan(n, bonds):
    """Cartan matrix of rank n; bonds maps (i, j) to (a_ij, a_ji)."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (aij, aji) in bonds.items():
        c[i][j], c[j][i] = aij, aji
    return tuple(tuple(row) for row in c)


def _chain(n):
    return {(k, k + 1): (-1, -1) for k in range(n - 1)}


# name -> (Cartan matrix, number of positive roots)
CARTAN_TYPES = {
    "A4": (_cartan(4, _chain(4)), 10),
    "B4": (_cartan(4, {**_chain(4), (2, 3): (-1, -2)}), 16),
    "D5": (_cartan(5, {**_chain(4), (2, 4): (-1, -1)}), 20),
    "F4": (_cartan(4, {**_chain(4), (1, 2): (-1, -2)}), 24),
    "E6": (_cartan(6, {**_chain(5), (2, 5): (-1, -1)}), 36),
    "G2": (_cartan(2, {(0, 1): (-1, -3)}), 6),
}


def _cartan_scheme(name):
    c, n_pos = CARTAN_TYPES[name]
    s = wg.generate_roots(wg.from_cartan(c), 30)
    assert s.status == wg.FINITE and len(s.positive_roots[0]) == n_pos
    return s


def _brute_force_count(s, i, j, a):
    return sum(
        1
        for r in s.positive_roots[a]
        if all(r[k] == 0 for k in range(s.rank) if k not in (i, j))
    )


def _table_scheme(name, ex5):
    if name == "example":
        return ex5
    if name == "example-zero-vector":
        # hand-built and invalid (axiom 2): the zero vector lies on every pair
        roots = list(ex5.positive_roots)
        roots[A] = roots[A] + ((0, 0, 0),)
        return dataclasses.replace(ex5, positive_roots=tuple(roots))
    if name == "bichar-rank-3":
        # five objects, ten positive roots each
        exponents = ((3, 2, 0), (0, 3, 2), (0, 0, 3))
        return wg.generate_roots(wg.from_bicharacter(exponents, 12, 6), 30)
    if name == "bichar-rank-4":
        # five objects, thirteen positive roots each
        exponents = ((2, 2, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 0, 3))
        return wg.generate_roots(wg.from_bicharacter(exponents, 12, 4), 30)
    return _cartan_scheme(name)


@pytest.mark.parametrize(
    "name", ["example", "example-zero-vector", "bichar-rank-4"] + sorted(CARTAN_TYPES)
)
def test_rank_two_table_matches_brute_force(ex5, name):
    s = _table_scheme(name, ex5)
    assert s.status == wg.FINITE
    for i in range(s.rank):
        for j in range(s.rank):
            for a in range(s.n_objects):
                assert s.rank_two_counts[i][j][a] == _brute_force_count(s, i, j, a)


@pytest.mark.parametrize("name", sorted(CARTAN_TYPES))
def test_rank_two_table_cartan_closed_form(name):
    # m_ij = 2, 3, 4, 6 when a_ij * a_ji = 0, 1, 2, 3
    c = CARTAN_TYPES[name][0]
    s = _cartan_scheme(name)
    for i in range(s.rank):
        for j in range(s.rank):
            if i != j:
                assert s.rank_two_counts[i][j][0] == {0: 2, 1: 3, 2: 4, 3: 6}[c[i][j] * c[j][i]]


def test_rank_two_table_leaves_equality_and_hash(ex5):
    fresh = dataclasses.replace(ex5)
    assert "rank_two_counts" not in vars(fresh)
    ex5.rank_two_counts
    assert "rank_two_counts" in vars(ex5)
    assert fresh == ex5 and hash(fresh) == hash(ex5)
    assert repr(fresh) == repr(ex5)


def test_rank_two_table_rebuilt_on_replace(ex5):
    assert ex5.rank_two_counts[1][2][A] == 4
    roots = list(ex5.positive_roots)
    roots[A] = tuple(r for r in roots[A] if r != (0, 2, 1))
    mutated = dataclasses.replace(ex5, positive_roots=tuple(roots))
    assert mutated.rank_two_counts[1][2][A] == 3
    assert ex5.rank_two_counts[1][2][A] == 4


def test_rank_two_table_requires_roots(ex5):
    with pytest.raises(ValueError, match="materialized"):
        wg.strip_roots(ex5).rank_two_counts


# ---------------------------------------------------------------------------
# restriction


def test_restrict_two_generators(ex5):
    parts = wg.restrict(ex5, (0, 2))
    assert [p.objects for p in parts] == [("a", "b", "c", "d"), ("e",)]
    big, small = parts
    assert big.rank == 2
    # only roots with zero middle coordinate survive
    assert all(pos == ((0, 1), (1, 0)) for pos in big.positive_roots)
    assert small.positive_roots == (((0, 1), (1, 0), (1, 1)),)
    for p in parts:
        assert wg.validate(p).passed


def test_restrict_single_generator(ex5):
    parts = wg.restrict(ex5, (1,))
    assert [p.objects for p in parts] == [("a",), ("b",), ("c", "e"), ("d",)]
    for p in parts:
        assert all(pos == ((1,),) for pos in p.positive_roots)
        assert wg.validate(p).passed


def test_restrict_full_subset_is_identity(ex5):
    parts = wg.restrict(ex5, (0, 1, 2))
    assert parts == [ex5]


def test_restrict_rejects_empty_subset(ex5):
    with pytest.raises(ValueError):
        wg.restrict(ex5, ())
