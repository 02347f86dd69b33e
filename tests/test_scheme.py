import dataclasses
import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from weylgroupoid.intmat import basis_vector, identity_matrix, mat_mul, mat_vec, neg
from weylgroupoid.scheme import (
    AxiomResult,
    SchemeFormatError,
    _axiom1,
    _axiom2,
    _axiom3,
    _axiom4,
    _axiom6,
    _axiom7,
    _checked,
    _rank_two_table,
    orbit_decomposition,
    reflection_matrix,
    word_path,
)

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


def test_load_rejects_json_nested_too_deeply():
    # the JSON decoder recurses once per level; too deep is a format error
    with pytest.raises(SchemeFormatError, match="^not valid JSON: maximum recursion depth"):
        wg.load_scheme("[" * 200000)


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


def _set(*path_and_value):
    """A change to a scheme document: the entry at the path (keys and
    indices) is set to the value."""
    *path, last, value = path_and_value

    def change(doc):
        for key in path:
            doc = doc[key]
        doc[last] = value
    return change


def _drop(field):
    return lambda doc: {key: value for key, value in doc.items() if key != field}


@pytest.mark.parametrize("change, message", [
    (lambda doc: [doc], "top level: expected a JSON object"),
    (_drop("mode"), "missing field 'mode'"),
    (_set("rank", "2"), "rank: expected an integer, got '2'"),
    (_set("rank", True), "rank: expected an integer, got True"),
    (_set("rank", 0), "rank: must be at least 1"),
    (_set("objects", []), "objects: expected a nonempty array of strings"),
    (_set("objects", ["a", 1]), "objects: expected a nonempty array of strings"),
    (_set("action", 0, [0, 0]), "action[0]: expected 1 entries"),
    (_set("action", 1, 0, 1), "action[1][0]: object index 1 out of range"),
    (_set("action", 1, 0, 0.0), "action[1][0]: expected an integer, got 0.0"),
    (_set("coefficients", [[[-1, 1]]]), "coefficients: expected 2 rows"),
    (_set("coefficients", 1, []), "coefficients[1]: expected 1 entries"),
    (_set("coefficients", 0, 0, [-1]), "coefficients[0][0]: expected 2 integers"),
    (_set("coefficients", 0, 0, 1, "1"), "coefficients[0][0][1]: expected an integer, got '1'"),
    (_set("coefficients", 1, 0, 1, 0),
     "coefficients[1][0][1]: unused entry must be -1 by convention"),
    (_set("mode", "lazy"), "mode: expected one of ('prescribed', 'generated'), got 'lazy'"),
    (_drop("roots"), "roots: required in prescribed mode"),
    (_set("roots", []), "roots: expected 1 per-object arrays"),
    (_set("roots", 0, {}), "roots[0]: expected an array of vectors"),
    (_set("roots", 0, 2, [1]), "roots[0][2]: expected 2 integers"),
    (_set("roots", 0, 2, 0, None), "roots[0][2]: expected an integer, got None"),
    (_set("roots", 0, 2, [0, 0]), "roots[0][2]: roots must be nonzero"),
    (_set("roots", 0, 2, [1, 0]), "roots[0][2]: duplicate root [1, 0]"),
    (_set("mode", "generated"), "roots: must be absent in generated mode"),
])
def test_load_names_each_format_error(change, message):
    doc = {
        "rank": 2, "objects": ["a"], "action": [[0], [0]],
        "coefficients": [[[-1, 1]], [[1, -1]]], "mode": "prescribed",
        "roots": [[[0, 1], [1, 0], [1, 1]]],
    }
    doc = change(doc) or doc
    with pytest.raises(SchemeFormatError, match=f"^{re.escape(message)}$"):
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


# built once here: hypothesis strategies cannot take fixtures
PATH_SCHEMES = (
    wg.rank3_example(),
    wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6),  # BI3, five objects
)


@st.composite
def _based_word(draw):
    s = draw(st.sampled_from(PATH_SCHEMES))
    base = draw(st.integers(0, s.n_objects - 1))
    return s, base, tuple(draw(st.lists(st.integers(0, s.rank - 1), max_size=16)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_based_word())
def test_word_path_applies_each_letter_to_the_next_entry(case):
    s, base, letters = case
    path = word_path(s, letters, base)
    assert len(path) == len(letters) + 1 and path[-1] == base
    for k, i in enumerate(letters):
        assert path[k] == wg.act(s, i, path[k + 1])
    assert path[0] == wg.act_word(s, letters, base)
    assert path[0] == wg.element_of_word(s, wg.Word(base, letters)).target


@pytest.mark.parametrize("base, letters, message", [
    (5, (0,), "object index 5 out of range 0..4"),
    (-1, (3,), "object index -1 out of range 0..4"),
    (A, (0, 3, 1), "generator index 3 out of range 0..2"),
    (A, (-1, 0), "generator index -1 out of range 0..2"),
    (A, (4, 1, 3), "generator index 3 out of range 0..2"),  # the first letter applied
    (B, (1, -1), "generator index -1 out of range 0..2"),  # action[-1] would not fail
])
def test_word_path_rejects_bad_base_or_letter(ex5, base, letters, message):
    for walk in (word_path, wg.act_word):
        with pytest.raises(ValueError, match=re.escape(message)):
            walk(ex5, letters, base)
    with pytest.raises(ValueError, match=re.escape(message)):
        wg.element_of_word(ex5, wg.Word(base, letters))


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


@pytest.mark.parametrize("name", ["EX", "BI3"])
def test_theta_is_the_order_of_the_rotation(ex5, name):
    # the least m >= 1 with (r_i r_j)^m(a) = a, read off the action table
    s = ex5 if name == "EX" else wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6)
    for i, j in itertools.permutations(range(s.rank), 2):
        for a in range(s.n_objects):
            m, b = 1, s.action[i][s.action[j][a]]
            while b != a:
                m, b = m + 1, s.action[i][s.action[j][b]]
            assert wg.theta(s, i, j, a) == m


def test_theta_raises_when_the_orbit_does_not_return():
    # built directly, since load_scheme rejects a non-involutive action:
    # generator 2 sends b to a and a to a, so (r_1 r_2)^m(b) = a for all m >= 1
    s = wg.RootGroupoidScheme(
        rank=2, objects=("a", "b"), action=((0, 1), (0, 0)),
        coefficients=(((-1, 0),) * 2, ((0, -1),) * 2), mode=wg.GENERATED,
    )
    with pytest.raises(RuntimeError, match="did not close"):
        wg.theta(s, 0, 1, 1)


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
        (A, None, ((1, 1, 1),), "object a stores root (1,1,1) twice"),
    ],
)
def test_validate_detects_missing_simple_root_or_zero(ex5, obj, drop, add, witness):
    roots = list(ex5.positive_roots)
    roots[obj] = tuple(r for r in roots[obj] if r != drop) + add
    mutated = dataclasses.replace(ex5, positive_roots=tuple(roots))
    report = wg.validate(mutated)
    assert report.result(2) == AxiomResult(2, False, 15, witness)
    # the gate raises the same failure, so no length is counted on such roots
    with pytest.raises(wg.InconsistentSchemeError, match=re.escape(f"axiom 2 FAIL ({witness})")):
        wg.length(mutated, wg.longest_element(ex5, A))


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


def test_axiom_4_witness_is_the_multiple_of_the_first_generator():
    # the stored (sorted) order meets (0,2), a multiple of simple root 2,
    # before (3,0), a multiple of simple root 1; the witness names simple
    # root 1 first, in validate and in the root tables alike
    s = wg.RootGroupoidScheme(
        rank=2, objects=("a",), action=((0,), (0,)),
        coefficients=(((-1, 1),), ((1, -1),)), mode=wg.PRESCRIBED,
        positive_roots=(((0, 1), (0, 2), (1, 0), (1, 1), (3, 0)),), status=wg.FINITE,
    )
    witness = "object a, root (3,0) is a multiple of simple root 1"
    assert wg.validate(s).result(4) == AxiomResult(4, False, 2, witness)
    with pytest.raises(wg.InconsistentSchemeError, match=re.escape(f"axiom 4 FAIL ({witness})")):
        s.root_tables


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
    # the zero vector fails the gate; the table's own builder still counts it
    counts = _rank_two_table(s) if name == "example-zero-vector" else s.root_tables.rank_two
    for i in range(s.rank):
        for j in range(s.rank):
            for a in range(s.n_objects):
                assert counts[i][j][a] == _brute_force_count(s, i, j, a)


@pytest.mark.parametrize("name", sorted(CARTAN_TYPES))
def test_rank_two_table_cartan_closed_form(name):
    # m_ij = 2, 3, 4, 6 when a_ij * a_ji = 0, 1, 2, 3
    c = CARTAN_TYPES[name][0]
    s = _cartan_scheme(name)
    for i in range(s.rank):
        for j in range(s.rank):
            if i != j:
                assert s.root_tables.rank_two[i][j][0] == {0: 2, 1: 3, 2: 4, 3: 6}[c[i][j] * c[j][i]]


def test_rank_two_table_leaves_equality_and_hash(ex5):
    fresh = dataclasses.replace(ex5)
    assert "root_tables" not in vars(fresh)
    ex5.root_tables.rank_two
    assert "root_tables" in vars(ex5)
    assert fresh == ex5 and hash(fresh) == hash(ex5)
    assert repr(fresh) == repr(ex5)


def test_rank_two_table_rebuilt_on_replace(ex5):
    assert ex5.root_tables.rank_two[1][2][A] == 4
    roots = list(ex5.positive_roots)
    roots[A] = tuple(r for r in roots[A] if r != (0, 2, 1))
    mutated = dataclasses.replace(ex5, positive_roots=tuple(roots))
    # the gate refuses the mutated roots; the table's builder counts them
    assert not wg.validate(mutated).passed
    assert _rank_two_table(mutated)[1][2][A] == 3
    assert ex5.root_tables.rank_two[1][2][A] == 4


def test_rank_two_table_requires_roots(ex5):
    with pytest.raises(ValueError, match="materialized"):
        wg.rank_two_count(wg.strip_roots(ex5), 1, 2, A)


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


D4 = _cartan(4, {(0, 1): (-1, -1), (1, 2): (-1, -1), (1, 3): (-1, -1)})

RESTRICT_SCHEMES = {
    "EX": wg.rank3_example(),
    "BI3": wg.generate_roots(wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 30),
    "D4": wg.generate_roots(wg.from_cartan(D4), 30),
}


def _restrict_by_definition(s, gens):
    """One scheme per orbit of gens, orbits by least object: each keeps the
    roots supported on gens, and names its objects by their position in
    the sorted orbit."""
    orbits = []
    for start in range(s.n_objects):
        if any(start in orbit for orbit in orbits):
            continue
        orbit = {start}
        while (more := orbit | {s.action[i][a] for i in gens for a in orbit}) != orbit:
            orbit = more
        orbits.append(sorted(orbit))
    return [
        wg.RootGroupoidScheme(
            rank=len(gens),
            objects=tuple(s.objects[a] for a in orbit),
            action=tuple(tuple(orbit.index(s.action[i][a]) for a in orbit) for i in gens),
            coefficients=tuple(
                tuple(tuple(-1 if j == i else s.coefficients[i][a][j] for j in gens) for a in orbit)
                for i in gens
            ),
            mode=s.mode,
            positive_roots=tuple(
                tuple(sorted(
                    tuple(r[j] for j in gens)
                    for r in s.positive_roots[a]
                    if not any(r[k] for k in range(s.rank) if k not in gens)
                ))
                for a in orbit
            ),
            status=s.status,
            cutoff=s.cutoff,
        )
        for orbit in orbits
    ]


@pytest.mark.parametrize("name", sorted(RESTRICT_SCHEMES))
def test_restrict_matches_definition_on_every_subset(name):
    s = RESTRICT_SCHEMES[name]
    for k in range(1, s.rank + 1):
        for gens in itertools.combinations(range(s.rank), k):
            assert wg.restrict(s, gens[::-1]) == _restrict_by_definition(s, gens)


# ---------------------------------------------------------------------------
# axioms 1 and 6, witness by witness


def _axiom_6_by_dense_product(s):
    """The first witness of axiom 6 read as sigma_{i, i|>a} sigma_{i, a} = id."""
    for i in range(s.rank):
        for a in range(s.n_objects):
            back = s.action[i][a]
            product = mat_mul(reflection_matrix(s, i, back), reflection_matrix(s, i, a))
            if product != identity_matrix(s.rank):
                return (
                    f"generator {i + 1}: reflections at {s.objects[a]} and "
                    f"{s.objects[back]} do not compose to the identity"
                )
    return None


# on one object every reflection is its own opposite, so D4 cannot fail
@pytest.mark.parametrize("name", ["BI3", "EX"])
def test_axiom_6_matches_the_dense_product(name):
    s = RESTRICT_SCHEMES[name]
    assert wg.validate(s).result(6).passed == (_axiom_6_by_dense_product(s) is None)
    failed = 0
    for i, a, j in itertools.product(range(s.rank), range(s.n_objects), range(s.rank)):
        if j == i:  # the constructor keeps the -1 there
            continue
        coefficients = [[list(vec) for vec in per] for per in s.coefficients]
        coefficients[i][a][j] += 1
        changed = dataclasses.replace(
            s, coefficients=tuple(tuple(map(tuple, per)) for per in coefficients)
        )
        witness = _axiom_6_by_dense_product(changed)
        failed += witness is not None
        assert wg.validate(changed).result(6) == AxiomResult(
            6, witness is None, s.rank * s.n_objects, witness
        )
    assert failed > 0


def _scheme_of_action(action):
    """A directly built scheme with this action (load_scheme would refuse a
    non-involutive one), storing the simple roots only."""
    rank, n = len(action), len(action[0])
    return wg.RootGroupoidScheme(
        rank=rank, objects=tuple("abcde"[:n]), action=action,
        coefficients=tuple((tuple(-1 if j == i else 0 for j in range(rank)),) * n for i in range(rank)),
        mode=wg.PRESCRIBED,
        positive_roots=(tuple(basis_vector(rank, j) for j in reversed(range(rank))),) * n,
        status=wg.FINITE,
    )


AXIOM_1_CASES = [
    # orbits {a, c}, {b, d}, {e}
    (((2, 1, 0, 3, 4), (0, 3, 2, 1, 4)), "object b is not reachable from a"),
    # orbits {a, b}, {c, e}, {d}
    (((1, 0, 4, 3, 2),), "object c is not reachable from a"),
    # generator 1 cycles a -> b -> c -> a; d is reachable from nothing
    (((1, 2, 0, 3), (0, 1, 2, 3)), "generator 1 is not involutive at object a"),
    # generator 2 sends b to c and c to itself
    (((0, 1, 2, 3), (0, 2, 2, 3)), "generator 2 is not involutive at object b"),
]


@pytest.mark.parametrize("action, witness", AXIOM_1_CASES)
def test_axiom_1_witness(action, witness):
    s = _scheme_of_action(action)
    assert wg.validate(s).result(1) == AxiomResult(1, False, s.rank * s.n_objects, witness)


def test_orbit_decomposition_refuses_a_non_involutive_action():
    # generator 1 sends both objects to a; the orbits used to be (a) and (a, b)
    s = _scheme_of_action(((0, 0),))
    witness = "generator 1 is not involutive at object b"
    assert wg.validate(s).result(1).witness == witness
    for call in (orbit_decomposition, wg.restrict):
        with pytest.raises(ValueError, match=f"^{witness}$"):
            call(s, (0,))


# A2 at two objects that generator 2 swaps, with its roots stored
A2_SWAPPED = dict(
    rank=2, objects=("a", "b"), action=((0, 1), (1, 0)),
    coefficients=(((-1, 1),) * 2, ((1, -1),) * 2), mode=wg.PRESCRIBED,
    positive_roots=(((0, 1), (1, 0), (1, 1)),) * 2, status=wg.FINITE,
)

# field changes to A2_SWAPPED that misshape it, and the fault that
# construction names
MISSHAPEN_CASES = {
    "short-action-row": (dict(action=((0, 1), (1,))), "action[1]: expected 2 entries"),
    "short-coefficient-vector": (
        dict(coefficients=(((-1, 1),) * 2, ((1, -1), (1,)))),
        "coefficients[1][1]: expected 2 integers",
    ),
    "action-rows": (dict(action=((0, 1),)), "action: expected 2 rows"),
    "coefficient-rows": (dict(coefficients=(((-1, 1),) * 2,)), "coefficients: expected 2 rows"),
    "coefficient-vectors": (
        dict(coefficients=(((-1, 1),), ((1, -1),) * 2)), "coefficients[0]: expected 2 entries",
    ),
    "action-entry-negative": (
        dict(action=((0, 1), (1, -1))), "action[1][1]: object index -1 out of range",
    ),
    "action-entry-past-last": (
        dict(action=((0, 1), (1, 2))), "action[1][1]: object index 2 out of range",
    ),
    "action-entry-float": (
        dict(action=((0, 1), (1.0, 0))), "action[1][0]: expected an integer, got 1.0",
    ),
    # a vector that is not row 1 of a reflection matrix
    "unused-entry": (
        dict(coefficients=(((-1, 1), (0, 1)), ((1, -1),) * 2)),
        "coefficients[0][1][0]: unused entry must be -1 by convention",
    ),
    "prescribed-finite-without-roots": (
        dict(positive_roots=None), "roots: required in prescribed mode",
    ),
    "one-root-set": (
        dict(positive_roots=(((0, 1), (1, 0), (1, 1)),)), "roots: expected 2 per-object arrays",
    ),
    "short-root": (
        dict(positive_roots=(((0, 1), (1, 0), (1, 1)), ((0, 1), (1, 0), (1,)))),
        "roots[1][2]: expected 2 integers",
    ),
    "long-root": (
        dict(positive_roots=(((0, 1), (1, 0), (1, 1, 0)), ((0, 1), (1, 0), (1, 1)))),
        "roots[0][2]: expected 2 integers",
    ),
    "duplicate-names": (dict(objects=("a", "a")), "objects: duplicate object name 'a'"),
    "rank-0": (dict(rank=0), "rank: must be at least 1"),
    "no-objects": (dict(objects=()), "objects: expected a nonempty array of strings"),
    "unknown-mode": (
        dict(mode="lazy"), "mode: expected one of ('prescribed', 'generated'), got 'lazy'",
    ),
    "finite-without-roots": (
        dict(mode=wg.GENERATED, positive_roots=None),
        "status: must be None without root sets, got 'finite'",
    ),
    "prescribed-without-roots": (
        dict(positive_roots=None, status=None), "roots: required in prescribed mode",
    ),
    "roots-without-status": (
        dict(status=None),
        "status: expected one of ('finite', 'truncated') with root sets, got None",
    ),
    # types, each checked before its field's shape; each of these used to be
    # accepted (the float and bool entries saved as text that load_scheme
    # refuses), or refused by a raw TypeError or a misleading message
    "rank-str": (dict(rank="2"), "rank: expected an integer, got '2'"),
    "rank-bool": (dict(rank=True), "rank: expected an integer, got True"),
    "rank-float": (dict(rank=2.0), "rank: expected an integer, got 2.0"),
    "object-name-int": (dict(objects=("a", 1)), "objects: expected a nonempty array of strings"),
    "coefficient-str": (
        dict(coefficients=(((-1, "1"), (-1, 1)), ((1, -1),) * 2)),
        "coefficients[0][0][1]: expected an integer, got '1'",
    ),
    "coefficient-float": (
        dict(coefficients=(((-1, 1), (-1, 1.5)), ((1, -1),) * 2)),
        "coefficients[0][1][1]: expected an integer, got 1.5",
    ),
    "coefficient-bool": (
        dict(coefficients=(((-1, 1),) * 2, ((True, -1), (1, -1)))),
        "coefficients[1][0][0]: expected an integer, got True",
    ),
    # equal to -1, so only the type check refuses it
    "unused-entry-float": (
        dict(coefficients=(((-1, 1),) * 2, ((1, -1), (1, -1.0)))),
        "coefficients[1][1][1]: expected an integer, got -1.0",
    ),
    "root-entry-none": (
        dict(positive_roots=(((0, 1), (1, 0), (1, None)), ((0, 1), (1, 0), (1, 1)))),
        "roots[0][2]: expected an integer, got None",
    ),
    "root-entry-float": (
        dict(positive_roots=(((0, 1), (1, 0), (1, 1)), ((0, 1), (1.0, 0), (1, 1)))),
        "roots[1][1]: expected an integer, got 1.0",
    ),
    "cutoff-str": (dict(cutoff="x"), "cutoff: expected None or an integer of at least 1, got 'x'"),
    "cutoff-0": (dict(cutoff=0), "cutoff: expected None or an integer of at least 1, got 0"),
}


@pytest.mark.parametrize("change, message", MISSHAPEN_CASES.values(), ids=MISSHAPEN_CASES)
def test_table_of_the_wrong_size_is_named(change, message):
    # the constructor checks the shape of every scheme, however it is built
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(SchemeFormatError, match=pattern):
        wg.RootGroupoidScheme(**{**A2_SWAPPED, **change})
    with pytest.raises(SchemeFormatError, match=pattern):
        dataclasses.replace(wg.RootGroupoidScheme(**A2_SWAPPED), **change)


# one-object A2 with its roots stored
A2_ONE_OBJECT = dict(
    rank=2, objects=("a",), action=((0,), (0,)),
    coefficients=(((-1, 1),), ((1, -1),)), mode=wg.PRESCRIBED,
    positive_roots=(((0, 1), (1, 0), (1, 1)),), status=wg.FINITE,
)

# field changes to A2_ONE_OBJECT that nest a table one level too shallow,
# or give the object names as one string, and the fault named; each used
# to raise a raw TypeError from the type pass, and the string was read as
# the names "a" and "b"
SHALLOW_CASES = {
    "objects-str": (dict(objects="ab"), "objects: expected a nonempty array of strings"),
    "action-shallow": (dict(action=(0, 1)), "action[0]: expected 1 entries"),
    "coefficients-shallow": (dict(coefficients=(5, 6)), "coefficients[0]: expected 1 entries"),
    "roots-shallow": (dict(positive_roots=((1,),)), "roots[0][0]: expected 2 integers"),
}


@pytest.mark.parametrize("change, message", SHALLOW_CASES.values(), ids=SHALLOW_CASES)
def test_shallow_table_is_named_as_in_a_file(change, message):
    # the constructor names the value as load_scheme names it in a file
    fields = {**A2_ONE_OBJECT, **change}
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(SchemeFormatError, match=pattern):
        wg.RootGroupoidScheme(**fields)
    text = json.dumps({
        "rank": fields["rank"], "objects": fields["objects"], "action": fields["action"],
        "coefficients": fields["coefficients"], "mode": fields["mode"],
        "roots": fields["positive_roots"],
    })
    with pytest.raises(SchemeFormatError, match=pattern):
        wg.load_scheme(text)


# field changes to A2_SWAPPED that the constructor accepts and the file
# format refuses, one per rule on values, and the fault named
VALUE_CASES = {
    "non-involutive-action": (
        dict(action=((0, 1), (1, 1))),
        "action[1][0]: generator action is not involutive at object 'a'",
    ),
    "negative-coefficient": (
        dict(coefficients=(((-1, 1),) * 2, ((1, -1), (-2, -1)))),
        "coefficients[1][1][0]: reflection coefficients must be nonnegative",
    ),
    "zero-root": (
        dict(positive_roots=(((0, 1), (1, 0), (0, 0)), ((0, 1), (1, 0), (1, 1)))),
        "roots[0][2]: roots must be nonzero",
    ),
    "duplicate-root": (
        dict(positive_roots=(((0, 1), (1, 0), (1, 1)), ((0, 1), (1, 0), (1, 0)))),
        "roots[1][2]: duplicate root [1, 0]",
    ),
    "missing-simple-root": (
        dict(positive_roots=(((0, 1), (1, 1)), ((0, 1), (1, 0), (1, 1)))),
        "roots[0]: missing simple root 1 of object 'a'",
    ),
}


@pytest.mark.parametrize("change, message", VALUE_CASES.values(), ids=VALUE_CASES)
def test_save_refuses_what_load_refuses(change, message):
    # save_scheme writes no text that load_scheme refuses: both name the fault
    s = wg.RootGroupoidScheme(**{**A2_SWAPPED, **change})
    text = json.dumps({
        "rank": s.rank, "objects": list(s.objects), "action": s.action,
        "coefficients": s.coefficients, "mode": s.mode, "roots": s.positive_roots,
    })
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(SchemeFormatError, match=pattern):
        wg.save_scheme(s)
    with pytest.raises(SchemeFormatError, match=pattern):
        wg.load_scheme(text)


def _dumped(s):
    """save_scheme as it was written before, kept as the oracle: the fields
    as a dict of lists, through json.dumps(indent=2)."""
    doc = {
        "rank": s.rank,
        "objects": list(s.objects),
        "action": [list(row) for row in s.action],
        "coefficients": [[list(vec) for vec in per_obj] for per_obj in s.coefficients],
        "mode": s.mode,
    }
    if s.mode == wg.PRESCRIBED:
        doc["roots"] = [[list(r) for r in sorted(pos)] for pos in s.positive_roots]
    return json.dumps(doc, indent=2) + "\n"


def _assert_saved_as_json_lays_it_out(s):
    out = wg.save_scheme(s)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert out == _dumped(s)


# characters that json escapes, or leaves as they are, in object names
NAME_CHARACTERS = ('"', "\\", "\u00e9", "\n", "\x01", "\u2028", "\U0001f600", "a", "1")


@st.composite
def _saveable_schemes(draw):
    """Schemes that save_scheme accepts, in both modes, of rank 1 to 5, with
    object names made of NAME_CHARACTERS and large coefficients among them."""
    rank = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    names = draw(st.lists(
        st.text(st.sampled_from(NAME_CHARACTERS), max_size=4), min_size=n, max_size=n, unique=True,
    ))
    action = []
    for _ in range(rank):
        perm = draw(st.permutations(range(n)))
        row = list(range(n))
        for k in range(0, 2 * draw(st.integers(0, n // 2)), 2):
            row[perm[k]], row[perm[k + 1]] = perm[k + 1], perm[k]
        action.append(tuple(row))
    entries = st.integers(0, 3) | st.integers(0, 10**30)
    coefficients = tuple(
        tuple(tuple(-1 if j == i else draw(entries) for j in range(rank)) for _ in range(n))
        for i in range(rank)
    )
    fields = dict(rank=rank, objects=tuple(names), action=tuple(action), coefficients=coefficients)
    if draw(st.booleans()):
        return wg.RootGroupoidScheme(**fields, mode=wg.GENERATED)
    simple = [basis_vector(rank, j) for j in range(rank)]
    vectors = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    roots = tuple(
        tuple(draw(st.permutations(simple + draw(st.lists(
            vectors.filter(lambda v: v not in simple), max_size=6, unique=True,
        )))))
        for _ in range(n)
    )
    status = draw(st.sampled_from((wg.FINITE, wg.TRUNCATED)))
    return wg.RootGroupoidScheme(**fields, mode=wg.PRESCRIBED, positive_roots=roots, status=status)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_saveable_schemes())
def test_save_writes_what_json_writes(s):
    _assert_saved_as_json_lays_it_out(s)


# the Cartan types, bicharacters and example that the benchmark saves
SAVED_CARTAN = {
    **{name: c for name, (c, _) in CARTAN_TYPES.items() if name != "G2"},
    "A3": _cartan(3, _chain(3)),
    "A5": _cartan(5, _chain(5)),
    "B3": _cartan(3, {**_chain(3), (1, 2): (-1, -2)}),
    "D4": _cartan(4, {**_chain(3), (1, 3): (-1, -1)}),
    "E7": _cartan(7, {**_chain(6), (3, 6): (-1, -1)}),
    "E8": _cartan(8, {**_chain(7), (4, 7): (-1, -1)}),
}
SAVED_BICHARACTERS = {
    "BI3": (((3, 2, 0), (0, 3, 2), (0, 0, 3)), 6),
    "BI4": (((2, 2, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 0, 3)), 4),
}


@pytest.mark.parametrize("name", [*SAVED_CARTAN, *SAVED_BICHARACTERS, "EX"])
def test_save_writes_what_json_writes_on_saved_schemes(name):
    if name in SAVED_CARTAN:
        s = wg.generate_roots(wg.from_cartan(SAVED_CARTAN[name]), 30)
    elif name in SAVED_BICHARACTERS:
        exponents, order = SAVED_BICHARACTERS[name]
        s = wg.generate_roots(wg.from_bicharacter(exponents, 12, order), 30)
    else:
        s = wg.rank3_example()
    for mode in (wg.GENERATED, wg.PRESCRIBED):
        _assert_saved_as_json_lays_it_out(dataclasses.replace(s, mode=mode))


# ---------------------------------------------------------------------------
# the root tables as the one gate


def _root_set(s, a):
    pos = s.positive_roots[a]
    return frozenset(pos) | frozenset(map(neg, pos))


def _axiom5_by_root_sets(s):
    """Witnesses against axiom 5 on the root sets as frozensets, each image
    by the dense reflection matrix: the reference for validate's check,
    which reads the root index instead."""
    for i in range(s.rank):
        for a in range(s.n_objects):
            b = s.action[i][a]
            image = frozenset(mat_vec(reflection_matrix(s, i, a), r) for r in _root_set(s, a))
            target = _root_set(s, b)
            if image != target:
                diff = sorted(target - image) + sorted(image - target)
                yield (
                    f"generator {i + 1} at object {s.objects[a]}: image does not equal the "
                    f"root set of {s.objects[b]}, first mismatch ({','.join(map(str, diff[0]))})"
                )


# consistent stored roots for the edits below: the example, A2 at two
# objects that generator 2 swaps, and A2 at one object
AXIOM_5_BASES = (
    wg.rank3_example(),
    wg.RootGroupoidScheme(**A2_SWAPPED),
    wg.generate_roots(wg.from_cartan(((2, -1), (-1, 2))), 10),
)


@st.composite
def _edited_root_sets(draw):
    """A base scheme, built directly in prescribed mode, after a few edits
    of its stored halves and coefficients: any vector added (zero vectors
    and mixed signs among them), a stored root dropped (a simple one
    too), repeated or added negated (an r/-r pair), or one coefficient
    raised."""
    s = draw(st.sampled_from(AXIOM_5_BASES))
    roots = [list(pos) for pos in s.positive_roots]
    coefficients = [[list(vec) for vec in per] for per in s.coefficients]
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, s.n_objects - 1))
        edit = draw(st.sampled_from(("add", "drop", "repeat", "negate", "coefficient")))
        if edit == "add":
            roots[a].append(draw(st.tuples(*[st.integers(-2, 2)] * s.rank)))
        elif edit == "coefficient":
            i, j = draw(st.integers(0, s.rank - 1)), draw(st.integers(0, s.rank - 1))
            if j != i:  # the constructor keeps the -1 there
                coefficients[i][a][j] += 1
        elif roots[a]:
            k = draw(st.integers(0, len(roots[a]) - 1))
            r = roots[a].pop(k) if edit == "drop" else roots[a][k]
            if edit != "drop":
                roots[a].insert(draw(st.integers(0, len(roots[a]))), r if edit == "repeat" else neg(r))
    return dataclasses.replace(
        s, mode=wg.PRESCRIBED, positive_roots=tuple(map(tuple, roots)),
        coefficients=tuple(tuple(map(tuple, per)) for per in coefficients),
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_edited_root_sets())
def test_axiom_5_matches_the_root_sets(s):
    witness = next(_axiom5_by_root_sets(s), None)
    report, tables = _checked(s)
    assert report.result(5) == AxiomResult(5, witness is None, s.rank * s.n_objects, witness)
    # the root tables are kept exactly when axioms 2, 3 and 5 pass
    assert (tables is not None) == all(report.result(k).passed for k in (2, 3, 5))


def _gate_pool():
    yield from (RESTRICT_SCHEMES["EX"], RESTRICT_SCHEMES["D4"], RESTRICT_SCHEMES["BI3"])
    yield wg.generate_roots(wg.from_cartan(((2, -1, 0), (-1, 2, -1), (0, -1, 2))), 30)  # A3
    # A2 at two objects that generator 2 swaps: fails axiom 7 only
    yield wg.generate_roots(wg.RootGroupoidScheme(
        2, ("a", "b"), ((0, 1), (1, 0)), (((-1, 1),) * 2, ((1, -1),) * 2), wg.GENERATED,
    ), 10)
    for c, roots in (
        (1, [[0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [2, 2]]),  # BC2: fails axiom 4
        (2, [[0, 1], [1, 0]]),  # affine A1: fails axiom 5
    ):
        yield wg.load_scheme(json.dumps({
            "rank": 2, "objects": ["a"], "action": [[0], [0]], "mode": "prescribed",
            "coefficients": [[[-1, c]], [[2, -1]]], "roots": [roots],
        }))
    for s in (RESTRICT_SCHEMES["EX"], RESTRICT_SCHEMES["BI3"]):
        for i, a, j in itertools.product(range(s.rank), range(s.n_objects), range(s.rank)):
            if j != i:
                coefficients = [[list(vec) for vec in per] for per in s.coefficients]
                coefficients[i][a][j] += 1
                yield dataclasses.replace(
                    s, coefficients=tuple(tuple(map(tuple, per)) for per in coefficients)
                )
    for action, _ in AXIOM_1_CASES:
        yield _scheme_of_action(action)


def test_root_tables_pass_exactly_when_validate_does():
    failed_axioms = set()
    for s in _gate_pool():
        s = dataclasses.replace(s)  # no tables built yet
        failed = next((r for r in wg.validate(s).results if not r.passed), None)
        if failed is None:
            assert s.root_tables.sigma
            continue
        failed_axioms.add(failed.axiom)
        message = f"axiom {failed.axiom} FAIL ({failed.witness})"
        with pytest.raises(wg.InconsistentSchemeError, match=f"^{re.escape(message)}$"):
            s.root_tables
    # axiom 6 never fails first: on finite roots that pass axiom 5 the two
    # reflections' product is unipotent and permutes a finite spanning set,
    # so it is the identity
    assert failed_axioms == {1, 4, 5, 7}


def test_axiom_6_fails_only_after_an_earlier_axiom():
    # on finite roots axiom 6 follows from axioms 1, 2 and 5, so the gate,
    # which raises validate's first failure, never names it
    reports = [wg.validate(dataclasses.replace(s)).results for s in _gate_pool()]
    failing_6 = [results for results in reports if not results[5].passed]
    assert failing_6
    for results in failing_6:
        assert not all(r.passed for r in results[:5])


def test_validate_reports_each_axiom_as_checked_alone():
    checks = (_axiom1, _axiom2, _axiom3, _axiom4, _axiom5_by_root_sets, _axiom6, _axiom7)
    for s in _gate_pool():
        results = wg.validate(dataclasses.replace(s)).results
        for axiom, (result, check) in enumerate(zip(results, checks), start=1):
            witness = next(check(s), None)
            assert result == AxiomResult(axiom, witness is None, result.checked, witness)


def _message(report):
    failed = next(r for r in report.results if not r.passed)
    return f"axiom {failed.axiom} FAIL ({failed.witness})"


def test_validate_leaves_the_gate_tables_exactly_when_it_passes():
    for s in _gate_pool():
        s = dataclasses.replace(s)  # no tables built yet
        report = wg.validate(s)
        if report.passed:
            assert "root_tables" in vars(s)
            assert vars(s.root_tables) == vars(dataclasses.replace(s).root_tables)
            continue
        assert "root_tables" not in vars(s)
        with pytest.raises(wg.InconsistentSchemeError, match=f"^{re.escape(_message(report))}$"):
            s.root_tables


def test_gate_keeps_its_failure(monkeypatch):
    # element_of_word falls back to matrices through the gate's raise; the
    # failure is kept, so the axioms are checked once, not once per word
    ex = wg.rank3_example()
    s = dataclasses.replace(
        ex, positive_roots=(ex.positive_roots[0] + ((1, 2, 3),),) + ex.positive_roots[1:]
    )
    calls = []
    monkeypatch.setattr(wg.scheme, "_checked", lambda s: calls.append(s) or _checked(s))
    for _ in range(5):
        wg.element_of_word(s, wg.Word(A, (0, 1, 2, 1, 0)))
    assert len(calls) == 1
    message = _message(_checked(s)[0])
    assert message.startswith("axiom 5 FAIL (generator 1 at object a: ")
    with pytest.raises(wg.InconsistentSchemeError, match=f"^{re.escape(message)}$"):
        wg.length(s, wg.element_of_word(s, wg.Word(A, (0,))))
    assert len(calls) == 1


def test_validate_on_truncated_roots_leaves_no_tables():
    a3 = wg.generate_roots(wg.from_cartan(((2, -1, 0), (-1, 2, -1), (0, -1, 2))), 30)
    marked = dataclasses.replace(a3, status=wg.TRUNCATED)
    affine = wg.generate_roots(wg.from_cartan(((2, -2), (-2, 2))), 10)
    assert affine.status == wg.TRUNCATED
    assert wg.validate(marked).passed  # complete roots, marked truncated
    assert not wg.validate(affine).passed
    for s in (marked, affine):
        assert "root_tables" not in vars(s)
        with pytest.raises(ValueError, match="truncated"):
            s.root_tables
