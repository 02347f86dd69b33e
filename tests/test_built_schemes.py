"""Schemes the library builds for itself.

from_cartan, from_bicharacter and generate_roots build their result
without the constructor's check (scheme._built), from parts they have
typed themselves.  The oracle here is that check: dataclasses.replace
runs it again on every result, so no library build may yield a scheme
that direct construction would refuse.  The guard pins which paths run
the check and which do not.
"""

import dataclasses
import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from test_roots import E8, _sweep_schemes
from test_scheme import CARTAN_TYPES, _cartan

BI3 = ((3, 2, 0), (0, 3, 2), (0, 0, 3))


@st.composite
def _relabelled_finite_types(draw):
    c = CARTAN_TYPES[draw(st.sampled_from(sorted(CARTAN_TYPES)))][0]
    perm = draw(st.permutations(range(len(c))))
    return [[c[perm[i]][perm[j]] for j in range(len(c))] for i in range(len(c))]


@st.composite
def _cartan_diagrams(draw):
    """Random Cartan matrices of rank 1-4, finite, affine or neither."""
    n = draw(st.integers(1, 4))
    edges = st.sampled_from(((0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-2, -2), (-1, -4)))
    return _cartan(n, {(i, j): draw(edges) for i, j in itertools.combinations(range(n), 2)})


@st.composite
def _bicharacters(draw):
    """Rank 1-4 exponent matrices at generic, small and large orders."""
    n = draw(st.integers(1, 4))
    order = draw(st.none() | st.integers(2, 12) | st.integers(1000, 10000))
    top = 7 if order is None else order
    exponents = [
        [draw(st.integers(1, top - 1) if i == j else st.integers(-top + 1, top - 1) | st.just(0))
         for j in range(n)]
        for i in range(n)
    ]
    return exponents, order


def _nested_tuples(table, depth):
    return type(table) is tuple and (
        depth == 1 or all(_nested_tuples(x, depth - 1) for x in table)
    )


def _assert_well_formed(s):
    # replace re-runs the constructor's full check on every field
    assert dataclasses.replace(s) == s
    hash(s)
    assert _nested_tuples(s.objects, 1)
    assert _nested_tuples(s.action, 2)
    assert _nested_tuples(s.coefficients, 3)
    assert s.positive_roots is None or _nested_tuples(s.positive_roots, 3)


def _assert_roots_well_formed(raw):
    _assert_well_formed(raw)
    for cutoff in range(1, 21):
        _assert_well_formed(wg.generate_roots(raw, cutoff))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(_relabelled_finite_types(), _cartan_diagrams()))
def test_from_cartan_builds_well_formed_schemes(c):
    _assert_roots_well_formed(wg.from_cartan(c))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_bicharacters())
def test_from_bicharacter_builds_well_formed_schemes(case):
    exponents, order = case
    try:
        raw = wg.from_bicharacter(exponents, 12, order)
    except ValueError:  # not arithmetic, or more than 12 objects
        return
    _assert_roots_well_formed(raw)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_sweep_schemes(), st.integers(1, 20))
def test_generate_roots_builds_well_formed_schemes_on_any_sweep(case, cutoff):
    # hand-built schemes whose actions are involutions, other permutations
    # or no permutation, so the sweep over both signs runs too
    s, _ = case
    _assert_well_formed(wg.generate_roots(s, cutoff))


def test_the_check_runs_on_outside_values_only(ex5, monkeypatch):
    calls = []
    check = wg.RootGroupoidScheme.__post_init__

    def counted(self):
        calls.append(None)
        check(self)

    monkeypatch.setattr(wg.RootGroupoidScheme, "__post_init__", counted)

    def checks(build):
        del calls[:]
        out = build()
        return len(calls), out

    # the library's constructors build from parts they typed themselves
    assert checks(lambda: wg.from_cartan(E8))[0] == 0
    assert checks(lambda: wg.from_bicharacter(BI3, 12, 6))[0] == 0
    for raw, cutoff in (
        (wg.from_cartan(E8), 28),
        (wg.from_cartan(E8), 29),
        (wg.from_bicharacter(BI3, 12, 6), 12),
        # (2,1) reflects to (2,-1): the sweep over both signs runs
        (wg.RootGroupoidScheme(
            rank=2, objects=("a",), action=((0,), (0,)),
            coefficients=(((-1, 2),), ((0, -1),)), mode=wg.GENERATED,
        ), 12),
    ):
        assert checks(lambda: wg.generate_roots(raw, cutoff))[0] == 0
    # every value from outside the library is checked
    fields = {f.name: getattr(ex5, f.name) for f in dataclasses.fields(ex5)}
    assert checks(lambda: wg.RootGroupoidScheme(**fields))[0] == 1
    assert checks(lambda: dataclasses.replace(ex5))[0] == 1
    assert checks(lambda: dataclasses.replace(ex5, cutoff=3))[0] == 1
    assert checks(lambda: wg.load_scheme(wg.save_scheme(ex5))) == (1, ex5)
    # a file whose roots are not sorted is checked, then sorted by replace
    doc = json.loads(wg.save_scheme(ex5))
    doc["roots"][0].reverse()
    assert checks(lambda: wg.load_scheme(json.dumps(doc))) == (2, ex5)

