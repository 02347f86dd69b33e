import dataclasses
import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from weylgroupoid import Word
from weylgroupoid import roots as roots_module
from weylgroupoid.intmat import (
    basis_vector,
    height,
    identity_matrix,
    is_nonneg,
    mat_mul,
    mat_vec,
    neg,
)
from weylgroupoid.roots import _closing_chain
from weylgroupoid.scheme import reflection_matrix

A, B, C, D, E = range(5)


# ---------------------------------------------------------------------------
# reflect


def test_reflect_example(ex5):
    # the generator-2 reflection at a adds twice alpha_2 to alpha_3
    assert wg.reflect(ex5, 1, A, (0, 0, 1)) == (0, 2, 1)


def test_reflect_negates_own_simple_root(ex5):
    for i in range(3):
        for a in range(5):
            alpha = ex5.simple_root(i)
            assert wg.reflect(ex5, i, a, alpha) == neg(alpha)


def test_reflect_involution_at_fixed_object(ex5):
    v = (0, 0, 1)
    once = wg.reflect(ex5, 1, A, v)
    assert wg.reflect(ex5, 1, A, once) == v  # 2 |> a = a


def test_reflect_permutes_other_positive_roots(ex5):
    # sigma_{i,a} maps R+_a minus its own simple root onto the target's
    for i in range(3):
        for a in range(5):
            target = wg.act(ex5, i, a)
            image = {
                wg.reflect(ex5, i, a, r)
                for r in ex5.positive_roots[a]
                if r != ex5.simple_root(i)
            }
            expected = set(ex5.positive_roots[target]) - {ex5.simple_root(i)}
            assert image == expected


def test_reflect_rejects_bad_vector_length(ex5):
    with pytest.raises(ValueError):
        wg.reflect(ex5, 0, A, (1, 0))


# ---------------------------------------------------------------------------
# generation


def test_regenerates_example_exactly(ex5):
    regen = wg.generate_roots(wg.strip_roots(ex5), 10)
    assert regen.status == wg.FINITE
    assert regen.positive_roots == ex5.positive_roots


def test_generate_rank_one(rank1):
    out = wg.generate_roots(wg.strip_roots(rank1), 5)
    assert out.positive_roots == (((1,),),)
    assert out.status == wg.FINITE


def test_generate_a2(a2):
    assert a2.status == wg.FINITE
    assert a2.positive_roots == ((((0, 1), (1, 0), (1, 1))),)


def test_generate_affine_is_truncated():
    aff = wg.generate_roots(wg.from_cartan(((2, -2), (-2, 2))), 10)
    assert aff.status == wg.TRUNCATED


def test_generate_rejects_zero_cutoff():
    with pytest.raises(ValueError):
        wg.generate_roots(wg.from_cartan(((2,),)), 0)


def test_generate_rejects_prescribed(ex5):
    with pytest.raises(ValueError):
        wg.generate_roots(ex5, 10)


def _re_reflection_certificate(s, cutoff):
    """Root generation with its first certificate, kept as the oracle.

    The same worklist closure, then FINITE only if each set is its
    positive half with the negatives and reflecting those signed sets once
    more maps each onto the set of the target object.
    """
    found = [{basis_vector(s.rank, j) for j in range(s.rank)} for _ in range(s.n_objects)]
    mats = [[reflection_matrix(s, i, a) for a in range(s.n_objects)] for i in range(s.rank)]
    pending = [(a, r) for a in range(s.n_objects) for r in found[a]]
    while pending:
        a, r = pending.pop()
        for i in range(s.rank):
            v = mat_vec(mats[i][a], r)
            target = s.action[i][a]
            if height(v) <= cutoff and v not in found[target]:
                found[target].add(v)
                pending.append((target, v))
    positive = tuple(tuple(sorted(v for v in vs if is_nonneg(v))) for vs in found)
    status = wg.FINITE
    sets = [frozenset(pos) | frozenset(neg(r) for r in pos) for pos in positive]
    for a in range(s.n_objects):
        if len(sets[a]) != len(found[a]):
            status = wg.TRUNCATED
    for i in range(s.rank):
        for a in range(s.n_objects):
            if frozenset(mat_vec(mats[i][a], r) for r in sets[a]) != sets[s.action[i][a]]:
                status = wg.TRUNCATED
    return positive, status


# the chain 1-2-3-4-5-6-7 with 8 joined to 5
E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)


def _hand_built(action, coefficients, cutoff):
    s = wg.RootGroupoidScheme(
        rank=len(action), objects=tuple("abcd"[: len(action[0])]), action=action,
        coefficients=coefficients, mode=wg.GENERATED,
    )
    return s, cutoff


@st.composite
def _hand_built_schemes(draw):
    """Generated-mode schemes with random actions, involutive or not."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    action = []
    for _ in range(rank):
        if draw(st.booleans()):
            perm = draw(st.permutations(range(n)))
            row = list(range(n))
            for k in range(0, 2 * draw(st.integers(0, n // 2)), 2):
                row[perm[k]], row[perm[k + 1]] = perm[k + 1], perm[k]
        else:
            row = [draw(st.integers(0, n - 1)) for _ in range(n)]
        action.append(tuple(row))
    coefficients = tuple(
        tuple(
            tuple(-1 if j == i else draw(st.integers(0, 3)) for j in range(rank))
            for _ in range(n)
        )
        for i in range(rank)
    )
    return _hand_built(tuple(action), coefficients, draw(st.integers(1, 15)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_hand_built_schemes())
# nothing dropped and every set sign coherent, but generator 2 is not
# involutive and maps one set into a larger one
@example(_hand_built(
    ((1, 0, 2), (1, 2, 2)),
    (((-1, 0), (-1, 0), (-1, 1)), ((0, -1), (0, -1), (1, -1))),
    12,
))
# nothing dropped and sizes equal along every reflection, but a set is
# not its positive half with the negatives: object a holds the mixed-sign
# (1,-1) and (-1,1), so it has six vectors for a positive half of two
@example(_hand_built(
    ((1, 3, 3, 2), (2, 3, 0, 1)),
    (((-1, 0), (-1, 1), (-1, 1), (-1, 1)), ((0, -1), (1, -1), (0, -1), (1, -1))),
    3,
))
# affine A3, a rank-4 Cartan matrix of no finite type: truncated at 20
@example((wg.from_cartan(((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2))), 20))
# A2 on three objects that both generators cycle: finite, not involutive
@example(_hand_built(((1, 2, 0), (2, 0, 1)), (((-1, 1),) * 3, ((1, -1),) * 3), 10))
# alpha_1 + 2 alpha_2 = (2,1) reflects to (2,-1): the sweep over positive
# vectors leaves the cone and runs again over both signs
@example(_hand_built(((0,), (0,)), (((-1, 2),), ((0, -1),)), 12))
# E8, whose highest root has height 29, and BI3, whose highest root at
# object a has height 7
@example((wg.from_cartan(E8), 28))
@example((wg.from_cartan(E8), 29))
@example((wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 6))
def test_worklist_certificate_matches_re_reflection(case):
    s, cutoff = case
    out = wg.generate_roots(s, cutoff)
    assert (out.positive_roots, out.status) == _re_reflection_certificate(s, cutoff)


@pytest.mark.parametrize("cutoff", ["3", True, 2.5, None])
def test_generate_refuses_a_cutoff_that_is_no_int_before_it_sweeps(cutoff, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept")

    monkeypatch.setattr(roots_module, "_sweep", no_sweep)
    with pytest.raises(ValueError, match=f"^cutoff must be an integer, got {re.escape(repr(cutoff))}$"):
        wg.generate_roots(wg.from_cartan(E8), cutoff)


@pytest.mark.parametrize("cutoff", [0, -3])
def test_generate_refuses_a_cutoff_below_one(cutoff):
    with pytest.raises(ValueError, match="^cutoff must be at least 1$"):
        wg.generate_roots(wg.from_cartan(((2,),)), cutoff)


def _sweep_without_skip(s, cutoff, signed):
    """roots._sweep as it was before it skipped steps that undo the step
    that made a vector, kept as the oracle: every vector is reflected by
    every generator."""
    steps = [
        [(i, s.action[i][a], s.coefficients[i][a]) for i in range(s.rank)]
        for a in range(s.n_objects)
    ]
    found = [{basis_vector(s.rank, j) for j in range(s.rank)} for _ in steps]
    pending = [(a, r, 1) for a, vs in enumerate(found) for r in vs]
    dropped = False
    while pending:
        a, r, h = pending.pop()
        for i, target, row in steps[a]:
            x = sum(c * u for c, u in zip(row, r))
            hx = h - abs(r[i]) + abs(x)
            if hx > cutoff:
                dropped = True
                continue
            if x < 0 and not signed:
                if h == r[i] == 1:
                    continue
                return None
            v = r[:i] + (x,) + r[i + 1 :]
            if v not in found[target]:
                found[target].add(v)
                pending.append((target, v, hx))
    return found, dropped


@st.composite
def _sweep_schemes(draw):
    """Generated-mode schemes whose generator actions are involutions,
    other permutations or maps that are no permutation, and whose
    coefficient rows at a and i |> a are often, not always, equal."""
    rank = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    action = []
    for _ in range(rank):
        kind = draw(st.sampled_from(("involution", "permutation", "map")))
        if kind == "involution":
            perm = draw(st.permutations(range(n)))
            row = list(range(n))
            for k in range(0, 2 * draw(st.integers(0, n // 2)), 2):
                row[perm[k]], row[perm[k + 1]] = perm[k + 1], perm[k]
        elif kind == "permutation":
            row = draw(st.permutations(range(n)))
        else:
            row = [draw(st.integers(0, n - 1)) for _ in range(n)]
        action.append(tuple(row))
    coefficients = []
    for i in range(rank):
        rows = {}
        for a in range(n):
            b = action[i][a]
            if b in rows and draw(st.booleans()):
                rows[a] = rows[b]
            else:
                rows[a] = tuple(-1 if j == i else draw(st.integers(0, 3)) for j in range(rank))
        coefficients.append(tuple(rows[a] for a in range(n)))
    return _hand_built(tuple(action), tuple(coefficients), draw(st.integers(1, 12)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_sweep_schemes())
# generator 2 sends both objects to b, and generator 1 swaps a and b with
# equal rows at neither: skipping generator 2 from a vector that it made
# at b is right when it came from b, wrong when it came from a, so the
# step must be judged at the object it started from
@example(_hand_built(((1, 0), (1, 1)), (((-1, 1), (-1, 2)), ((1, -1), (0, -1))), 2))
# affine A3, BI3 and E8 at the cutoff below its highest root
@example((wg.from_cartan(((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2))), 20))
@example((wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 12))
@example((wg.from_cartan(E8), 28))
def test_sweep_finds_what_the_sweep_without_skips_finds(case):
    s, cutoff = case
    for signed in (False, True):
        assert roots_module._sweep(s, cutoff, signed) == _sweep_without_skip(s, cutoff, signed)


# ---------------------------------------------------------------------------
# rank-two data


RANK_TWO_TABLE = {
    # (i, j, object) -> count, from the per-object root listings
    (0, 1): {A: 3, B: 4, C: 3, D: 4, E: 3},
    (0, 2): {A: 2, B: 2, C: 2, D: 2, E: 3},
    (1, 2): {A: 4, B: 4, C: 3, D: 3, E: 3},
}


def test_rank_two_counts(ex5):
    assert wg.rank_two_count(ex5, 0, 1, A) == 3
    assert wg.rank_two_count(ex5, 1, 2, A) == 4
    assert wg.rank_two_count(ex5, 0, 2, E) == 3
    for (i, j), per_obj in RANK_TWO_TABLE.items():
        for a, d in per_obj.items():
            assert wg.rank_two_count(ex5, i, j, a) == d


def test_rank_two_count_symmetry_and_invariance(ex5):
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for a in range(5):
                m = wg.rank_two_count(ex5, i, j, a)
                assert m == wg.rank_two_count(ex5, j, i, a)
                assert m == wg.rank_two_count(ex5, i, j, wg.act(ex5, i, a))
                assert m == wg.rank_two_count(ex5, i, j, wg.act(ex5, j, a))


def test_rank_two_count_infinite_when_truncated():
    aff = wg.generate_roots(wg.from_cartan(((2, -2), (-2, 2))), 10)
    assert wg.rank_two_count(aff, 0, 1, 0) == math.inf


def test_rank_two_count_rejects_equal_generators(ex5):
    with pytest.raises(ValueError):
        wg.rank_two_count(ex5, 1, 1, A)


def test_rank_two_chain_23_at_a(ex5):
    chain = wg.rank_two_positive_chain(ex5, 1, 2, A)
    assert chain == ((0, 1, 0), (0, 2, 1), (0, 1, 1), (0, 0, 1))


def test_rank_two_chain_orthogonal_pair(ex5):
    assert wg.rank_two_positive_chain(ex5, 0, 2, A) == ((1, 0, 0), (0, 0, 1))


def test_rank_two_chain_a2(a2):
    assert wg.rank_two_positive_chain(a2, 0, 1, 0) == ((1, 0), (1, 1), (0, 1))


def test_rank_two_chain_matches_cone(ex5):
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for a in range(5):
                chain = wg.rank_two_positive_chain(ex5, i, j, a)
                assert chain[-1] == ex5.simple_root(j)
                cone = {
                    r
                    for r in ex5.positive_roots[a]
                    if all(r[k] == 0 for k in range(3) if k not in (i, j))
                }
                assert set(chain) == cone
                assert len(chain) == len(cone)


def test_rank_two_chain_rejects_infinite():
    aff = wg.generate_roots(wg.from_cartan(((2, -2), (-2, 2))), 10)
    with pytest.raises(ValueError):
        wg.rank_two_positive_chain(aff, 0, 1, 0)


def test_rank_two_chain_and_count_share_one_bound():
    # G2 truncated at height 3 and stripped of its cutoff: both walks go up
    # to four times the largest stored height, so both pass (2,3) of height 5
    t = dataclasses.replace(wg.generate_roots(wg.from_cartan(((2, -1), (-3, 2))), 3), cutoff=None)
    assert t.status == wg.TRUNCATED
    chain = ((1, 0), (1, 1), (2, 3), (1, 2), (1, 3), (0, 1))
    assert wg.rank_two_positive_chain(t, 0, 1, 0) == chain
    assert wg.rank_two_count(t, 0, 1, 0) == len(chain)


def _dense_chain(s, i, j, a, bound):
    """The rank-two chain walked by dense products: root m is column x_m of
    the product of the first m reflections of the zigzag i, j, i, ... at a.
    Returns the roots walked and the one that stopped the walk, as
    roots._closing_chain does."""
    transform, obj, chain = identity_matrix(s.rank), a, []
    for letter in itertools.cycle((i, j)):
        root = tuple(row[letter] for row in transform)
        if height(root) > bound or root in chain:
            return chain, root
        chain.append(root)
        if root == s.simple_root(j):
            return chain, None
        obj = s.action[letter][obj]
        transform = mat_mul(transform, reflection_matrix(s, letter, obj))


CHAIN_SCHEMES = {
    "example": wg.rank3_example(),
    "B3": wg.generate_roots(wg.from_cartan(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), 30),
    "G2": wg.generate_roots(wg.from_cartan(((2, -1), (-3, 2))), 30),
    "BI3": wg.generate_roots(wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 30),
    # rank two, five objects: the reflection coefficients change along the chain
    "BI2": wg.generate_roots(wg.from_bicharacter(((1, 9), (0, 6)), 12, 12), 30),
}


@pytest.mark.parametrize("name", sorted(CHAIN_SCHEMES))
def test_rank_two_chain_recurrence_equals_dense_walk(name):
    s = CHAIN_SCHEMES[name]
    bound = max(height(r) for pos in s.positive_roots for r in pos)
    for i, j in itertools.permutations(range(s.rank), 2):
        for a in range(s.n_objects):
            chain, stop = _dense_chain(s, i, j, a, bound)
            assert stop is None
            assert wg.rank_two_positive_chain(s, i, j, a) == tuple(chain)
            assert wg.rank_two_count(s, i, j, a) == len(chain)


def test_rank_two_chain_recurrence_escapes_truncated_affine():
    aff = wg.generate_roots(wg.from_cartan(((2, -2), (-2, 2))), 10)
    for i, j in ((0, 1), (1, 0)):
        chain, stop = _dense_chain(aff, i, j, 0, aff.cutoff)
        assert height(stop) > aff.cutoff
        assert _closing_chain(aff, i, j, 0, aff.cutoff) == (chain, stop)
        assert wg.rank_two_count(aff, i, j, 0) == math.inf


# ---------------------------------------------------------------------------
# inversion sets


def test_inversion_set_empty_word(ex5):
    assert len(wg.inversion_set(ex5, (), A)) == 0


def test_inversion_set_single_letter(ex5):
    inv = wg.inversion_set(ex5, (1,), A)
    assert inv.entries == ((1, (0, 1, 0)),)


def test_inversion_set_longest_word(ex5):
    inv = wg.inversion_set(ex5, (0, 1, 0, 2, 1, 2, 0, 2, 1, 0), A)
    assert len(inv) == 10
    assert inv.roots() == frozenset(ex5.positive_roots[A])
    assert [p for p, _ in inv.entries] == list(range(1, 11))


def test_inversion_count_parity(ex5):
    rng = random.Random(99)
    for _ in range(200):
        m = rng.randint(0, 10)
        letters = tuple(rng.randrange(3) for _ in range(m))
        base = rng.randrange(5)
        k = len(wg.inversion_set(ex5, letters, base))
        assert (m - k) % 2 == 0
        assert k <= len(ex5.positive_roots[base])


def test_inversion_set_matches_suffix_formula(ex5):
    # for a reduced word the r-th inverted root, pushed through the word,
    # is minus the image of the r-th letter's simple root under the
    # prefix of the first r - 1 reflections
    rng = random.Random(123)
    checked = 0
    while checked < 40:
        m = rng.randint(1, 8)
        letters = tuple(rng.randrange(3) for _ in range(m))
        base = rng.randrange(5)
        g = wg.element_of_word(ex5, Word(base, letters))
        if wg.length(ex5, g) != m:
            continue
        checked += 1
        inv = wg.inversion_set(ex5, letters, base)
        assert len(inv) == m
        # objects along the word: a_r = (letters r..m) |> base, 1-based r
        for r, beta in inv.entries:
            a_r = wg.act_word(ex5, letters[r - 1 :], base)
            img = wg.element_of_word(ex5, Word(a_r, letters[: r - 1]))
            expected = neg(mat_vec(img.matrix, ex5.simple_root(letters[r - 1])))
            # push beta through the whole word
            assert mat_vec(g.matrix, beta) == expected


def test_inversion_set_requires_finite():
    aff = wg.generate_roots(wg.from_cartan(((2, -2), (-2, 2))), 10)
    with pytest.raises(ValueError):
        wg.inversion_set(aff, (0,), 0)
