"""Acceptance suite: one test per shipped criterion, all exact.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion; each test also prints an ``ACCEPTANCE`` line on success.
"""

import itertools
import random
import time

import pytest

import weylgroupoid as wg
from weylgroupoid import Word
from weylgroupoid.groupoid import compose, generator_element, identity_element

A, B, C, D, E = range(5)

LONGEST_A = Word(A, (0, 1, 0, 2, 1, 2, 0, 2, 1, 0))
DISPLAY = [
    LONGEST_A,
    Word(A, (0, 1, 0, 1, 2, 1, 0, 2, 1, 0)),
    Word(A, (1, 0, 1, 0, 2, 1, 0, 2, 1, 0)),
    Word(A, (1, 0, 1, 2, 0, 1, 0, 2, 1, 0)),
    Word(A, (1, 0, 1, 2, 1, 0, 1, 2, 1, 0)),
    Word(A, (1, 0, 1, 2, 1, 0, 2, 1, 2, 0)),
    Word(A, (1, 0, 1, 2, 1, 0, 2, 1, 0, 2)),
]
COUNTEREXAMPLE = Word(A, (1, 0, 2, 1, 2, 0, 2, 1, 0, 2))

# relation lengths per object, straight from the per-object root listings
RELATION_TABLE = {
    A: {(0, 1): 3, (0, 2): 2, (1, 2): 4},
    B: {(0, 1): 4, (0, 2): 2, (1, 2): 4},
    C: {(0, 1): 3, (0, 2): 2, (1, 2): 3},
    D: {(0, 1): 4, (0, 2): 2, (1, 2): 3},
    E: {(0, 1): 3, (0, 2): 3, (1, 2): 3},
}


def announce(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_01_axiom_validation(ex5):
    start = time.perf_counter()
    report = wg.validate(ex5)
    elapsed = time.perf_counter() - start
    assert report.passed
    for axiom in range(1, 8):
        assert report.result(axiom).passed
    # the reflection-permutation axiom covers all 15 (generator, object) pairs
    assert report.result(5).checked == 15
    assert elapsed < 1.0
    announce(1, "five-object fixture satisfies all seven axioms")


def test_criterion_02_relation_table(ex5):
    start = time.perf_counter()
    for a, per_pair in RELATION_TABLE.items():
        for (i, j), m in per_pair.items():
            assert wg.rank_two_count(ex5, i, j, a) == m
            side_i = tuple(i if t % 2 == (m - 1) % 2 else j for t in range(m))
            side_j = tuple(j if t % 2 == (m - 1) % 2 else i for t in range(m))
            left = wg.element_of_word(ex5, Word(a, side_i))
            right = wg.element_of_word(ex5, Word(a, side_j))
            assert left == right
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(2, "all 15 rank-two relations hold with matching lengths")


def test_criterion_03_longest_word(ex5):
    start = time.perf_counter()
    g = wg.element_of_word(ex5, LONGEST_A)
    w0 = wg.longest_element(ex5, A)
    assert g == w0
    assert wg.length(ex5, g) == 10 == len(ex5.positive_roots[A])
    maximal = [h for h in wg.enumerate_elements(ex5, A) if wg.length(ex5, h) == 10]
    assert maximal == [w0]
    evaluations = [wg.element_of_word(ex5, w) for w in DISPLAY]
    assert all(h == g for h in evaluations)
    for u, v in zip(DISPLAY, DISPLAY[1:]):
        single_moves = [
            mv for mv in wg.applicable_moves(ex5, u) if wg.apply_move(ex5, u, mv) == v
        ]
        assert len(single_moves) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(3, "longest word display verifies as a braid-move chain")


def test_criterion_04_standard_exchange_counterexample(ex5):
    g = wg.element_of_word(ex5, LONGEST_A)
    h = wg.element_of_word(ex5, COUNTEREXAMPLE)
    assert g != h
    # the first obstruction, comparing source then target, is the target:
    # the leading letters land at d and e respectively
    assert g.source == h.source
    assert (g.target, h.target) == (D, E)
    assert g.target == wg.act(ex5, 0, B)
    assert h.target == wg.act(ex5, 1, C)
    with pytest.raises(ValueError, match="target mismatch: d != e"):
        wg.braid_connect(ex5, LONGEST_A, COUNTEREXAMPLE)
    announce(4, "unequal longest words detected by object mismatch d != e")


def test_criterion_05_braid_closure_matches_brute_force(ex5):
    start = time.perf_counter()
    by_element: dict = {}
    for m in range(0, 7):
        for base in range(5):
            for letters in itertools.product(range(3), repeat=m):
                w = Word(base, letters)
                g = wg.element_of_word(ex5, w)
                if wg.length(ex5, g) == m:
                    by_element.setdefault(g, set()).add(w)
    elements = [g for g in wg.enumerate_elements(ex5) if wg.length(ex5, g) <= 6]
    assert len(elements) == len(by_element)
    for g in elements:
        closure = wg.all_reduced_words(ex5, g)
        assert closure == by_element[g]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(5, f"braid closure equals brute force for {len(elements)} elements")


def test_criterion_06_length_formula(ex5):
    # independent oracle: breadth-first minimal word length over the
    # whole groupoid
    depth = {}
    frontier = [identity_element(ex5, a) for a in range(5)]
    for g in frontier:
        depth[g] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for g in frontier:
            for j in range(3):
                h = compose(g, generator_element(ex5, j, wg.act(ex5, j, g.source)))
                if h not in depth:
                    depth[h] = level
                    nxt.append(h)
        frontier = nxt

    rng = random.Random(20250808)
    for _ in range(1000):
        m = rng.randint(0, 12)
        base = rng.randrange(5)
        letters = tuple(rng.randrange(3) for _ in range(m))
        g = wg.element_of_word(ex5, Word(base, letters))
        inversions = len(wg.inversion_set(ex5, letters, base))
        assert wg.length(ex5, g) == depth[g] == inversions
    announce(6, "length equals minimal word length and inversion count")


def test_criterion_07_weak_exchange_sweep(ex5):
    verified = 0
    for m in range(1, 6):
        for base in range(5):
            for letters in itertools.product(range(3), repeat=m):
                w = Word(base, letters)
                g = wg.element_of_word(ex5, w)
                if wg.length(ex5, g) != m:
                    continue
                for j in range(3):
                    column = [row[j] for row in g.matrix]
                    if sum(column) != 1 or any(x not in (0, 1) for x in column):
                        continue
                    fact = wg.weak_exchange_factor(ex5, w, j)
                    sizes = [
                        wg.rank_two_count(ex5, fact.j[t], fact.k[t], fact.anchors[t])
                        for t in range(fact.r)
                    ]
                    assert sum(sizes) - fact.r == m
                    assert fact.j[0] == letters[0]
                    assert fact.k[-1] == j
                    assert fact.anchors[-1] == base
                    verified += 1
    assert verified == 80  # regression count of hypothesis-satisfying pairs
    announce(7, f"weak exchange verified on {verified} reduced word cases")


def test_criterion_08_cartan_constructors(a2, b2, g2):
    for s, n_roots, n_elements, label in (
        (a2, 3, 6, "A2"),
        (b2, 4, 8, "B2"),
        (g2, 6, 12, "G2"),
    ):
        start = time.perf_counter()
        assert s.status == wg.FINITE
        assert len(s.positive_roots[0]) == n_roots
        assert len(wg.enumerate_elements(s)) == n_elements
        assert time.perf_counter() - start < 1.0, label
    announce(8, "Cartan schemes have 3/4/6 roots and 6/8/12 elements")


def test_criterion_09_theta_divides_rank_two_count(ex5):
    for a in range(5):
        for i, j in itertools.combinations(range(3), 2):
            d = wg.rank_two_count(ex5, i, j, a)
            t = wg.theta(ex5, i, j, a)
            assert isinstance(d, int)
            assert d % t == 0
    assert wg.theta(ex5, 0, 2, A) == 2
    assert wg.theta(ex5, 0, 1, A) == 3
    announce(9, "theta divides every rank-two count")


def test_criterion_10_bicharacter_cartan_consistency():
    cartan = ((2, -1), (-1, 2))
    from_q = wg.from_bicharacter(cartan, 10, None)
    assert wg.schemes_isomorphic(from_q, wg.from_cartan(cartan))
    announce(10, "generic bicharacter scheme is isomorphic to the Cartan scheme")
