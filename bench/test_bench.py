"""Tests of the benchmark's own parts: inputs, oracles, tracing, entry point.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, make_api  # noqa: E402

import weylgroupoid as wg  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return make_api(None)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, api):
    first = workloads.inputs_bytes(name, 7, api)
    assert workloads.inputs_bytes(name, 7, api) == first
    assert workloads.inputs_bytes(name, 8, api) != first


@pytest.mark.parametrize("name", ["element-queries", "braid-rewriting", "classify-scan"])
def test_queries_run_without_generating_inputs(name, api, monkeypatch, tmp_path):
    wl = workloads.WORKLOADS[name]
    ctx = workloads.Context(str(tmp_path), sys.executable, os.path.join(ROOT, "src"))
    queries = wl.setup(3, api, ctx)

    def no_generation(*args):
        raise AssertionError("input generation inside the timed phase")

    monkeypatch.setattr(wl, "gen_inputs", no_generation)
    monkeypatch.setattr(workloads, "random", None)
    for kind, run, check in queries[1:40]:
        assert check(run()) is None, kind


def test_checks_reject_wrong_answers(api, tmp_path):
    ctx = workloads.Context(str(tmp_path), sys.executable, os.path.join(ROOT, "src"))
    queries = workloads.ElementQueries.setup(5, api, ctx)
    kinds = {}
    for kind, run, check in queries:
        kinds.setdefault(kind, (run, check))
    run, check = kinds["descents"]
    assert check(run()) is None
    assert check(run() + [0]) is not None
    run, check = kinds["longest"]
    g, n = run()
    assert check((g, n)) is None and check((g, n - 1)) is not None


def test_reduce_check_rejects_a_too_long_length_and_word(api, tmp_path):
    """A non-reduced word of the claimed length, of the same parity as the
    input and evaluating to g, is caught by the independent length count."""
    wl = workloads.ElementQueries
    ctx = workloads.Context(str(tmp_path), sys.executable, os.path.join(ROOT, "src"))
    built = {name: workloads.build_scheme(api, name) for name in wl.schemes}
    inputs = wl.gen_inputs(5, {name: workloads.tables(s) for name, s in built.items()})
    for (kind, run, check), (_, name, _, letters) in zip(wl.setup(5, api, ctx), inputs):
        if kind == "reduce":
            g, n, c = run()
            if n + 2 <= len(letters):
                break
    padded = wg.Word(c.base, c.letters + (0, 0))
    assert wg.element_of_word(built[name], padded) == g
    assert check((g, n, c)) is None
    assert check((g, n + 2, padded)) is not None


def test_stanley_counts():
    assert oracles.staircase_reduced_words(3) == 16
    assert oracles.staircase_reduced_words(4) == 768
    a3 = wg.generate_roots(wg.from_cartan(oracles.cartan_matrix("A", 3)), 30)
    assert len(wg.all_reduced_words(a3, wg.longest_element(a3, 0))) == 16


@pytest.mark.parametrize("kind,n", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
                                    ("A", 4), ("D", 4), ("F", 4)])
def test_closed_forms_and_classifier(kind, n):
    c = oracles.cartan_matrix(kind, n)
    s = wg.generate_roots(wg.from_cartan(c), 30)
    assert s.status == "finite"
    assert len(s.positive_roots[0]) == oracles.positive_root_count(kind, n)
    assert len(wg.enumerate_elements(s)) == oracles.weyl_group_order(kind, n)
    assert wg.length(s, wg.longest_element(s, 0)) == oracles.positive_root_count(kind, n)
    parts = oracles.classify_cartan(c)
    assert sum(oracles.positive_root_count(*p) for p in parts) == oracles.positive_root_count(kind, n)


def test_classifier_agrees_with_root_generation():
    rng = random.Random(0)
    for k in range(60):
        c = workloads.ClassifyScan._cartan(rng, 2 + k % 3)
        s = wg.generate_roots(wg.from_cartan(c), 30)
        parts = oracles.classify_cartan(c)
        assert (parts is not None) == (s.status == "finite"), c
        if parts:
            assert len(s.positive_roots[0]) == sum(oracles.positive_root_count(*p) for p in parts)


def test_image_of_simple_matches_the_library():
    s = wg.rank3_example()
    rng = random.Random(1)
    for _ in range(50):
        w = wg.Word(rng.randrange(5), tuple(rng.randrange(3) for _ in range(rng.randint(0, 12))))
        g = wg.element_of_word(s, w)
        cols, target = oracles.word_columns(s.coefficients, s.action, w.letters, w.base)
        assert cols == tuple(zip(*g.matrix)) and target == g.target


def test_random_words_are_reduced_and_equal():
    s = wg.rank3_example()
    tab = workloads.tables(s)
    rng = random.Random(2)
    for _ in range(30):
        base, letters, cols = workloads.random_element(rng, tab, rng.randint(1, 10))
        other = workloads.random_reduced_word(rng, tab, base, cols, len(letters))
        g = wg.element_of_word(s, wg.Word(base, letters))
        assert wg.length(s, g) == len(letters) == len(other)
        assert workloads.reduced_length(tab, base, cols) == len(letters)
        assert wg.element_of_word(s, wg.Word(base, other)) == g


def test_replay_moves():
    assert oracles.replay_moves((0, 1, 0, 2), [(0, 0, 1, 3)]) == (1, 0, 1, 2)
    assert oracles.replay_moves((0, 1, 1), [(0, 0, 1, 3)]) is None


def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [[0, None, "bench.query.x", 0, 10_000_000], [1, 0, "groupoid.length", 2_000_000, 5_000_000],
               [2, 0, "groupoid.length", 6_000_000, 7_000_000]]
    totals = t.layer_totals()
    assert totals["groupoid.length.calls"] == 2
    assert totals["groupoid.length.busy_ms"] == pytest.approx(4.0)
    assert totals["bench.self_ms"] == pytest.approx(6.0)


def test_defect_probe_check_describes_correct_behaviour():
    assert workloads._fail_on_axiom((1, "axiom 5 FAIL (x)\n", "")) is None
    assert workloads._fail_on_axiom((0, "length 1\n", "")) is not None
    assert workloads._fail_on_axiom((None, "", "killed")) is not None


def test_fails_without_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "_work", "__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "element-queries", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert p.returncode != 0 and p.stdout == ""
