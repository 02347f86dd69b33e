import json
import os
import subprocess
import sys

import pytest

import weylgroupoid as wg
from weylgroupoid.cli import main

LONGEST = "1 2 1 3 2 3 1 3 2 1"
COUNTER = "2 1 3 2 3 1 3 2 1 3"


@pytest.fixture(scope="module")
def scheme_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("schemes") / "example.json"
    path.write_text(wg.save_scheme(wg.rank3_example()), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_passes(scheme_file, capsys):
    code, out = run(capsys, "validate", "--scheme", scheme_file, "--machine")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [f"axiom {k} PASS" for k in range(1, 8)] + ["overall PASS"]


def test_validate_mutated_fails(scheme_file, capsys, tmp_path):
    doc = json.loads(wg.save_scheme(wg.rank3_example()))
    doc["roots"][0] = [r for r in doc["roots"][0] if r != [0, 2, 1]]
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "validate", "--scheme", str(bad), "--machine")
    assert code == 1
    assert "axiom 5 FAIL" in out
    assert "generator 1 at object a" in out


def test_validate_garbage_file(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{{{{", encoding="utf-8")
    code, _ = run(capsys, "validate", "--scheme", str(bad))
    assert code == 2


def test_validate_missing_file(capsys):
    code, _ = run(capsys, "validate", "--scheme", "/nonexistent/file.json")
    assert code == 2


def test_act(scheme_file, capsys):
    code, out = run(capsys, "act", "--scheme", scheme_file, "--base", "a", "--word", "1 3")
    assert code == 0
    assert out.strip() == "object d"


def test_act_unknown_object(scheme_file, capsys):
    code, _ = run(capsys, "act", "--scheme", scheme_file, "--base", "z", "--word", "1")
    assert code == 2


def test_act_bad_letter(scheme_file, capsys):
    code, _ = run(capsys, "act", "--scheme", scheme_file, "--base", "a", "--word", "4")
    assert code == 2


def test_reduce_square(scheme_file, capsys):
    code, out = run(capsys, "reduce", "--scheme", scheme_file, "--base", "a", "--word", "2 2")
    assert code == 0
    assert "length 0" in out
    assert "word (empty)" in out


def test_reduce_longest(scheme_file, capsys):
    code, out = run(capsys, "reduce", "--scheme", scheme_file, "--base", "a", "--word", LONGEST)
    assert code == 0
    assert "length 10" in out


def test_eq_commuting(scheme_file, capsys):
    code, out = run(
        capsys, "eq", "--scheme", scheme_file, "--base", "a",
        "--word", "1 3", "--word2", "3 1",
    )
    assert code == 0
    assert out.strip() == "EQUAL"


def test_eq_counterexample(scheme_file, capsys):
    code, out = run(
        capsys, "eq", "--scheme", scheme_file, "--base", "a",
        "--word", LONGEST, "--word2", COUNTER,
    )
    assert code == 1
    assert out.strip() == "NOT-EQUAL target mismatch: d != e"


def test_braid_chain(scheme_file, capsys):
    code, out = run(
        capsys, "braid", "--scheme", scheme_file, "--base", "a",
        "--word", "1 2 1", "--word2", "2 1 2",
    )
    assert code == 0
    assert out.splitlines()[0] == "moves 1"


def test_braid_counterexample(scheme_file, capsys):
    code, out = run(
        capsys, "braid", "--scheme", scheme_file, "--base", "a",
        "--word", LONGEST, "--word2", COUNTER,
    )
    assert code == 1
    assert "target mismatch" in out


def test_longest(scheme_file, capsys):
    code, out = run(capsys, "longest", "--scheme", scheme_file, "--base", "a")
    assert code == 0
    assert "length 10" in out
    assert "target d" in out


def run_subprocess(*argv):
    # a hang fails the calling test at the timeout instead of stalling it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wg.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "weylgroupoid.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )


def test_longest_on_invalid_scheme_names_axiom(affine_file):
    p = run_subprocess("longest", "--scheme", str(affine_file), "--base", "a", "--machine")
    assert p.returncode == 1
    assert p.stdout.startswith("axiom 5 FAIL (generator 1 at object a")


@pytest.mark.parametrize("word", ["1 2 1 2", "1 2", "2 1 2 1 2 1"])
def test_reduce_on_invalid_scheme_names_axiom(affine_file, word):
    # "1 2 1 2" used to print "length 1"
    p = run_subprocess("reduce", "--scheme", str(affine_file), "--base", "a",
                       "--word", word, "--machine")
    assert p.returncode == 1
    assert p.stdout.startswith("axiom 5 FAIL (generator 1 at object a")


def test_enumerate_on_invalid_scheme_names_axiom(affine_file):
    p = run_subprocess("enumerate", "--scheme", str(affine_file), "--machine")
    assert p.returncode == 1
    assert p.stdout.startswith("axiom 5 FAIL (generator 1 at object a")


def test_braid_on_invalid_scheme_names_axiom(affine_file):
    # "1 2" is reduced in affine A1; braid used to print "FAIL first word is not reduced"
    p = run_subprocess("braid", "--scheme", str(affine_file), "--base", "a",
                       "--word", "1 2", "--word2", "1 2", "--machine")
    assert p.returncode == 1
    assert p.stdout.startswith("axiom 5 FAIL (generator 1 at object a")


def test_longest_cross_checks_its_length(tmp_path):
    # on root data that fails axiom 4 the longest element's length (1) and
    # its canonical word (2 1) disagree; longest used to print both, exit 0
    path = tmp_path / "axiom4.json"
    path.write_text(json.dumps({
        "rank": 2, "objects": ["a"], "action": [[0], [0]],
        "coefficients": [[[-1, 3]], [[0, -1]]], "mode": "prescribed",
        "roots": [[[0, 1], [0, 2], [1, 0]]],
    }), encoding="utf-8")
    p = run_subprocess("longest", "--scheme", str(path), "--base", "a", "--machine")
    assert p.returncode == 1
    assert p.stdout == "axiom 4 FAIL (object a, root (0,2) is a multiple of simple root 2)\n"


def test_longest_on_truncated_scheme_reports_truncation(tmp_path, capsys):
    path = tmp_path / "affine.json"
    path.write_text(wg.save_scheme(wg.from_cartan(((2, -2), (-2, 2)))), encoding="utf-8")
    code = main(["longest", "--scheme", str(path), "--base", "a", "--cutoff", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "truncated" in captured.err and "axiom" not in captured.out


def test_braid_on_truncated_scheme_reports_truncation(tmp_path, capsys):
    # braid used to print "FAIL operation requires finite root data ..." on stdout
    a4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    path = tmp_path / "a4.json"
    path.write_text(wg.save_scheme(wg.from_cartan(a4)), encoding="utf-8")
    code = main(["braid", "--scheme", str(path), "--base", "a", "--word", "1 2 1",
                 "--word2", "2 1 2", "--cutoff", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "truncated" in captured.err


def test_roots_lists_all_objects(scheme_file, capsys):
    code, out = run(capsys, "roots", "--scheme", scheme_file, "--machine")
    assert code == 0
    assert "status finite" in out
    assert out.count("root a ") == 10


def test_enumerate_counts(scheme_file, capsys):
    code, out = run(capsys, "enumerate", "--scheme", scheme_file, "--base", "a")
    assert code == 0
    assert out.splitlines()[0] == "count 60"


def test_export_dot(scheme_file, capsys):
    code, out = run(capsys, "export-dot", "--scheme", scheme_file)
    assert code == 0
    assert out.count(";") == 5 + 5  # five nodes, five labelled non-loop edges
    assert '"a" -- "c" [label="1"]' in out


def test_from_cartan_roundtrip(tmp_path, capsys):
    matrix = tmp_path / "a2.txt"
    matrix.write_text("2 -1\n-1 2\n", encoding="utf-8")
    code, out = run(capsys, "from-cartan", "--matrix", str(matrix))
    assert code == 0
    s = wg.load_scheme(out)
    assert s.rank == 2
    assert s.mode == wg.GENERATED


def test_from_cartan_invalid(tmp_path, capsys):
    matrix = tmp_path / "bad.txt"
    matrix.write_text("1 0\n0 1\n", encoding="utf-8")
    code, _ = run(capsys, "from-cartan", "--matrix", str(matrix))
    assert code == 2


def test_from_bichar_generic(tmp_path, capsys):
    matrix = tmp_path / "a2.txt"
    matrix.write_text("2 -1\n-1 2\n", encoding="utf-8")
    code, out = run(capsys, "from-bichar", "--matrix", str(matrix), "--order", "generic")
    assert code == 0
    assert wg.load_scheme(out).n_objects == 1


def test_from_bichar_not_arithmetic(tmp_path, capsys):
    matrix = tmp_path / "bad.txt"
    matrix.write_text("2 -1\n0 2\n", encoding="utf-8")
    code, out = run(capsys, "from-bichar", "--matrix", str(matrix), "--order", "generic")
    assert code == 1
    assert "FAIL" in out


def test_from_bichar_bad_order(tmp_path, capsys):
    matrix = tmp_path / "a2.txt"
    matrix.write_text("2 -1\n-1 2\n", encoding="utf-8")
    code, _ = run(capsys, "from-bichar", "--matrix", str(matrix), "--order", "soon")
    assert code == 2


CUTOFF_COMMANDS = {
    "validate": (),
    "roots": (),
    "reduce": ("--base", "a", "--word", "1 2"),
    "braid": ("--base", "a", "--word", "1 2 1", "--word2", "2 1 2"),
    "longest": ("--base", "a"),
    "enumerate": (),
}


@pytest.mark.parametrize("cutoff", ["0", "-3"])
@pytest.mark.parametrize("kind", ["generated", "prescribed"])
@pytest.mark.parametrize("command", sorted(CUTOFF_COMMANDS))
def test_cutoff_below_one_is_a_usage_error(scheme_file, tmp_path, capsys, command, kind, cutoff):
    # a generated file used to exit 1 from generate_roots; a prescribed one
    # ignored the cutoff and exited 0
    path = scheme_file
    if kind == "generated":
        path = tmp_path / "a2.json"
        path.write_text(wg.save_scheme(wg.from_cartan(((2, -1), (-1, 2)))), encoding="utf-8")
    code = main([command, "--scheme", str(path), *CUTOFF_COMMANDS[command], "--cutoff", cutoff])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--cutoff" in captured.err


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_from_bichar_cutoff_below_one_is_a_usage_error(tmp_path, capsys, cutoff):
    matrix = tmp_path / "a2.txt"
    matrix.write_text("2 -1\n-1 2\n", encoding="utf-8")
    code, out = run(capsys, "from-bichar", "--matrix", str(matrix), "--order", "generic",
                    "--cutoff", cutoff)
    assert code == 2 and out == ""


def test_example_round_trips(capsys):
    code, out = run(capsys, "example")
    assert code == 0
    assert wg.load_scheme(out) == wg.rank3_example()


def test_machine_output_is_stable(scheme_file, capsys):
    _, first = run(capsys, "validate", "--scheme", scheme_file, "--machine")
    _, second = run(capsys, "validate", "--scheme", scheme_file, "--machine")
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main(["act"]) == 2  # missing required flags
