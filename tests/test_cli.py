import json
import os
import re
import subprocess
import sys

import pytest

import weylgroupoid as wg
from weylgroupoid.cli import _count_elements, main

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


@pytest.mark.parametrize("argv", [
    ("validate", "--scheme"),
    ("from-cartan", "--matrix"),
    ("from-bichar", "--order", "3", "--matrix"),
], ids=["scheme", "from-cartan", "from-bichar"])
def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff2 -1\n-1 2\n")
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff " \
        "in position 0: invalid start byte\n"


def test_json_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000, encoding="utf-8")
    code = main(["validate", "--scheme", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(f"error: {re.escape(str(path))}: not valid JSON: maximum recursion "
                        "depth exceeded[^\n]*\n", err)


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


def test_roots_on_invalid_scheme_names_axiom(affine_file):
    # roots used to print "status finite" and the two simple roots, exit 0
    p = run_subprocess("roots", "--scheme", str(affine_file), "--machine")
    assert p.returncode == 1
    assert p.stdout.startswith("axiom 5 FAIL (generator 1 at object a")


def test_roots_on_truncated_scheme_prints_its_status(tmp_path, capsys):
    path = tmp_path / "affine.json"
    path.write_text(wg.save_scheme(wg.from_cartan(((2, -2), (-2, 2)))), encoding="utf-8")
    code, out = run(capsys, "roots", "--scheme", str(path), "--cutoff", "5", "--machine")
    assert code == 0
    assert out.splitlines()[0] == "status truncated"


@pytest.mark.parametrize("argv", [
    ("enumerate",),
    ("roots",),
    ("reduce", "--base", "a", "--word", "1"),
])
def test_axiom_4_failure_is_named(tmp_path, argv):
    # BC2: B2 with the roots (0,2) and (2,2); fails axiom 4 only.  enumerate
    # used to print lengths 0-6 and reduce "length 1", both with exit 0
    path = tmp_path / "bc2.json"
    path.write_text(json.dumps({
        "rank": 2, "objects": ["a"], "action": [[0], [0]],
        "coefficients": [[[-1, 1]], [[2, -1]]], "mode": "prescribed",
        "roots": [[[0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [2, 2]]],
    }), encoding="utf-8")
    p = run_subprocess(argv[0], "--scheme", str(path), *argv[1:], "--machine")
    assert p.returncode == 1
    assert p.stdout == "axiom 4 FAIL (object a, root (0,2) is a multiple of simple root 2)\n"


@pytest.mark.parametrize("argv", [
    ("reduce", "--base", "a", "--word", "1 2 1 2 1 2"),
    ("braid", "--base", "a", "--word", "1 2 1", "--word2", "2 1 2"),
])
def test_identity_between_objects_names_axiom_7(tmp_path, capsys, argv):
    # A2 at two objects that generator 2 swaps: (1 2)^3 is the identity
    # matrix from a to b.  Both commands used to print "error: identity
    # matrix between distinct objects ..." on stderr
    path = tmp_path / "a2_swapped.json"
    path.write_text(json.dumps({
        "rank": 2, "objects": ["a", "b"], "action": [[0, 1], [1, 0]],
        "coefficients": [[[-1, 1], [-1, 1]], [[1, -1], [1, -1]]], "mode": "generated",
    }), encoding="utf-8")
    code, out = run(capsys, argv[0], "--scheme", str(path), *argv[1:], "--machine")
    assert code == 1
    assert out == "axiom 7 FAIL (generators 1,2 at object a: theta 2 does not divide count 3)\n"


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


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    # the names a"b and c\ used to end their DOT IDs early: "a"b" -- "c\"
    path = tmp_path / "names.json"
    path.write_text(json.dumps({
        "rank": 1, "objects": ['a"b', "c\\"], "action": [[1, 0]],
        "coefficients": [[[-1], [-1]]], "mode": "prescribed", "roots": [[[1]], [[1]]],
    }), encoding="utf-8")
    code, out = run(capsys, "export-dot", "--scheme", str(path))
    assert code == 0
    assert out.splitlines() == [
        "graph scheme {", '  "a\\"b";', '  "c\\\\";', '  "a\\"b" -- "c\\\\" [label="1"];', "}",
    ]
    # each quoted ID ends at its own closing quote, and unescaping it gives
    # the object name back
    ids = re.findall(r'"((?:[^"\\]|\\.)*)"', out.replace('[label="1"]', ""))
    assert [re.sub(r"\\(.)", r"\1", x) for x in ids] == ['a"b', "c\\", 'a"b', "c\\"]


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


def test_out_of_memory_is_reported_in_one_line(scheme_file, capsys, monkeypatch):
    def exhausted(s, source=None):
        raise MemoryError

    monkeypatch.setattr(wg.groupoid, "_levels", exhausted)
    assert main(["enumerate", "--scheme", scheme_file, "--machine"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumerate ran out of memory\n"


@pytest.mark.parametrize("base, count", [(None, 300), ("a", 60)], ids=["all", "base-a"])
def test_enumerate_prints_each_element_with_its_length(scheme_file, capsys, base, count):
    # the length column is the level number of the enumeration; the
    # oracle walks the length of every element
    s = wg.rank3_example()
    argv = ["enumerate", "--scheme", scheme_file, "--machine"]
    if base is not None:
        argv += ["--base", base]
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"count {count}"
    source = None if base is None else s.object_index(base)
    want = [
        f"element {s.objects[g.source]} {s.objects[g.target]} {wg.length(s, g)} "
        + " ".join(str(x) for row in g.matrix for x in row)
        for g in wg.enumerate_elements(s, source)
    ]
    assert lines[1:] == want


@pytest.mark.parametrize("make", [
    wg.rank3_example,
    lambda: wg.generate_roots(wg.from_cartan(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), 20),
], ids=["EX", "B3"])
def test_count_reads_the_levels_up_to_the_middle(make, monkeypatch):
    # EX has 10 positive roots at every object and B3 has 9: the count
    # doubles the levels below the middle and adds a middle level once
    s = make()
    n = len(s.positive_roots[0])
    levels, read = wg.groupoid._levels, []

    def counted(s, source=None):
        for level in levels(s, source):
            read.append(len(level))
            yield level

    monkeypatch.setattr(wg.groupoid, "_levels", counted)
    for base in (None, *range(s.n_objects)):
        read.clear()
        assert _count_elements(s, base) == sum(map(len, levels(s, base)))
        assert len(read) == n // 2 + 1
