"""Command-line front end.

Every library capability is exposed as a subcommand.  Words on the
command line are space-separated 1-based generator indices and objects
are referred to by name; the library API underneath is 0-based.  With
--machine the output is a stable line protocol: identical inputs produce
byte-identical output.

main() loads --scheme and parses --base, --word and --word2 for every
command, generating roots for those with --cutoff.  Root data that breaks
an axiom is reported as the first failing axiom with its witness, exit 1.
reduce, longest and braid check each length against its canonical word.

Exit codes: 0 success, 1 domain failure (validation failed, words not
equal, non-arithmetic input), 2 usage or input-format error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import constructors, groupoid, rewriting, roots, scheme
from .groupoid import Word
from .scheme import RootGroupoidScheme, SchemeFormatError


class UsageError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None


def _load(path: str) -> RootGroupoidScheme:
    try:
        return scheme.load_scheme(_read_file(path))
    except SchemeFormatError as e:
        raise UsageError(f"{path}: {e}") from None


def _parse_word(s: RootGroupoidScheme, text: str) -> tuple[int, ...]:
    letters = []
    for tok in text.split():
        try:
            v = int(tok)
        except ValueError:
            raise UsageError(f"invalid letter {tok!r} in word") from None
        if not 1 <= v <= s.rank:
            raise UsageError(f"letter {v} out of range 1..{s.rank}")
        letters.append(v - 1)
    return tuple(letters)


def _object(s: RootGroupoidScheme, name: str) -> int:
    try:
        return s.object_index(name)
    except ValueError:
        raise UsageError(f"unknown object {name!r}") from None


def _format_word(s: RootGroupoidScheme, w: Word) -> str:
    letters = " ".join(str(i + 1) for i in w.letters)
    return letters if letters else "(empty)"


def _positive_int(text: str) -> int:
    """The argparse type of --cutoff: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _parse_matrix_file(text: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise UsageError(f"matrix line {lineno}: expected integers") from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise UsageError("matrix file must contain a square integer matrix")
    return tuple(rows)


def _prepare(args) -> RootGroupoidScheme:
    """Load --scheme, generate roots if the command takes --cutoff, resolve
    --base, turn --word and --word2 into Words; in this order."""
    s = _load(args.scheme)
    if hasattr(args, "cutoff") and s.positive_roots is None:
        s = roots.generate_roots(s, args.cutoff)
    if getattr(args, "base", None) is not None:
        args.base = _object(s, args.base)
    for key in ("word", "word2"):
        if hasattr(args, key):
            setattr(args, key, Word(args.base, _parse_word(s, getattr(args, key))))
    return s


# ---------------------------------------------------------------------------
# subcommands; each takes _prepare's scheme (None without --scheme) and args


def cmd_validate(s, args) -> int:
    report = scheme.validate(s)
    for r in report.results:
        line = f"axiom {r.axiom} {'PASS' if r.passed else 'FAIL'}"
        if not r.passed:
            line += f" ({r.witness})"
        elif not args.machine:
            line += f"  [{r.description}; {r.checked} checks]"
        print(line)
    print(f"overall {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_act(s, args) -> int:
    print(f"object {s.objects[scheme.act_word(s, args.word.letters, args.base)]}")
    return 0


def cmd_roots(s, args) -> int:
    print(f"status {s.status}")
    for a in range(s.n_objects):
        print(f"roots {s.objects[a]} {len(s.positive_roots[a])}")
        for r in s.positive_roots[a]:
            print(f"root {s.objects[a]} " + " ".join(str(x) for x in r))
    return 0


def _checked_word(s: RootGroupoidScheme, g: groupoid.GroupoidElement) -> Word:
    """g's canonical reduced word; InconsistentSchemeError unless it has length(g) letters."""
    n = groupoid.length(s, g)
    canon = groupoid.canonical_reduced_word(s, g)
    if len(canon) != n:
        raise scheme.InconsistentSchemeError(f"canonical word has {len(canon)} letters, length {n}")
    return canon


def _report_element(s: RootGroupoidScheme, g: groupoid.GroupoidElement) -> int:
    """Print g's length, canonical reduced word and target."""
    canon = _checked_word(s, g)
    print(f"length {len(canon)}")
    print(f"word {_format_word(s, canon)}")
    print(f"target {s.objects[g.target]}")
    return 0


def cmd_reduce(s, args) -> int:
    return _report_element(s, groupoid.element_of_word(s, args.word))


def cmd_eq(s, args) -> int:
    g = groupoid.element_of_word(s, args.word)
    h = groupoid.element_of_word(s, args.word2)
    if g == h:
        print("EQUAL")
        return 0
    if g.target != h.target:
        print(f"NOT-EQUAL target mismatch: {s.objects[g.target]} != {s.objects[h.target]}")
    else:
        print("NOT-EQUAL matrix mismatch")
    return 1


def cmd_braid(s, args) -> int:
    # blame the root data, not a word
    for w in (args.word, args.word2):
        _checked_word(s, groupoid.element_of_word(s, w))
    try:
        chain = rewriting.braid_connect(s, args.word, args.word2)
    except ValueError as e:
        print(f"FAIL {e}")
        return 1
    print(f"moves {len(chain.moves)}")
    w = args.word
    for mv in chain.moves:
        w = rewriting.apply_move(s, w, mv)
        print(
            f"move {mv.position + 1} {mv.first + 1} {mv.second + 1} {mv.m} "
            f"{s.objects[mv.anchor]} -> {_format_word(s, w)}"
        )
    return 0


def cmd_longest(s, args) -> int:
    return _report_element(s, groupoid.longest_element(s, args.base))


def cmd_enumerate(s, args) -> int:
    elements = groupoid.enumerate_elements(s, args.base)
    print(f"count {len(elements)}")
    for g in elements:
        flat = " ".join(str(x) for row in g.matrix for x in row)
        print(
            f"element {s.objects[g.source]} {s.objects[g.target]} "
            f"{groupoid.length(s, g)} {flat}"
        )
    return 0


def cmd_from_cartan(s, args) -> int:
    matrix = _parse_matrix_file(_read_file(args.matrix))
    try:
        s = constructors.from_cartan(matrix)
    except ValueError as e:
        raise UsageError(str(e)) from None
    sys.stdout.write(scheme.save_scheme(s))
    return 0


def cmd_from_bichar(s, args) -> int:
    matrix = _parse_matrix_file(_read_file(args.matrix))
    if args.order == "generic":
        order = None
    else:
        try:
            order = int(args.order)
        except ValueError:
            raise UsageError("--order expects an integer or 'generic'") from None
    try:
        s = constructors.from_bicharacter(matrix, args.cutoff, order)
    except constructors.NotArithmeticError as e:
        print(f"FAIL {e}")
        return 1
    except ValueError as e:
        raise UsageError(str(e)) from None
    sys.stdout.write(scheme.save_scheme(s))
    return 0


def cmd_export_dot(s, args) -> int:
    lines = ["graph scheme {"]
    for name in s.objects:
        lines.append(f'  "{name}";')
    for i in range(s.rank):
        for a in range(s.n_objects):
            b = s.action[i][a]
            if a < b:
                lines.append(f'  "{s.objects[a]}" -- "{s.objects[b]}" [label="{i + 1}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


def cmd_example(s, args) -> int:
    sys.stdout.write(scheme.save_scheme(constructors.rank3_example()))
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylgroupoid",
        description="Exact computations with root groupoid schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, *, needs_scheme=True, base=False, words=0,
            cutoff=False, base_optional=False):
        p = sub.add_parser(name, help=help_)
        if needs_scheme:
            p.add_argument("--scheme", required=True, metavar="FILE")
        if base:
            # an empty optional --base means every object, as no --base does
            kind = (lambda name: name or None) if base_optional else str
            p.add_argument("--base", required=not base_optional, metavar="OBJ", type=kind)
        for key in ("word", "word2")[:words]:
            p.add_argument(f"--{key}", required=True, metavar="'i1 i2 ...'")
        if cutoff:
            p.add_argument("--cutoff", type=_positive_int, default=30, metavar="N")
        p.add_argument("--machine", action="store_true",
                       help="stable line-oriented output")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the root-system axioms", cutoff=True)
    add("act", cmd_act, "apply a word to an object", base=True, words=1)
    add("roots", cmd_roots, "print positive root sets", cutoff=True)
    add("reduce", cmd_reduce, "canonical reduced word of a word",
        base=True, words=1, cutoff=True)
    add("eq", cmd_eq, "compare the evaluations of two words",
        base=True, words=2)
    add("braid", cmd_braid, "braid-move chain between two reduced words",
        base=True, words=2, cutoff=True)
    add("longest", cmd_longest, "longest element from a source object",
        base=True, cutoff=True)
    add("enumerate", cmd_enumerate, "list all groupoid elements",
        base=True, base_optional=True, cutoff=True)
    p = sub.add_parser("from-cartan", help="build a scheme from a Cartan matrix")
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_from_cartan)
    p = sub.add_parser("from-bichar", help="build a scheme from bicharacter exponents")
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--order", required=True, metavar="N|generic")
    p.add_argument("--cutoff", type=_positive_int, default=1000, metavar="N",
                   help="maximum number of objects to discover")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_from_bichar)
    add("export-dot", cmd_export_dot, "object graph in DOT format")
    add("example", cmd_example, "print the bundled five-object example scheme",
        needs_scheme=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        s = _prepare(args) if hasattr(args, "scheme") else None
        try:
            code = args.func(s, args)
        except scheme.InconsistentSchemeError:
            # name the first failing axiom; if none fails, report the error itself
            failed = next((r for r in scheme.validate(s).results if not r.passed), None) if s else None
            if failed is None:
                raise
            print(f"axiom {failed.axiom} FAIL ({failed.witness})")
            code = 1
        sys.stdout.flush()
        return code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output truncated by the consumer (e.g. piped into head); point
        # stdout at devnull so the interpreter's exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
