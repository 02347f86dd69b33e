"""The four benchmark workloads: inputs from a seed, then queries.

Each workload has ``gen_inputs(seed, tables)``, a pure function of the
seed and the scheme tables (rank, object count, reflection coefficients,
action) that returns plain data, and ``setup(seed, api, ctx)``, which
builds the schemes through the library, generates the inputs and returns
the query list.  A query is ``(kind, run, check)``: ``run()`` holds only
calls into the library (or one CLI subprocess) and is what gets timed;
``check(result)`` runs after the clock stops and returns None when the
answer is right, or a message saying what is wrong.

The mix of query kinds and schemes follows a fixed schedule, so that a
seed changes the words, objects and matrices but never the proportions;
that keeps throughput and percentiles comparable between seeds.  Input
pools are sized so that no query repeats within a run at the speed of the
library this benchmark was written against; a much faster library cycles
through the pool again.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
from dataclasses import dataclass, replace

import oracles

ROOT_CUTOFF = 30  # height cutoff for root generation, as the CLI default
OBJECT_CUTOFF = 12  # object cutoff for bicharacter schemes
# Height cutoff of the classify scan.  The finite types of rank at most
# four have highest roots of height at most 11, so 20 certifies them, and
# it bounds what an infinite candidate costs before it is called truncated.
SCAN_CUTOFF = 20

# Multi-object bicharacter schemes (exponents, order of the root of unity).
# BI3: rank 3, five objects, ten positive roots.  BI4: rank 4, five
# objects, thirteen positive roots.
BI3 = (((3, 2, 0), (0, 3, 2), (0, 0, 3)), 6)
BI4 = (((2, 2, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 0, 3)), 4)

# The affine A1 scheme prescribed with only its simple roots: it fails
# axiom 5, which the library reports on validate but not on reduce or
# longest.
AFFINE_A1 = {
    "rank": 2, "objects": ["a"], "action": [[0], [0]],
    "coefficients": [[[-1, 2]], [[2, -1]]], "mode": "prescribed",
    "roots": [[[0, 1], [1, 0]]],
}

SCHEMES = {
    "A3": ("cartan", "A", 3), "A4": ("cartan", "A", 4), "A5": ("cartan", "A", 5),
    "B3": ("cartan", "B", 3), "B4": ("cartan", "B", 4), "D4": ("cartan", "D", 4),
    "D5": ("cartan", "D", 5), "F4": ("cartan", "F", 4), "E6": ("cartan", "E", 6),
    "E7": ("cartan", "E", 7), "E8": ("cartan", "E", 8),
    "EX": ("example",), "BI3": ("bichar",) + BI3, "BI4": ("bichar",) + BI4,
}


@dataclass(frozen=True)
class Context:
    """Where a workload process may write, and how it starts the CLI."""

    workdir: str
    python: str
    src: str


def build_scheme(api, name: str):
    spec = SCHEMES[name]
    if spec[0] == "cartan":
        raw = api.constructors.from_cartan(oracles.cartan_matrix(spec[1], spec[2]))
    elif spec[0] == "example":
        return api.constructors.rank3_example()
    else:
        raw = api.constructors.from_bicharacter(spec[1], OBJECT_CUTOFF, spec[2])
    return api.roots.generate_roots(raw, ROOT_CUTOFF)


def tables(s):
    return (s.rank, s.n_objects, s.coefficients, s.action)


def positive_roots_expected(name: str, s) -> int:
    """|Phi+| per object: closed form for Cartan types, ten for the example.

    The bicharacter schemes have no closed form here; their generated
    root count is used.
    """
    spec = SCHEMES[name]
    if spec[0] == "cartan":
        return oracles.positive_root_count(spec[1], spec[2])
    if spec[0] == "example":
        return 10
    return len(s.positive_roots[0])


def _dumps(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _fail_unless(ok: bool, message: str):
    return None if ok else message


# ---------------------------------------------------------------------------
# walking elements with the scheme tables alone


def _reflect_right(tab, src, cols, j):
    """Columns and source of g followed (on the right) by generator j."""
    _, _, coefficients, action = tab
    new_src = action[j][src]
    row = coefficients[j][new_src]
    cj = cols[j]
    out = []
    for k, ck in enumerate(cols):
        if k == j:
            out.append(tuple(-x for x in cj))
        else:
            out.append(tuple(x + row[k] * y for x, y in zip(ck, cj)))
    return new_src, tuple(out)


@functools.cache
def _identity_cols(rank):
    return tuple(tuple(int(i == j) for i in range(rank)) for j in range(rank))


def random_element(rng, tab, length):
    """A random reduced word of the given length, grown on the right.

    Returns (base, letters, columns); a letter is appended only when it
    lengthens the element, that is when it is not a right descent.
    """
    rank, n_objects = tab[0], tab[1]
    src = rng.randrange(n_objects)
    cols = _identity_cols(rank)
    letters = []
    for _ in range(length):
        ascents = [j for j in range(rank) if not oracles.is_negative(cols[j])]
        if not ascents:
            break
        j = rng.choice(ascents)
        src, cols = _reflect_right(tab, src, cols, j)
        letters.append(j)
    return src, tuple(letters), cols


def random_reduced_word(rng, tab, base, cols, length):
    """Another reduced word of the same element, by random right-descent stripping."""
    rank = tab[0]
    src, stripped = base, []
    for _ in range(length):
        j = rng.choice([j for j in range(rank) if oracles.is_negative(cols[j])])
        src, cols = _reflect_right(tab, src, cols, j)
        stripped.append(j)
    if cols != _identity_cols(rank):
        raise RuntimeError("descent stripping did not reach the identity")
    return tuple(reversed(stripped))


def reduced_length(tab, src, cols):
    """Length of the element with these columns and source, counted by
    stripping right descents until the identity; None if it is stuck."""
    rank, n = tab[0], 0
    while cols != _identity_cols(rank):
        j = next((j for j in range(rank) if oracles.is_negative(cols[j])), None)
        if j is None:
            return None
        src, cols = _reflect_right(tab, src, cols, j)
        n += 1
    return n


def _same_element(tab, base, letters, cols, target=None):
    got, tgt = oracles.word_columns(tab[2], tab[3], letters, base)
    return got == cols and (target is None or tgt == target)


# ---------------------------------------------------------------------------
# element-queries


class ElementQueries:
    """Element operations on warm, once-built schemes.

    ``groupoid`` and ``intmat`` do nearly all the work; root tables or a
    per-scheme cache would show here.
    """

    name = "element-queries"
    schemes = ("E6", "E7", "E8", "F4", "D5", "EX", "BI3", "BI4")
    enumerated = ("D5", "F4", "EX", "BI3", "BI4")
    cycles = 300
    # One enumeration every fifth cycle.  An enumeration costs about as
    # much as 80 light queries, so this keeps it near a fifth of the query
    # time and ops_per_s follows the element operations, not enumeration.
    enumerate_every = 5
    slice_queries = 10 * 56 + 2  # ten cycles with their two enumerations

    @classmethod
    def schedule(cls):
        """One cycle: every light kind twice and longest once per scheme."""
        cycle = []
        for name in cls.schemes:
            cycle += [("reduce", name), ("descents", name), ("inverse", name)] * 2
            cycle.append(("longest", name))
        return cycle

    @classmethod
    def gen_inputs(cls, seed, tabs):
        rng = random.Random(f"{cls.name}:{seed}")
        out = []
        for c in range(cls.cycles):
            for kind, name in cls.schedule():
                rank, n_objects = tabs[name][0], tabs[name][1]
                base = rng.randrange(n_objects)
                if kind == "longest":
                    out.append((kind, name, base, []))
                else:
                    letters = [rng.randrange(rank) for _ in range(rng.randint(10, 40))]
                    out.append((kind, name, base, letters))
            if c % cls.enumerate_every == cls.enumerate_every - 1:
                k = c // cls.enumerate_every
                out.append(("enumerate", cls.enumerated[k % len(cls.enumerated)], 0, []))
        return out

    @classmethod
    def setup(cls, seed, api, ctx):
        built = {name: build_scheme(api, name) for name in cls.schemes}
        tabs = {name: tables(s) for name, s in built.items()}
        G = api.groupoid
        queries = []
        for kind, name, base, letters in cls.gen_inputs(seed, tabs):
            s, tab = built[name], tabs[name]
            w = api.Word(base, tuple(letters))
            if kind == "reduce":
                def run(s=s, w=w):
                    g = G.element_of_word(s, w)
                    return g, G.length(s, g), G.canonical_reduced_word(s, g)

                def check(out, tab=tab, w=w):
                    g, n, c = out
                    cols = tuple(zip(*g.matrix))
                    return _fail_unless(
                        len(c.letters) == n <= len(w.letters)
                        and (len(w.letters) - n) % 2 == 0
                        and c.base == w.base
                        and _same_element(tab, w.base, c.letters, cols, g.target)
                        and _same_element(tab, w.base, w.letters, cols, g.target)
                        and reduced_length(tab, w.base, cols) == n,
                        f"reduce on {w}: length {n}, word {c.letters}",
                    )
            elif kind == "descents":
                def run(s=s, w=w):
                    g = G.element_of_word(s, w)
                    return [j for j in range(s.rank) if G.is_descent(s, g, j)]

                def check(out, tab=tab, w=w):
                    want = [j for j in range(tab[0]) if oracles.is_negative(
                        oracles.image_of_simple(tab[2], tab[3], w.letters, w.base, j)[0])]
                    return _fail_unless(out == want, f"descents of {w}: {out} != {want}")
            elif kind == "inverse":
                def run(s=s, w=w):
                    g = G.element_of_word(s, w)
                    return g, G.compose(g, G.inverse(g))

                def check(out, rank=tab[0]):
                    g, e = out
                    ok = e.source == e.target == g.target and e.matrix == _identity_cols(rank)
                    return _fail_unless(ok, f"g * g^-1 is not the identity at {g.target}")
            elif kind == "longest":
                def run(s=s, base=base):
                    g = G.longest_element(s, base)
                    return g, G.length(s, g)

                def check(out, want=positive_roots_expected(name, s), base=base):
                    g, n = out
                    return _fail_unless(g.source == base and n == want,
                                        f"longest at {base}: length {n} != {want}")
            else:
                def run(s=s):
                    return G.enumerate_elements(s)

                def check(out, name=name, s=s):
                    return _check_enumeration(name, s, out)
            queries.append((kind, run, check))
        return queries


def _check_enumeration(name, s, elements):
    spec = SCHEMES[name]
    if spec[0] == "cartan":
        want = oracles.weyl_group_order(spec[1], spec[2])
        return _fail_unless(len(elements) == want, f"{name}: {len(elements)} elements, not {want}")
    # a connected groupoid has equally many elements from every object
    per_source = [0] * s.n_objects
    for g in elements:
        per_source[g.source] += 1
    return _fail_unless(len(set(per_source)) == 1, f"{name}: per-source counts {per_source}")


# ---------------------------------------------------------------------------
# braid-rewriting


class BraidRewriting:
    """Braid search, reduced-word closure and weak exchange.

    ``rewriting`` and its repeated ``roots.rank_two_count`` calls dominate;
    ``intmat`` does little.  Lengths stay at most nine (closure at most
    eight) because search cost grows steeply with length.
    """

    name = "braid-rewriting"
    schemes = ("A4", "A5", "D4", "B4", "F4", "EX", "BI3")
    cycles = 220
    slice_queries = 8 * 29

    @classmethod
    def schedule(cls):
        cycle = []
        for name in cls.schemes:
            cycle += [("braid", name), ("closure", name), ("braid", name), ("exchange", name)]
        cycle.append(("closure-w0", "A3"))
        return cycle

    @classmethod
    def gen_inputs(cls, seed, tabs):
        rng = random.Random(f"{cls.name}:{seed}")
        # the longest element of A4 (768 reduced words) opens every run
        out = [("closure-w0", "A4", 0, _w0_word(tabs["A4"]), [], -1)]
        for c in range(cls.cycles):
            for slot, (kind, name) in enumerate(cls.schedule()):
                tab = tabs[name]
                if kind == "closure-w0":
                    out.append((kind, name, 0, _w0_word(tab), [], -1))
                    continue
                # Lengths 4-9 (closure 4-8) follow the schedule, not the
                # seed: search cost grows steeply with length, so lengths
                # drawn at random made throughput and p90 vary with the seed.
                length = 4 + (c + slot) % (5 if kind == "closure" else 6)
                while True:
                    base, letters, cols = random_element(rng, tab, length)
                    simple = [j for j in range(tab[0]) if cols[j] in _identity_cols(tab[0])]
                    if kind != "exchange" or simple:
                        break
                other = random_reduced_word(rng, tab, base, cols, len(letters))
                j = rng.choice(simple) if kind == "exchange" else -1
                out.append((kind, name, base, list(letters), list(other), j))
        return out

    @classmethod
    def setup(cls, seed, api, ctx):
        names = cls.schemes + ("A3",)
        built = {name: build_scheme(api, name) for name in names}
        tabs = {name: tables(s) for name, s in built.items()}
        G, R = api.groupoid, api.rewriting
        queries = []
        for kind, name, base, letters, other, j in cls.gen_inputs(seed, tabs):
            s, tab = built[name], tabs[name]
            u = api.Word(base, tuple(letters))
            if kind == "braid":
                v = api.Word(base, tuple(other))

                def run(s=s, u=u, v=v):
                    return R.braid_connect(s, u, v)

                def check(chain, u=u, v=v):
                    moves = [(m.position, m.first, m.second, m.m) for m in chain.moves]
                    return _fail_unless(
                        chain.start == u and chain.end == v
                        and oracles.replay_moves(u.letters, moves) == v.letters,
                        f"braid chain from {u.letters} does not reach {v.letters}",
                    )
            elif kind == "exchange":
                cols = oracles.word_columns(tab[2], tab[3], u.letters, base)[0]
                k0 = cols[j].index(1)

                def run(s=s, u=u, j=j):
                    return R.weak_exchange_factor(s, u, j)

                def check(f, u=u, j=j, k0=k0):
                    return _fail_unless(
                        f.r >= 1 and len(f.j) == len(f.anchors) == f.r and len(f.k) == f.r + 1
                        and f.k[-1] == j and f.k[0] == k0 and f.j[0] == u.letters[0],
                        f"weak exchange of {u.letters} at {j}: {f}",
                    )
            else:
                g = G.element_of_word(s, u)
                want = oracles.staircase_reduced_words(tab[0]) if kind == "closure-w0" else None
                known = {u.letters, tuple(other)} if other else {u.letters}

                def run(s=s, g=g):
                    return R.all_reduced_words(s, g)

                def check(words, tab=tab, u=u, want=want, known=known):
                    cols = oracles.word_columns(tab[2], tab[3], u.letters, u.base)[0]
                    letters = {w.letters for w in words}
                    ok = (
                        (want is None or len(words) == want)
                        and known <= letters
                        and all(w.base == u.base and len(w.letters) == len(u.letters)
                                and _same_element(tab, u.base, w.letters, cols) for w in words)
                    )
                    return _fail_unless(ok, f"closure of {u.letters}: {len(words)} words")
            queries.append((kind, run, check))
        return queries


def _w0_word(tab):
    """A reduced word of the longest element, by growing until no ascent is left."""
    rng = random.Random(0)
    rank = tab[0]
    return list(random_element(rng, tab, rank * rank * 4)[1])


# ---------------------------------------------------------------------------
# classify-scan


class ClassifyScan:
    """Cold scan over candidate bicharacters and Cartan matrices.

    Every query builds a fresh scheme, so ``constructors``, root generation
    and ``validate`` do the work, and a per-scheme cache pays its build
    cost with no reuse: the cold, write-heavy counterpart of
    element-queries.
    """

    name = "classify-scan"
    candidates = 8000
    slice_queries = 20 * 10
    # (kind, rank, order range) per slot of the fixed rotation
    rotation = (
        ("bichar", 2, "small"), ("bichar", 3, "small"), ("bichar", 4, "small"),
        ("cartan", 2, None), ("cartan", 3, None), ("cartan", 4, None),
        ("bichar", 2, "large"), ("bichar", 3, "large"), ("bichar", 4, "large"),
        ("cartan", 3, None),
    )
    small_orders = (2, 3, 4, 5, 6, 8, 10, 12)
    finite_types = {2: (("A", 2), ("B", 2), ("G", 2)), 3: (("A", 3), ("B", 3), ("C", 3)),
                    4: (("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4))}
    edges = ((-1, -1), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4))

    @classmethod
    def gen_inputs(cls, seed, tabs=None):
        rng = random.Random(f"{cls.name}:{seed}")
        out = []
        for k in range(cls.candidates):
            kind, n, orders = cls.rotation[k % len(cls.rotation)]
            if kind == "cartan":
                out.append(("cartan", cls._cartan(rng, n), None))
                continue
            order = rng.choice(cls.small_orders) if orders == "small" else rng.randint(1000, 10000)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = rng.randrange(1, order)
                for j in range(i + 1, n):
                    if j == i + 1 or rng.random() < 0.2:
                        m[i][j] = rng.randrange(order)
            out.append(("bichar", m, order))
        return out

    @classmethod
    def _cartan(cls, rng, n):
        """Half finite types under a random relabelling, half random diagrams."""
        if rng.random() < 0.5:
            c = oracles.cartan_matrix(*rng.choice(cls.finite_types[n]))
            perm = list(range(n))
            rng.shuffle(perm)
            return [[c[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or rng.random() < 0.3:
                    c[i][j], c[j][i] = rng.choice(cls.edges)
        return c

    @classmethod
    def setup(cls, seed, api, ctx):
        C, Ro, Sc, G = api.constructors, api.roots, api.scheme, api.groupoid
        queries = []
        for kind, matrix, order in cls.gen_inputs(seed):
            m = tuple(tuple(row) for row in matrix)
            parts = oracles.classify_cartan(m) if kind == "cartan" else None

            def run(kind=kind, m=m, order=order):
                try:
                    if kind == "cartan":
                        raw = C.from_cartan(m)
                    else:
                        raw = C.from_bicharacter(m, OBJECT_CUTOFF, order)
                except api.NotArithmeticError:
                    return ("not-arithmetic",)
                except ValueError as e:
                    if "cutoff" not in str(e):
                        raise
                    return ("object-cutoff",)
                s = Ro.generate_roots(raw, SCAN_CUTOFF)
                if s.status != "finite":
                    return ("truncated", s)
                report = Sc.validate(s)
                w0 = G.longest_element(s, 0)
                n = G.length(s, w0)
                word = G.canonical_reduced_word(s, w0)
                back = Sc.load_scheme(Sc.save_scheme(replace(s, mode="prescribed")))
                return ("finite", s, report, w0, n, word, back)

            def check(out, kind=kind, parts=parts):
                if kind == "cartan":
                    if (parts is not None) != (out[0] == "finite"):
                        return f"Cartan candidate classified {parts}, library says {out[0]}"
                if out[0] != "finite":
                    return None
                _, s, report, w0, n, word, back = out
                roots = len(s.positive_roots[0])
                if parts is not None and roots != sum(oracles.positive_root_count(*p) for p in parts):
                    return f"{parts}: {roots} positive roots"
                tab = tables(s)
                cols = tuple(zip(*w0.matrix))
                ok = (
                    report.passed and n == roots == len(word.letters)
                    and _same_element(tab, 0, word.letters, cols, w0.target)
                    and back == replace(s, mode="prescribed", cutoff=None)
                )
                return _fail_unless(ok, f"finite candidate failed validate/longest/round trip: {tab[0]}x{tab[1]}")

            queries.append((kind, run, check))
        return queries


# ---------------------------------------------------------------------------
# cli-oneshot


class CliOneshot:
    """One ``python -m weylgroupoid.cli`` subprocess per query.

    The only workload that measures the ``cli`` layer, interpreter start,
    import and ``load_scheme`` the way a user pays for them on every call.
    """

    name = "cli-oneshot"
    cycles = 60
    slice_queries = 2 * 11
    call_limit_s = 10.0
    probe_limit_s = 3.0
    # scheme files each command rotates over, from cycle to cycle
    rotation = {
        "validate": ("E8", "E6", "EX", "BI3", "D5", "F4"),
        "roots": ("E7", "EX", "D4", "BI3", "F4"),
        "reduce": ("E8", "E7", "E6", "EX", "BI3", "D5"),
        "eq": ("E7", "EX", "F4", "BI3", "A4"),
        "braid": ("A4", "EX", "D4", "BI3", "B3"),
        "longest": ("E8", "E7", "E6", "EX", "BI3", "F4"),
        "enumerate": ("A4", "B3", "D4", "EX", "BI3"),
        "act": ("EX", "BI3", "E8"),
    }
    files = ("A4", "B3", "D4", "D5", "F4", "E6", "E7", "E8", "EX", "BI3")

    @classmethod
    def schedule(cls):
        return ("validate", "roots", "reduce", "eq", "braid", "longest", "enumerate",
                "act", "from-cartan", "from-bichar", "validate-affine")

    @classmethod
    def gen_inputs(cls, seed, tabs):
        rng = random.Random(f"{cls.name}:{seed}")
        out = []
        for c in range(cls.cycles):
            for cmd in cls.schedule():
                if cmd in ("validate-affine", "from-cartan", "from-bichar"):
                    if cmd == "from-cartan":
                        n = rng.randint(2, 4)
                        arg = ClassifyScan._cartan(rng, n)
                    elif cmd == "from-bichar":
                        n = rng.randint(2, 3)
                        order = rng.choice(ClassifyScan.small_orders)
                        m = [[rng.randrange(order) if j >= i else 0 for j in range(n)] for i in range(n)]
                        arg = [m, order]
                    else:
                        arg = None
                    out.append((cmd, None, arg))
                    continue
                rot = cls.rotation[cmd]
                name = rot[c % len(rot)]
                tab = tabs[name]
                base = rng.randrange(tab[1])
                if cmd in ("validate", "roots", "enumerate"):
                    arg = None
                elif cmd == "longest":
                    arg = base
                elif cmd in ("reduce", "act"):
                    arg = [base, [rng.randrange(tab[0]) for _ in range(rng.randint(5, 30))]]
                elif cmd == "eq":
                    b, letters, cols = random_element(rng, tab, rng.randint(3, 10))
                    if rng.random() < 0.5:
                        other = random_reduced_word(rng, tab, b, cols, len(letters))
                    else:
                        other = [rng.randrange(tab[0]) for _ in letters]
                    arg = [b, list(letters), list(other)]
                else:  # braid
                    b, letters, cols = random_element(rng, tab, rng.randint(4, 7))
                    arg = [b, list(letters), list(random_reduced_word(rng, tab, b, cols, len(letters)))]
                out.append((cmd, name, arg))
        return out

    @classmethod
    def setup(cls, seed, api, ctx):
        built = {name: build_scheme(api, name) for name in cls.files}
        tabs = {name: tables(s) for name, s in built.items()}
        # generated-mode files hold no roots, so every call generates them
        paths = {name: _write(ctx, f"{name}.json", api.scheme.save_scheme(s)) for name, s in built.items()}
        paths["affine"] = _write(ctx, "affine.json", json.dumps(AFFINE_A1))
        expect = _CliExpectations(api, built, tabs)
        queries = []
        for k, (cmd, name, arg) in enumerate(cls.gen_inputs(seed, tabs)):
            argv, want = expect.build(ctx, k, cmd, name, arg, paths)
            run = cli_runner(ctx, argv, cls.call_limit_s)
            if api.tracer:
                run = api.tracer.wrap(f"cli.{argv[0]}", run)
            queries.append((cmd, run, want))
        return queries

    @classmethod
    def probes(cls, ctx):
        """The two known defects on the affine A1 scheme, as (name, argv, check).

        Each check describes the correct behaviour: exit code 1 with the
        failing axiom named, within the per-call limit.
        """
        path = os.path.join(ctx.workdir, "affine.json")
        want = _fail_on_axiom
        return (
            ("reduce-on-invalid-scheme", ["reduce", "--scheme", path, "--base", "a",
                                          "--word", "1 2 1 2", "--machine"], want),
            ("longest-on-invalid-scheme", ["longest", "--scheme", path, "--base", "a",
                                           "--machine"], want),
        )


def _fail_on_axiom(out):
    code, stdout, stderr = out
    return _fail_unless(code == 1 and "axiom 5" in stdout + stderr,
                        f"exit {code}: {(stdout + stderr).strip()[:80]!r}")


def _write(ctx, filename, text):
    path = os.path.join(ctx.workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cli_env(ctx):
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_runner(ctx, argv, limit):
    """A call of ``python -m weylgroupoid.cli argv`` returning (exit code, stdout, stderr).

    The exit code is None when the call was killed at ``limit`` seconds.
    """
    cmd, env = [ctx.python, "-m", "weylgroupoid.cli", *argv], cli_env(ctx)

    def run():
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=limit)
        except subprocess.TimeoutExpired:
            return (None, "", f"killed at the {limit:g} s per-call limit")
        return (p.returncode, p.stdout, p.stderr)

    return run


def _fmt_word(letters):
    return " ".join(str(i + 1) for i in letters) if letters else "(empty)"


class _CliExpectations:
    """Argument vectors and the checks of their --machine output.

    Expected answers come from the library, in process, during set-up;
    answers that depend only on scheme tables or closed forms are taken
    from the oracles instead.
    """

    def __init__(self, api, built, tabs):
        self.api, self.built, self.tabs = api, built, tabs
        self.cache = {}

    def once(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def build(self, ctx, k, cmd, name, arg, paths):
        G, api = self.api.groupoid, self.api
        s = self.built.get(name)
        names = s.objects if s is not None else None
        scheme_args = ["--scheme", paths[name]] if name else []
        if cmd == "validate-affine":
            argv = ["validate", "--scheme", paths["affine"], "--machine"]
            return argv, _expect(1, lambda out: "axiom 5 FAIL (" in out and out.endswith("overall FAIL\n"))
        if cmd == "validate":
            text = "".join(f"axiom {a} PASS\n" for a in range(1, 8)) + "overall PASS\n"
            return ["validate", *scheme_args, "--machine"], _expect(0, text)
        if cmd == "roots":
            def roots_text():
                lines = [f"status {s.status}"]
                for a, pos in enumerate(s.positive_roots):
                    lines.append(f"roots {names[a]} {len(pos)}")
                    lines += [f"root {names[a]} " + " ".join(map(str, r)) for r in pos]
                return "\n".join(lines) + "\n"
            return ["roots", *scheme_args, "--machine"], _expect(0, self.once(("roots", name), roots_text))
        if cmd == "enumerate":
            def enum_text():
                els = G.enumerate_elements(s)
                lines = [f"count {len(els)}"]
                for g in els:
                    flat = " ".join(str(x) for row in g.matrix for x in row)
                    lines.append(f"element {names[g.source]} {names[g.target]} {G.length(s, g)} {flat}")
                return "\n".join(lines) + "\n"
            text = self.once(("enumerate", name), enum_text)
            spec = SCHEMES[name]
            if spec[0] == "cartan":
                want = oracles.weyl_group_order(spec[1], spec[2])
                if not text.startswith(f"count {want}\n"):
                    raise RuntimeError(f"set-up enumeration of {name} disagrees with |W| = {want}")
            return ["enumerate", *scheme_args, "--machine"], _expect(0, text)
        if cmd == "longest":
            def longest_text():
                g = G.longest_element(s, arg)
                n = G.length(s, g)
                if n != positive_roots_expected(name, s):
                    raise RuntimeError(f"set-up longest element of {name} has length {n}")
                return f"length {n}\nword {_fmt_word(G.canonical_reduced_word(s, g).letters)}\ntarget {names[g.target]}\n"
            text = self.once(("longest", name, arg), longest_text)
            return ["longest", *scheme_args, "--base", names[arg], "--machine"], _expect(0, text)
        if cmd == "act":
            base, letters = arg
            target = oracles.image_of_simple(self.tabs[name][2], self.tabs[name][3], letters, base, 0)[1]
            argv = ["act", *scheme_args, "--base", names[base], "--word", _fmt_word(letters), "--machine"]
            return argv, _expect(0, f"object {names[target]}\n")
        if cmd == "reduce":
            base, letters = arg
            g = G.element_of_word(s, api.Word(base, tuple(letters)))
            text = (f"length {G.length(s, g)}\nword {_fmt_word(G.canonical_reduced_word(s, g).letters)}\n"
                    f"target {names[g.target]}\n")
            argv = ["reduce", *scheme_args, "--base", names[base], "--word", _fmt_word(letters), "--machine"]
            return argv, _expect(0, text)
        if cmd == "eq":
            base, u, v = arg
            g = G.element_of_word(s, api.Word(base, tuple(u)))
            h = G.element_of_word(s, api.Word(base, tuple(v)))
            if g == h:
                code, text = 0, "EQUAL\n"
            elif g.target != h.target:
                code, text = 1, f"NOT-EQUAL target mismatch: {names[g.target]} != {names[h.target]}\n"
            else:
                code, text = 1, "NOT-EQUAL matrix mismatch\n"
            argv = ["eq", *scheme_args, "--base", names[base], "--word", _fmt_word(u),
                    "--word2", _fmt_word(v), "--machine"]
            return argv, _expect(code, text)
        if cmd == "braid":
            base, u, v = arg
            chain = self.api.rewriting.braid_connect(s, api.Word(base, tuple(u)), api.Word(base, tuple(v)))
            argv = ["braid", *scheme_args, "--base", names[base], "--word", _fmt_word(u),
                    "--word2", _fmt_word(v), "--machine"]
            return argv, _expect_braid(tuple(u), tuple(v), len(chain.moves))
        if cmd == "from-cartan":
            path = _write(ctx, f"m{k}.txt", "".join(" ".join(map(str, r)) + "\n" for r in arg))
            text = api.scheme.save_scheme(api.constructors.from_cartan(tuple(map(tuple, arg))))
            return ["from-cartan", "--matrix", path, "--machine"], _expect(0, text)
        # from-bichar
        matrix, order = arg
        path = _write(ctx, f"m{k}.txt", "".join(" ".join(map(str, r)) + "\n" for r in matrix))
        argv = ["from-bichar", "--matrix", path, "--order", str(order), "--cutoff", str(OBJECT_CUTOFF), "--machine"]
        try:
            built = api.constructors.from_bicharacter(tuple(map(tuple, matrix)), OBJECT_CUTOFF, order)
        except api.NotArithmeticError as e:
            return argv, _expect(1, f"FAIL {e}\n")
        except ValueError:
            return argv, _expect(2, None)
        return argv, _expect(0, api.scheme.save_scheme(built))


def _expect(code, text):
    """Check exit code and stdout: equal to ``text``, or accepted by it if callable."""

    def check(out):
        got, stdout, stderr = out
        if got != code:
            return f"exit {got}, expected {code}: {(stdout + stderr).strip()[:120]!r}"
        if text is None:
            return None
        ok = text(stdout) if callable(text) else stdout == text
        return _fail_unless(ok, f"unexpected output {stdout[:120]!r}")

    return check


def _expect_braid(u, v, n_moves):
    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {(stdout + stderr).strip()[:120]!r}"
        lines = stdout.splitlines()
        if not lines or lines[0] != f"moves {n_moves}" or len(lines) != n_moves + 1:
            return f"unexpected braid output {stdout[:120]!r}"
        w = u
        for line in lines[1:]:
            head, _, after = line.partition(" -> ")
            _, p, x, y, m, _anchor = head.split()
            w = oracles.replay_moves(w, [(int(p) - 1, int(x) - 1, int(y) - 1, int(m))])
            if w is None or _fmt_word(w) != after:
                return f"braid move line {line!r} does not replay"
        return _fail_unless(w == v, f"braid chain ends at {w}, not {v}")

    return check


WORKLOADS = {w.name: w for w in (ElementQueries, BraidRewriting, ClassifyScan, CliOneshot)}


def inputs_bytes(name: str, seed: int, api) -> bytes:
    """The serialized inputs a workload generates from a seed."""
    wl = WORKLOADS[name]
    names = {
        ElementQueries: ElementQueries.schemes,
        BraidRewriting: BraidRewriting.schemes + ("A3",),
        ClassifyScan: (),
        CliOneshot: CliOneshot.files,
    }[wl]
    tabs = {n: tables(build_scheme(api, n)) for n in names}
    return _dumps(wl.gen_inputs(seed, tabs))
