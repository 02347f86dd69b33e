"""Spans and counters recorded from outside the library.

The workloads reach the library only through the namespaces that
``make_api`` returns.  Untraced, they hold the library functions themselves.  Traced, each is a
wrapper that records a span named ``<module>.<function>`` whose parent is
the span open when it was called (a query or the set-up phase).  The
traced run also counts calls across a few inner boundaries by replacing
the names that sibling modules bound at import time, such as
``weylgroupoid.groupoid.mat_mul``; those record counts only.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from types import SimpleNamespace

# functions the workloads call, per module
PUBLIC = {
    "groupoid": (
        "element_of_word", "length", "canonical_reduced_word", "is_descent",
        "compose", "inverse", "longest_element", "enumerate_elements",
    ),
    "rewriting": ("braid_connect", "all_reduced_words", "weak_exchange_factor"),
    "roots": ("generate_roots",),
    "constructors": ("from_cartan", "from_bicharacter", "rank3_example"),
    "scheme": ("validate", "load_scheme", "save_scheme"),
}

# (module that bound the name, name, counter) for the count-only boundaries
INNER = (
    ("groupoid", "mat_mul", "intmat.mat_mul.calls"),
    ("roots", "mat_mul", "intmat.mat_mul.calls"),
    ("scheme", "mat_mul", "intmat.mat_mul.calls"),
    ("groupoid", "mat_vec", "intmat.mat_vec.calls"),
    ("roots", "mat_vec", "intmat.mat_vec.calls"),
    ("scheme", "mat_vec", "intmat.mat_vec.calls"),
    ("groupoid", "mat_inverse", "intmat.mat_inverse.calls"),
    ("groupoid", "rank_two_count", "roots.rank_two_count.calls"),
    ("rewriting", "rank_two_count", "roots.rank_two_count.calls"),
    ("roots", "reflect", "roots.reflect.calls"),
    ("scheme", "reflection_matrix", "scheme.reflection_matrix.calls"),
    ("groupoid", "reflection_matrix", "scheme.reflection_matrix.calls"),
    ("roots", "reflection_matrix", "scheme.reflection_matrix.calls"),
)


def _modules():
    return {m: importlib.import_module(f"weylgroupoid.{m}") for m in PUBLIC}


def _result_counts(name, out, counts):
    """Work counts read off a traced call's result."""
    if name == "groupoid.enumerate_elements":
        counts["groupoid.enumerate_elements.elements"] += len(out)
    elif name == "rewriting.braid_connect":
        counts["rewriting.braid_connect.moves"] += len(out.moves)
    elif name == "rewriting.all_reduced_words":
        counts["rewriting.all_reduced_words.words"] += len(out)
    elif name == "roots.generate_roots":
        counts["roots.generate_roots.roots_found"] += sum(len(p) for p in out.positive_roots)
        counts["roots.generate_roots.finite"] += out.status == "finite"
    elif name == "constructors.from_bicharacter":
        counts["constructors.from_bicharacter.objects"] += out.n_objects


class Tracer:
    """Spans kept in memory as [id, parent, name, start_ns, end_ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._inner = None  # (module, name, original, counting wrapper) per INNER entry
        self.count_prefix = ""  # put before the count-only counters' names

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self.stack[-1] if self.stack else None, name, time.perf_counter_ns(), 0])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        begin, end, counts = self.begin, self.end, self.counts

        def traced(*args, **kwargs):
            sid = begin(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                counts[f"{name}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                end(sid)
            _result_counts(name, out, counts)
            return out

        return traced

    def count_calls(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[self.count_prefix + name] += 1
            return fn(*args)

        return counted

    def counting(self, on: bool, prefix: str = "") -> None:
        """Put the count-only wrappers of INNER in place, or the originals back.

        While on, their counts go under ``prefix`` + the counter's name.
        """
        self.count_prefix = prefix
        if self._inner is None:
            mods = _modules()
            self._inner = [
                (mods[m], attr, getattr(mods[m], attr), self.count_calls(counter, getattr(mods[m], attr)))
                for m, attr, counter in INNER
            ]
        for module, attr, original, counted in self._inner:
            setattr(module, attr, counted if on else original)

    def layer_totals(self) -> dict[str, float]:
        """calls and busy_ms per function, self_ms per layer.

        A span's self time is its duration minus the durations of its
        direct children; the layer is the name's first component.
        """
        child_ns = Counter()
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_ms"] += (end - start) / 1e6
            out[f"{name.split('.')[0]}.self_ms"] += (end - start - child_ns[sid]) / 1e6
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "name": name, "start_us": round(start / 1e3, 1),
             "dur_us": round((end - start) / 1e3, 1)}
            for sid, parent, name, start, end in self.spans
        ]


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    """Namespaces of library functions, wrapped with spans when traced."""
    mods = _modules()
    api = SimpleNamespace()
    for module, names in PUBLIC.items():
        fns = {}
        for fn in names:
            raw = getattr(mods[module], fn)
            fns[fn] = raw if tracer is None else tracer.wrap(f"{module}.{fn}", raw)
        setattr(api, module, SimpleNamespace(**fns))
    api.tracer = tracer
    api.Word = mods["groupoid"].Word
    api.NotArithmeticError = mods["constructors"].NotArithmeticError
    return api
