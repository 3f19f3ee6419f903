"""Spans around the public calls into each prunres module.

The tracer patches module attributes, so it sees exactly the calls that go
through them: the benchmark's own calls, `linalg.rank` (which `morse` and
`betti` call through the module), and `TaylorComplex` where `pruning`,
`morse` and `betti` each bind it by `from .taylor import`.  Nothing in the
library is edited.  Spans stay in memory as (name, parent, start, end) and
are written out when the run ends.

Run as a script on a written spans file to print calls, total and self time
per span name:

    python3 perfbench/tracer.py perfbench/out/strands-seed1.spans.json
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from workloads import SWEEPS

# (module, attribute) pairs the tracer replaces, with the span name of each.
TARGETS = {
    ("ideals", "parse_ideal"): "ideals.parse_ideal",
    ("pruning", "prune_taylor"): "pruning.prune_taylor",
    ("pruning", "prune_simplicial"): "pruning.prune_simplicial",
    ("pruning", "prune_lyubeznik"): "pruning.prune_lyubeznik",
    ("pruning", "verify_matching"): "pruning.verify_matching",
    ("morse", "morse_differential"): "morse.morse_differential",
    ("morse", "check_d_squared"): "morse.check_d_squared",
    ("morse", "check_exactness"): "morse.check_exactness",
    ("betti", "betti_of_complex"): "betti.betti_of_complex",
    ("betti", "tor_betti"): "betti.tor_betti",
    ("betti", "hochster_betti"): "betti.hochster_betti",
    ("splitting", "check_pruned_splitting"): "splitting.check_pruned_splitting",
    ("linalg", "rank"): "linalg.rank",
    ("pruning", "TaylorComplex"): "taylor.TaylorComplex",
    ("morse", "TaylorComplex"): "taylor.TaylorComplex",
    ("betti", "TaylorComplex"): "taylor.TaylorComplex",
}

# span name of each sweep -> its method
METHOD_OF = {f"pruning.{fn}": method for method, fn in SWEEPS.items()}


def wrapped(mods) -> list[str]:
    """The targets that are not the library's own objects right now."""
    out = []
    for mod, attr in TARGETS:
        obj = getattr(getattr(mods, mod), attr)
        home = "prunres.taylor" if attr == "TaylorComplex" else f"prunres.{mod}"
        if hasattr(obj, "__wrapped__") or obj.__module__ != home:
            out.append(f"{mod}.{attr}")
    return out


class Tracer:
    """Records spans and counts while installed; `lattice_size(I)` gives the
    number of distinct lcm degrees of an input ideal (strands per exactness
    check, classes per Tor table)."""

    def __init__(self, mods, lattice_size, clock=perf_counter):
        self.mods = mods
        self.clock = clock
        self.lattice_size = lattice_size
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, self.clock

        def traced(*args, **kw):
            spans = self.spans
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                label = name
                if name == "linalg.rank":
                    char = args[1] if len(args) > 1 else kw["char"]
                    label = "linalg.rank.q" if char == 0 else "linalg.rank.p"
                spans[sid] = (label, parent, t0, t1)
            self._count(name, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name: str, args, out) -> None:
        c = self.counts
        if name == "taylor.TaylorComplex":
            c["taylor.tables"] += 1
            c["taylor.faces"] += 1 << args[0].r
        elif name in METHOD_OF:
            m = METHOD_OF[name]
            faces = 1 << out.r
            c[f"pruning.edges.{m}"] += len(out.edges)
            c[f"pruning.survivors.{m}"] += faces - 2 * len(out.edges)
            c[f"pruning.faces.{m}"] += faces
        elif name == "morse.morse_differential":
            c["morse.cells"] += sum(out.ranks())
            c["morse.entries"] += sum(len(d) for d in out.diffs)
        elif name == "morse.check_exactness":
            c["morse.strands"] += self.lattice_size(args[0])
        elif name == "betti.tor_betti":
            c["betti.classes"] += self.lattice_size(args[0])
        elif name == "linalg.rank":
            c["linalg.rank_calls"] += 1
            c["linalg.rank_nnz"] += sum(len(row) for row in args[0])

    def install(self) -> None:
        for (mod, attr), name in TARGETS.items():
            module = getattr(self.mods, mod)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def span_times(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: calls, total time, and self time (duration minus the
    time covered by direct child spans)."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, total, own = Counter(), Counter(), Counter()
    for i, (name, _, t0, t1) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
    return calls, total, own


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass, without ideals.parse_s and
    trace.overhead_s."""
    calls, total, own = span_times(spans)
    out = {
        "taylor.tables": counts["taylor.tables"],
        "taylor.table_s": total["taylor.TaylorComplex"],
        "taylor.faces": counts["taylor.faces"],
    }
    for fn, m in METHOD_OF.items():
        faces = counts[f"pruning.faces.{m}"]
        survivors = counts[f"pruning.survivors.{m}"]
        out[f"pruning.sweep_s.{m}"] = total[fn]
        out[f"pruning.edges.{m}"] = counts[f"pruning.edges.{m}"]
        out[f"pruning.survivors.{m}"] = survivors
        out[f"pruning.survivor_ratio.{m}"] = survivors / faces if faces else 0.0
    out.update({
        "pruning.verify_s": total["pruning.verify_matching"],
        "morse.differential_s": total["morse.morse_differential"],
        "morse.cells": counts["morse.cells"],
        "morse.entries": counts["morse.entries"],
        "morse.dsq_s": total["morse.check_d_squared"],
        "morse.exactness_s": total["morse.check_exactness"],
        "morse.exactness_self_s": own["morse.check_exactness"],
        "morse.strands": counts["morse.strands"],
        "linalg.rank_calls": counts["linalg.rank_calls"],
        "linalg.rank_nnz": counts["linalg.rank_nnz"],
        "linalg.rank_s.q": total["linalg.rank.q"],
        "linalg.rank_s.p": total["linalg.rank.p"],
        "betti.tor_s": total["betti.tor_betti"],
        "betti.hochster_s": total["betti.hochster_betti"],
        "betti.classes": counts["betti.classes"],
        "splitting.check_s": total["splitting.check_pruned_splitting"],
        "splitting.calls": calls["splitting.check_pruned_splitting"],
    })
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/tracer.py SPANS_FILE", file=sys.stderr)
        return 1
    with open(argv[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    for k, p in enumerate(doc["passes"]):
        calls, total, own = span_times([tuple(s) for s in p["spans"]])
        f = p["speed_factor"]
        print(f"pass {k}: wall {p['wall_s'] * f:.3f} s, {len(p['spans'])} spans,"
              " times at reference speed")
        print(f"  {'span':34} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name in sorted(own, key=own.get, reverse=True):
            print(f"  {name:34} {calls[name]:8d} {total[name] * f:10.4f} {own[name] * f:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
