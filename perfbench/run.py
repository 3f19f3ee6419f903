#!/usr/bin/env python3
"""The prunres benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, each in a fresh process

With --trace 0 a run sets up (import, input generation, parsing) 30 times,
then repeats timed passes over the inputs for about --seconds and prints the
end-to-end metrics: medians over passes, and the process's peak RSS.  With
--trace 1 it alternates untraced and traced passes, prints the per-layer
metrics and writes the spans to perfbench/out/.  Times are rescaled to a
reference machine speed (see speed.py).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

The package is imported from src/ of the checkout holding this file, never
from anywhere else; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import tracer
import workloads
from speed import REFERENCE_S, Probe
from workloads import DEFAULT_SEED, RESOLVE, VALIDATE, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
MODULES = ("ideals", "taylor", "pruning", "morse", "betti", "splitting", "linalg")
SETUP_REPS = 30

UNITS = {"setup_s": "s", "wall_s": "s", "resolve_s": "s", "validate_s": "s",
         "peak_rss_mb": "MB", "error_rate": "ratio"}


class NoPackage(Exception):
    """src/prunres of this checkout cannot be imported."""


def load_prunres() -> types.SimpleNamespace:
    """A fresh import of the package's modules from this checkout's src/."""
    for name in [n for n in sys.modules if n == "prunres" or n.startswith("prunres.")]:
        del sys.modules[name]
    try:
        mods = {m: importlib.import_module(f"prunres.{m}") for m in MODULES}
    except ImportError as exc:
        raise NoPackage(f"cannot import prunres from {SRC}: {exc}") from exc
    for m in mods.values():
        if not Path(m.__file__).resolve().is_relative_to(SRC):
            raise NoPackage(f"{m.__name__} imported from {m.__file__}, not {SRC}")
    return types.SimpleNamespace(**mods)


def load_inputs(name: str, seed: int):
    """A fresh import, the workload's texts for `seed`, and their parses."""
    mods = load_prunres()
    texts = workloads.input_texts(mods.ideals, name, seed)
    return mods, texts, [mods.ideals.parse_ideal(t) for t in texts]


def setup(name: str, seed: int, probe: Probe, reps: int = SETUP_REPS):
    """Import, generate and parse `reps` times; the median time in reference
    seconds, and the modules, texts and ideals of the last repetition."""
    mark = probe.mark()
    times = []
    for _ in range(reps):
        gc.collect()  # frees the previous copy of the modules, untimed
        t0 = probe.clock()
        mods, texts, ideals = load_inputs(name, seed)
        times.append(probe.clock() - t0)
    return statistics.median(times) * probe.factor(mark), mods, texts, ideals


def reference_digests(name: str, seed: int, errors: list[str]):
    """Pinned digests for the default seed; None (compare passes with each
    other) for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(DIGESTS.read_text()).get(name) if DIGESTS.exists() else None
    if pinned is None:
        errors.append(f"no pinned digests for {name} in {DIGESTS.name}")
        return []
    return pinned


def lattice_sizes(mods, ideals):
    """Distinct lcm degrees per input, keyed by id(); computed before timing."""
    sizes = {}
    for I in ideals:
        tc = mods.taylor.TaylorComplex(I)
        sizes[id(I)] = len({tc.exponents(m) for m in tc.faces()})
    return sizes


def untraced_pass(mods, wl, ideals, reference, probe: Probe):
    """One pass with tracing off; the pass and its reference-speed factor."""
    bad = tracer.wrapped(mods)
    if bad:
        raise RuntimeError(f"untraced pass would call wrappers: {bad}")
    gc.collect()
    mark = probe.mark()
    p = workloads.run_pass(mods, wl, ideals, reference, probe)
    return p, probe.factor(mark)


def keep_going(start: float, passes: int, seconds: float) -> bool:
    """True while another pass of the average length still fits."""
    elapsed = perf_counter() - start
    return elapsed * (passes + 1) / passes <= seconds


def totals(passes, errors):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(errors)
    return attempted, failed, list(errors) + [e for p in passes for e in p.errors]


def kind_seconds(p, kind: str, f: float) -> float:
    """A pass's time in one kind of operation, at reference speed: scaled by
    the probes that fell inside those operations, else by the pass's
    factor `f`."""
    probes = p.probes[kind]
    return p.seconds[kind] * (REFERENCE_S / statistics.mean(probes) if probes else f)


def measure(name: str, seed: int, seconds: float, probe: Probe):
    """--trace 0: the end-to-end metrics, times in reference seconds."""
    setup_s, mods, _, ideals = setup(name, seed, probe)
    wl = WORKLOADS[name]
    errors: list[str] = []
    reference = reference_digests(name, seed, errors)
    passes, factors = [], []
    start = perf_counter()
    while not passes or keep_going(start, len(passes), seconds):
        p, f = untraced_pass(mods, wl, ideals, reference, probe)
        reference = reference if reference is not None else p.digests
        passes.append(p)
        factors.append(f)
    attempted, failed, errors = totals(passes, errors)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall * f for p, f in zip(passes, factors)),
        "resolve_s": statistics.median(kind_seconds(p, RESOLVE, f) for p, f in zip(passes, factors)),
        "validate_s": statistics.median(kind_seconds(p, VALIDATE, f) for p, f in zip(passes, factors)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
    }
    return metrics, attempted, failed, len(passes), errors


def measure_traced(name: str, seed: int, seconds: float, probe: Probe):
    """--trace 1: the per-layer metrics, from traced passes alternating with
    untraced ones; trace.overhead_s is the difference of their median walls.
    Times are in reference seconds."""
    _, mods, texts, _ = setup(name, seed, probe, reps=1)
    wl = WORKLOADS[name]
    errors: list[str] = []
    reference = reference_digests(name, seed, errors)
    tr = tracer.Tracer(mods, None, probe.clock)
    mark = probe.mark()
    tr.install()
    try:
        ideals = [mods.ideals.parse_ideal(t) for t in texts]
    finally:
        tr.uninstall()
    parse_s = sum(t1 - t0 for _, _, t0, t1 in tr.spans) * probe.factor(mark)
    sizes = lattice_sizes(mods, ideals)
    tr.lattice_size = lambda I: sizes[id(I)]

    passes, plain, traced, layers, dumps = [], [], [], [], []
    start = perf_counter()
    while not traced or keep_going(start, len(traced), seconds):
        p, f = untraced_pass(mods, wl, ideals, reference, probe)
        reference = reference if reference is not None else p.digests
        plain.append(p.wall * f)
        gc.collect()
        tr.reset()
        mark = probe.mark()
        tr.install()
        try:
            q = workloads.run_pass(mods, wl, ideals, reference, probe)
        finally:
            tr.uninstall()
        f = probe.factor(mark)
        passes += [p, q]
        traced.append(q.wall * f)
        layer = tracer.layer_metrics(tr.spans, tr.counts)
        layers.append({k: v * f if unit_of(k) == "s" else v for k, v in layer.items()})
        t_start = tr.spans[0][2] if tr.spans else 0.0
        dumps.append({
            "wall_s": q.wall,
            "speed_factor": f,
            "spans": [[n, par, t0 - t_start, t1 - t_start] for n, par, t0, t1 in tr.spans],
        })

    # Times are medians over traced passes; counts and their ratios repeat
    # exactly, so the first pass gives them.
    metrics = {"ideals.parse_s": parse_s}
    for k, v in layers[0].items():
        metrics[k] = statistics.median(d[k] for d in layers) if unit_of(k) == "s" else v
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.spans.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "passes": dumps}))
    attempted, failed, errors = totals(passes, errors)
    return metrics, attempted, failed, len(passes), errors


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "ratio" if "ratio" in metric else "count"


def report(name, seed, trace, probe, metrics, attempted, failed, passes, errors) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}  passes {passes}  "
          f"times at reference speed: median probe {statistics.median(probe.samples):.6f} s"
          f" scaled to {REFERENCE_S} s")
    for k, v in metrics.items():
        print(f"  {k:34} {v:>16.6g} {unit_of(k)}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for e in errors[:10]:
        print(f"  failure: {e}", file=sys.stderr)
    shown = {k: v for k, v in metrics.items() if k != "error_rate"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in shown.items()},
    }))


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is the workload's own."""
    merged, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            merged[f"{name}.{k}"] = v
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def pin(name: str) -> int:
    """Write the default seed's digests of one workload to digests.json."""
    mods, _, ideals = load_inputs(name, DEFAULT_SEED)
    p = workloads.run_pass(mods, WORKLOADS[name], ideals, None)
    if p.failed:
        print(f"not pinned: {p.failed} failed operations: {p.errors}", file=sys.stderr)
        return 2
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned[name] = p.digests
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(p.digests)} digests for {name}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="write the default seed's output digests and exit")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        if args.pin:
            return 1 if args.workload == "all" else pin(args.workload)
        if args.workload == "all":
            return run_all(args)
        measure_fn = measure_traced if args.trace else measure
        with Probe() as probe:
            result = measure_fn(args.workload, args.seed, args.seconds, probe)
    except NoPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.trace, probe, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
