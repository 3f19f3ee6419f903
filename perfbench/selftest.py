#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py                 # all workloads
    python3 perfbench/selftest.py corpus wide     # counts test on a subset

1. Tracing off means no wrappers: untraced passes call the library's own
   `linalg.rank`, `TaylorComplex` and sweeps, and a tracer that was installed
   and removed records nothing more.
2. Exact counts repeat: two traced runs of one seed, each in a fresh
   process, report identical counts.
"""
from __future__ import annotations

import json
import subprocess
import sys

import run
import tracer
import workloads
from speed import Probe

COUNT_SEED = 1


def check_untraced_means_unwrapped() -> None:
    sys.path.insert(0, str(run.SRC))
    mods = run.load_prunres()
    originals = {t: getattr(getattr(mods, t[0]), t[1]) for t in tracer.TARGETS}
    assert tracer.wrapped(mods) == [], tracer.wrapped(mods)
    wl = workloads.WORKLOADS["corpus"]
    ideals = [mods.ideals.parse_ideal("ring x y z w; gens x*y, y*z, z*w, x*w")]

    tr = tracer.Tracer(mods, lambda I: 1)
    tr.install()
    try:
        assert len(tracer.wrapped(mods)) == len(tracer.TARGETS)
        try:
            run.untraced_pass(mods, wl, ideals, None, Probe())
        except RuntimeError:
            pass
        else:
            raise AssertionError("untraced pass ran with wrappers installed")
        p = workloads.run_pass(mods, wl, ideals, None)
    finally:
        tr.uninstall()
    assert p.failed == 0, p.errors
    assert tr.counts["linalg.rank_calls"] > 0 and tr.counts["taylor.tables"] > 0

    for (mod, attr), fn in originals.items():
        assert getattr(getattr(mods, mod), attr) is fn, f"{mod}.{attr} not restored"
    assert mods.pruning.TaylorComplex is mods.taylor.TaylorComplex
    seen = len(tr.spans)
    p, _ = run.untraced_pass(mods, wl, ideals, None, Probe())
    assert p.failed == 0, p.errors
    assert len(tr.spans) == seen, "a wrapper was still called after uninstall"
    print("ok: untraced passes call the library's own functions")


def traced_counts(name: str) -> dict[str, float]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
           "--seed", str(COUNT_SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


def check_counts_repeat(names: list[str]) -> None:
    for name in names:
        first, second = traced_counts(name), traced_counts(name)
        assert first == second, (name, first, second)
        assert first["taylor.tables"] > 0 and first["linalg.rank_calls"] > 0, first
        print(f"ok: {name}: {len(first)} counts repeat exactly")


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 1
    check_untraced_means_unwrapped()
    check_counts_repeat(names)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
