#!/usr/bin/env python3
"""Reproduce the benchmark Betti diagrams for the builtin ideals.

For each builtin, runs `prunres compare`, `prunres check minimal --method
pruned` and `prunres betti --method pruned` at the given characteristic: the
Taylor / pruned / simplicial / Lyubeznik totals next to the true Betti
numbers, whether the pruned differential is minimal, and the pruned diagram.
Exits 1 when a command does, and 141, as the command does, when the reader
closes standard output; a differential that is not minimal (exit 2 of
`check minimal`) is a result, not a failure.

Usage: python scripts/compare_builtin_ideals.py [--char P]
"""
import argparse

from prunres.cli import main as prunres
from prunres.ideals import builtin_ideal

BUILTINS = ("path:5", "cycle:5", "rp2", "example-4-1")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--char", type=int, default=0)
    char = str(ap.parse_args().char)
    for spec in BUILTINS:
        I = builtin_ideal(spec)
        print(f"== {spec}  ({I.r} generators, {I.nvars} variables)")
        for argv in (
            ["compare", "--ideal", spec, "--char", char],
            ["check", "minimal", "--ideal", spec, "--method", "pruned", "--char", char],
            ["betti", "--ideal", spec, "--method", "pruned"],
        ):
            code = prunres(argv)
            if code in (1, 141):
                return code
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
