#!/usr/bin/env python3
"""Reproduce the benchmark Betti diagrams for the builtin ideals.

For each builtin, prints the pruned / simplicial / Lyubeznik / Taylor cell
counts next to the true Betti numbers, then the full pruned diagram.

Usage: python scripts/compare_builtin_ideals.py [--char P]
"""
import argparse

from prunres.betti import betti_of_complex, render_betti, tor_betti
from prunres.ideals import builtin_ideal
from prunres.morse import check_minimal, critical_complex, morse_differential
from prunres.pruning import (
    empty_matching,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
)

BUILTINS = ("path:5", "cycle:5", "rp2", "example-4-1")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--char", type=int, default=0)
    args = ap.parse_args()

    for spec in BUILTINS:
        I = builtin_ideal(spec)
        print(f"== {spec}  ({I.r} generators, {I.nvars} variables)")
        oracle = tor_betti(I, args.char)
        print(f"   betti (char {args.char}): {oracle.totals()}")
        rows = (
            ("taylor", empty_matching(I)),
            ("pruned", prune_taylor(I)),
            ("simplicial", prune_simplicial(I)),
            ("lyubeznik", prune_lyubeznik(I)),
        )
        for name, matching in rows:
            C = critical_complex(I, matching, validate=False)
            table = betti_of_complex(C)
            mark = " MINIMAL" if table.same_entries(oracle) else ""
            print(f"   {name:<11}{table.totals()}{mark}")
        pruned = morse_differential(I, prune_taylor(I), validate=False)
        print(f"   pruned differential minimal: {check_minimal(pruned, args.char)}")
        print(render_betti(betti_of_complex(pruned)))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
