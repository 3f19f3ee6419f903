"""Command-line front end: parse ideals, run the pipelines, render reports.

Exit codes: 0 success / all checks passed, 1 usage or parse error, 2 a
requested check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import betti as betti_mod
from . import ideals, linalg, morse, pruning, splitting
from .monomials import Monomial, MonomialIdeal, monomial_str

GENERATOR_CAP = 24

SWEEPS = {
    "taylor": pruning.empty_matching,
    "pruned": pruning.prune_taylor,
    "simplicial": pruning.prune_simplicial,
    "lyubeznik": pruning.prune_lyubeznik,
    "nu": pruning.nu_prune,
}
METHODS = tuple(SWEEPS)


def load_ideal(spec: str, force: bool = False) -> MonomialIdeal:
    builtin = ideals.builtin_ideal(spec)
    if builtin is not None:
        I = builtin
    elif os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            I = ideals.parse_ideal(fh.read())
    else:
        I = ideals.parse_ideal(spec)
    if I.r > GENERATOR_CAP and not force:
        raise ValueError(
            f"refusing {I.r} generators (2^{I.r} faces); pass --force to override"
        )
    return I


def _emit_trace(I: MonomialIdeal, matching: pruning.Matching, out) -> None:
    for line in pruning.render_trace(matching, I):
        print(line, file=out)


def _emit_complex(C: morse.ChainComplex, out) -> None:
    for line in C.dump_lines():
        print(line, file=out)


def cmd_betti(args, out) -> int:
    I = load_ideal(args.ideal, args.force)
    matching = SWEEPS[args.method](I)
    if args.trace:
        _emit_trace(I, matching, out)
    if args.dump_complex:
        complex_ = morse.morse_differential(I, matching, validate=False)
        _emit_complex(complex_, out)
    else:
        complex_ = morse.critical_complex(I, matching, validate=False)
    table = betti_mod.betti_of_complex(complex_)
    if args.method == "nu":
        print("note: nu pruning is a degree-shift approximation", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(table.to_json_dict(), sort_keys=True), file=out)
    else:
        print(betti_mod.render_betti(table), file=out)
    return 0


def cmd_true_betti(args, out) -> int:
    I = load_ideal(args.ideal, args.force)
    if args.oracle == "tor":
        table = betti_mod.tor_betti(I, args.char)
    else:
        table = betti_mod.hochster_betti(I, args.char)
    if args.format == "json":
        print(json.dumps(table.to_json_dict(), sort_keys=True), file=out)
    else:
        print(betti_mod.render_betti(table), file=out)
    return 0


def cmd_check(args, out) -> int:
    linalg.check_characteristic(args.char)
    I = load_ideal(args.ideal, args.force)
    matching = SWEEPS[args.method](I)
    if args.trace:
        _emit_trace(I, matching, out)
    if args.what == "matching":
        report = pruning.verify_matching(I.r, matching, I)
        print(
            f"matching={report.is_matching} homogeneous={report.is_homogeneous}"
            f" acyclic={report.is_acyclic}",
            file=out,
        )
        return 0 if report.all_ok else 2
    C = morse.morse_differential(I, matching, validate=False)
    if args.dump_complex:
        _emit_complex(C, out)
    if args.what == "dsquared":
        ok = morse.check_d_squared(C)
        print(f"dsquared={ok}", file=out)
    elif args.what == "exact":
        ok = morse.check_exactness(I, C, args.char)
        print(f"exact={ok} char={args.char}", file=out)
    else:
        ok = morse.check_minimal(C, args.char)
        print(f"minimal={ok} char={args.char}", file=out)
    return 0 if ok else 2


def cmd_compare(args, out) -> int:
    I = load_ideal(args.ideal, args.force)
    oracle = betti_mod.tor_betti(I, args.char)
    print(f"oracle (char {args.char}): totals {oracle.totals()}", file=out)
    for method in METHODS:
        matching = SWEEPS[method](I)
        C = morse.critical_complex(I, matching, validate=False)
        table = betti_mod.betti_of_complex(C)
        flags = []
        if table.same_entries(oracle):
            flags.append("MINIMAL")
        if method == "nu":
            flags.append("(approximation)")
        flag_s = (" " + " ".join(flags)) if flags else ""
        print(f"{method:<11} totals {table.totals()}{flag_s}", file=out)
    return 0


def cmd_split(args, out) -> int:
    I = load_ideal(args.ideal, args.force)
    points = [args.at] if args.at is not None else list(range(1, I.r))
    if not points:
        raise ValueError("one generator has no split point; --scan needs two or more")
    # J cap K is generated by the s * (r - s) pairwise lcms, and its Taylor
    # complex is built in full, so the cap on the input guards it too
    for s in points:
        grid = s * (I.r - s)
        if grid > GENERATOR_CAP and not args.force:
            raise ValueError(
                f"refusing split point s={s}: the intersection grid has {grid}"
                f" generators (2^{grid} faces); pass --force to override"
            )
    all_ok = True
    reports = []
    for s in points:
        rep = splitting.check_pruned_splitting(I, s)
        reports.append(rep)
        all_ok = all_ok and rep.is_pruned_splitting and rep.residuals_zero
    if args.format == "json":
        payload = []
        for rep in reports:
            payload.append(
                {
                    "s": rep.s,
                    "is_pruned_splitting": rep.is_pruned_splitting,
                    "residuals_zero": rep.residuals_zero,
                    "edges": [
                        {
                            "sigma": f"{edge[0]:0{I.r}b}"[::-1],
                            "j": edge[1] + 1,
                            "regions": [lo, hi],
                        }
                        for edge, lo, hi in rep.edge_regions
                    ],
                }
            )
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        for rep in reports:
            verdict = "splitting" if rep.is_pruned_splitting else "NOT a splitting"
            print(f"s={rep.s}: {verdict}", file=out)
            for (sigma, j), lo, hi in rep.edge_regions:
                vec = f"{sigma:0{I.r}b}"[::-1]
                print(f"  edge sigma={vec} j={j + 1}: {lo} / {hi}", file=out)
            if rep.residuals is not None:
                if rep.residuals_zero:
                    print("  residuals: all zero", file=out)
                else:
                    for (h, alpha), v in sorted(rep.residuals.items()):
                        mono = monomial_str(Monomial(alpha), I.variables)
                        print(f"  residual[{h},{mono}] = {v}", file=out)
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="prunres",
        description="Cellular resolutions of monomial ideals by pruning the "
        "Taylor complex",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, method=False, trace=False, fmt=False, char=False):
        """--ideal and --force, plus the flags that the subcommand reads."""
        sp.add_argument("--ideal", required=True, help="builtin, file, or inline text")
        sp.add_argument("--force", action="store_true", help="lift the generator cap")
        if method:
            sp.add_argument("--method", choices=METHODS, default="pruned")
        if trace:
            sp.add_argument(
                "--trace", action="store_true", help="print prune log lines"
            )
            sp.add_argument(
                "--dump-complex", action="store_true", help="print cells and entries"
            )
        if fmt:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        if char:
            sp.add_argument("--char", type=int, default=0, help="field characteristic")

    sp = sub.add_parser("betti", help="Betti diagram of a chosen resolution")
    common(sp, method=True, trace=True, fmt=True)
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("true-betti", help="true Betti numbers from an oracle")
    common(sp, fmt=True, char=True)
    sp.add_argument("--oracle", choices=("tor", "hochster"), default="tor")
    sp.set_defaults(func=cmd_true_betti)

    sp = sub.add_parser("check", help="run a verification")
    sp.add_argument(
        "what", choices=("matching", "dsquared", "exact", "minimal")
    )
    common(sp, method=True, trace=True, char=True)
    # None until main knows whether the check reads --char
    sp.set_defaults(func=cmd_check, char=None)

    sp = sub.add_parser("compare", help="all methods side by side vs the oracle")
    common(sp, char=True)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("split", help="pruned Betti splitting report")
    common(sp, fmt=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", type=int, help="split after this many generators")
    group.add_argument("--scan", action="store_true", help="try every split point")
    sp.set_defaults(func=cmd_split)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        if args.what == "matching" and args.dump_complex:
            parser.error("check matching builds no complex: --dump-complex is unread")
        if args.char is None:
            args.char = 0
        elif args.what in ("matching", "dsquared"):
            parser.error(f"check {args.what} ranks nothing: --char is unread")
    if args.command == "betti" and args.format == "json":
        if args.trace or args.dump_complex:
            parser.error("--format json prints JSON only: no --trace, --dump-complex")
    if getattr(args, "method", None) == "nu" and args.command == "check":
        print("check does not accept the nu approximation", file=sys.stderr)
        return 1
    try:
        return args.func(args, sys.stdout)
    except ideals.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
