"""Command-line front end: parse ideals, run the pipelines, render reports.

Each command, and each of the four `check` commands, declares only the
flags it reads, so a flag it would ignore is refused like an unknown one.
Every output has one command that prints it: the sweep trace and the
complex come from `betti --trace --dump-complex`, and
`scripts/compare_builtin_ideals.py` prints its tables by calling `main`.

Exit codes: 0 success / all checks passed, 1 a parse error or an input the
run refuses (a bad characteristic, split point or generator count), 2 a
requested check failed, and 141, the status of a process ended by SIGPIPE,
when the reader closes standard output before all of it is written (as
`| head` does), with nothing printed; the option parser also exits 2, on an
unknown or missing option and on a flag the command refuses.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import betti as betti_mod
from . import ideals, linalg, morse, pruning, splitting
from .monomials import Monomial, MonomialIdeal, monomial_str
from .taylor import GENERATOR_CAP

SWEEPS = {
    "taylor": pruning.empty_matching,
    "pruned": pruning.prune_taylor,
    "simplicial": pruning.prune_simplicial,
    "lyubeznik": pruning.prune_lyubeznik,
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


def cmd_betti(args, out) -> int:
    I = load_ideal(args.ideal, args.force)
    matching = SWEEPS[args.method](I)
    if args.trace:
        for line in pruning.render_trace(matching, I):
            print(line, file=out)
    if args.dump_complex:
        complex_ = morse.morse_differential(I, matching, validate=False)
        for line in complex_.dump_lines():
            print(line, file=out)
    else:
        complex_ = morse.critical_complex(I, matching, validate=False)
    table = betti_mod.betti_of_complex(complex_)
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
    if "char" in args:
        linalg.check_characteristic(args.char)
    I = load_ideal(args.ideal, args.force)
    matching = SWEEPS[args.method](I)
    if args.what == "matching":
        report = pruning.verify_matching(I.r, matching, I)
        print(
            f"matching={report.is_matching} homogeneous={report.is_homogeneous}"
            f" acyclic={report.is_acyclic}",
            file=out,
        )
        return 0 if report.all_ok else 2
    C = morse.morse_differential(I, matching, validate=False)
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
        flag = " MINIMAL" if table.same_entries(oracle) else ""
        print(f"{method:<11} totals {table.totals()}{flag}", file=out)
    return 0


def cmd_split(args, out) -> int:
    I = load_ideal(args.ideal, args.force)
    points = [args.at] if args.at is not None else list(range(1, I.r))
    if not points:
        raise ValueError("one generator has no split point; --scan needs two or more")
    reports = splitting._check_splittings(I, points, force=args.force)
    all_ok = all(rep.is_pruned_splitting and rep.residuals_zero for rep in reports)
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

    def common(sp, method=False, fmt=False, char=False):
        """--ideal and --force, plus the flags that the command reads."""
        sp.add_argument("--ideal", required=True, help="builtin, file, or inline text")
        sp.add_argument("--force", action="store_true", help="lift the generator cap")
        if method:
            sp.add_argument("--method", choices=METHODS, default="pruned")
        if fmt:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        if char:
            sp.add_argument("--char", type=int, default=0, help="field characteristic")

    sp = sub.add_parser("betti", help="Betti diagram of a chosen resolution")
    common(sp, method=True, fmt=True)
    sp.add_argument("--trace", action="store_true", help="print prune log lines")
    sp.add_argument(
        "--dump-complex", action="store_true", help="print cells and entries"
    )
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("true-betti", help="true Betti numbers from an oracle")
    common(sp, fmt=True, char=True)
    sp.add_argument("--oracle", choices=("tor", "hochster"), default="tor")
    sp.set_defaults(func=cmd_true_betti)

    checks = sub.add_parser("check", help="run a verification").add_subparsers(
        dest="what", required=True
    )
    for what in ("matching", "dsquared", "exact", "minimal"):
        sp = checks.add_parser(what)
        common(sp, method=True, char=what in ("exact", "minimal"))
        sp.set_defaults(func=cmd_check)

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
    if args.command == "betti" and args.format == "json":
        if args.trace or args.dump_complex:
            parser.error("--format json prints JSON only: no --trace, --dump-complex")
    try:
        code = args.func(args, sys.stdout)
        # a reader gone before the last buffered write shows here, not in
        # the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except ideals.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: standard output now writes to os.devnull, so
        # that the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
