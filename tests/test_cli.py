import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from prunres import cli, splitting
from prunres.cli import main
from prunres.ideals import ParseError, builtin_ideal, parse_ideal

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseIdeal:
    def test_basic(self):
        I = parse_ideal("ring x1 x2 x3\ngens x1*x2, x2*x3")
        assert I.r == 2
        assert I.generator_strs() == ["x1*x2", "x2*x3"]

    def test_semicolon_inline(self):
        I = parse_ideal("ring x y; gens x^2, x*y")
        assert I.generator_strs() == ["x^2", "x*y"]

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("ring x y\ngens x*z")
        assert err.value.line == 2

    def test_unit_generator(self):
        with pytest.raises(ParseError):
            parse_ideal("ring x\ngens x^0")

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_ideal("ring x\ngens x^-2")

    def test_malformed_token(self):
        with pytest.raises(ParseError):
            parse_ideal("ring x\ngens x**2")

    def test_oversized_exponent(self):
        with pytest.raises(ParseError):
            parse_ideal("ring x\ngens x^99999999999999")

    def test_missing_ring(self):
        with pytest.raises(ParseError):
            parse_ideal("gens x")

    def test_second_gens_line_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("ring x y; gens x*y; gens y")
        assert (err.value.line, err.value.col) == (1, 21)
        assert "second gens line" in str(err.value)

    def test_trailing_line_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("ring x y\ngens x*y\n  x^2\n")
        assert (err.value.line, err.value.col) == (3, 3)
        assert "trailing text" in str(err.value)

    def test_ring_keyword_is_a_whole_word(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("ringo x; gens x")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_gens_keyword_is_a_whole_word(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("ring x\ngensx")
        assert (err.value.line, err.value.col) == (2, 1)

    def test_columns_count_from_the_real_line(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("ring x y;  gens x, x*q")
        assert (err.value.line, err.value.col) == (1, 20)
        I = parse_ideal("  ring x y ;  gens  x , y^3 ;\n\n")
        assert I.generator_strs() == ["x", "y^3"]

    # a ring name that no gens factor can match: once refused only at the
    # gens line (the first case) or not at all (the others)
    @pytest.mark.parametrize("text, line, col, name", [
        ("ring x, y; gens x", 1, 6, "x,"),
        ("ring x^2 y; gens y", 1, 6, "x^2"),
        ("ring 1x y; gens y", 1, 6, "1x"),
        ("ring x*y z; gens z", 1, 6, "x*y"),
        ("ring x  y-1; gens x", 1, 9, "y-1"),
        ("\n  ring  a é\ngens a", 2, 11, "é"),
    ])
    def test_bad_ring_name_at_its_column(self, text, line, col, name):
        message = re.escape(f"bad variable name {name!r}")
        with pytest.raises(ParseError, match=message) as err:
            parse_ideal(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_duplicate_variable_at_the_repeat(self):
        with pytest.raises(ParseError, match="duplicate variable name 'x'") as err:
            parse_ideal("ring x y x; gens x")
        assert (err.value.line, err.value.col) == (1, 10)
        with pytest.raises(ParseError) as err:
            parse_ideal("ring a\tb a2 b; gens a")
        assert (err.value.line, err.value.col) == (1, 13)


class TestBuiltins:
    def test_path5(self, capsys):
        code, out, _ = run(capsys, "betti", "--ideal", "path:5", "--method", "pruned")
        assert code == 0
        assert out.split() == (
            "0 1 2 3 total: 1 4 4 1 0: 1 . . . 1: . 4 3 . 2: . . 1 1"
        ).split()

    def test_cycle5_generators(self):
        I = builtin_ideal("cycle:5")
        assert I.generator_strs() == [
            "x1*x2",
            "x2*x3",
            "x3*x4",
            "x4*x5",
            "x1*x5",
        ]

    def test_edges_file(self, tmp_path, capsys):
        f = tmp_path / "graph.txt"
        f.write_text("1 2\n2 3\n3 1\n")
        code, out, _ = run(
            capsys, "betti", "--ideal", f"edges:{f}", "--method", "pruned"
        )
        assert code == 0
        assert "total: 1 3 2" in " ".join(out.split())

    def test_edges_file_with_gaps(self, tmp_path):
        f = tmp_path / "graph.txt"
        f.write_text("1 2\n4 5\n")
        I = builtin_ideal(f"edges:{f}")
        assert I.variables == ("x1", "x2", "x4", "x5")
        assert I.generator_strs() == ["x1*x2", "x4*x5"]

    def test_edges_file_large_vertex_number_under_memory_limit(self, tmp_path):
        # One variable per vertex number would be 200 million of them; the
        # child process gets 512 MiB of address space
        f = tmp_path / "graph.txt"
        f.write_text("1 200000000\n")
        limit = 512 << 20
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "prunres.cli", "betti", "--ideal", f"edges:{f}"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)
            ),
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "total: 1 1" in " ".join(proc.stdout.split())

    def test_cycle23_betti_under_memory_limit(self):
        # 2^23 faces under 384 MiB of address space: a face's degree is read
        # from two tables over the halves of the generators (about 190 MB
        # peak RSS on CPython 3.11, Linux, x86-64); a table over every face
        # raised MemoryError
        limit = 384 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "prunres.cli", "betti", "--ideal", "cycle:23",
             "--method", "pruned"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)
            ),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert (
            "total: 1 23 230 1334 5061 13423 25911 37303 40582 33494 20869 9661"
            " 3227 749 113 7"
        ) in " ".join(proc.stdout.split())

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("\n\n", 3),
            ("1 2\n2 3 4\n", 2),
            ("1 2\n\n3\n", 3),
            ("1 two\n", 1),
            ("1 2.5\n", 1),
            ("1 2\n2 2\n", 2),
            ("0 1\n", 1),
            ("1 2\n-1 3\n", 2),
        ],
        ids=["empty", "blank", "three", "one", "word", "decimal", "loop", "zero", "neg"],
    )
    def test_bad_edges_file_names_the_line(self, tmp_path, capsys, text, line):
        f = tmp_path / "graph.txt"
        f.write_text(text)
        code, out, err = run(capsys, "betti", "--ideal", f"edges:{f}")
        assert code == 1
        assert out == ""
        assert err.startswith("parse error: ") and f"line {line}," in err


class TestCommands:
    def test_compare_rp2_char2(self, capsys):
        code, out, _ = run(capsys, "compare", "--ideal", "rp2", "--char", "2")
        assert code == 0
        lines = out.splitlines()
        assert "(1, 10, 15, 7, 1)" in lines[0]
        assert [l.split()[0] for l in lines[1:]] == [
            "taylor", "pruned", "simplicial", "lyubeznik"
        ]
        pruned_line = next(l for l in lines if l.startswith("pruned"))
        assert "(1, 10, 15, 7, 1)" in pruned_line and "MINIMAL" in pruned_line
        lyub_line = next(l for l in lines if l.startswith("lyubeznik"))
        assert "MINIMAL" not in lyub_line

    def test_check_exact_simplicial_cycle7(self, capsys):
        code, out, _ = run(
            capsys, "check", "exact", "--ideal", "cycle:7", "--method", "simplicial"
        )
        assert code == 0
        assert "exact=True" in out

    def test_simplicial_trace_golden(self, capsys):
        # two sweeps on the 5-cycle: steps 1 and 4, then step 2
        code, out, _ = run(
            capsys, "betti", "--ideal", "cycle:5", "--method", "simplicial", "--trace"
        )
        assert code == 0
        assert out == (
            "step=1 sigma=01001 j=1 deg=x1*x2*x3*x5\n"
            "step=1 sigma=01101 j=1 deg=x1*x2*x3*x4*x5\n"
            "step=1 sigma=01011 j=1 deg=x1*x2*x3*x4*x5\n"
            "step=1 sigma=01111 j=1 deg=x1*x2*x3*x4*x5\n"
            "step=4 sigma=00101 j=4 deg=x1*x3*x4*x5\n"
            "step=4 sigma=10101 j=4 deg=x1*x2*x3*x4*x5\n"
            "step=2 sigma=10100 j=2 deg=x1*x2*x3*x4\n"
            "step=2 sigma=10110 j=2 deg=x1*x2*x3*x4*x5\n"
            "       0 1 2 3\n"
            "total: 1 5 7 3\n"
            "    0: 1 . . .\n"
            "    1: . 5 5 2\n"
            "    2: . . 2 1\n"
        )

    def test_check_matching(self, capsys):
        code, out, _ = run(capsys, "check", "matching", "--ideal", "cycle:5")
        assert code == 0
        assert "acyclic=True" in out

    def test_check_minimal_exit_codes(self, capsys):
        code, _, _ = run(capsys, "check", "minimal", "--ideal", "path:5")
        assert code == 0
        code, _, _ = run(
            capsys, "check", "minimal", "--ideal", "path:5", "--method", "taylor"
        )
        assert code == 2

    def test_check_minimal_honours_char(self, capsys):
        # rp2's pruned differential has a +-2 unit entry: not minimal over Q
        # or F_3, minimal over F_2 (see test_rp2_known_discrepancy); the
        # 8-cycle's has a unit entry from a gradient path, the 6-path none
        cases = [("rp2", "0", 2), ("rp2", "2", 0), ("rp2", "3", 2)]
        cases += [("cycle:8", "0", 2), ("path:6", "0", 0)]
        for spec, char, code_expected in cases:
            code, out, _ = run(
                capsys, "check", "minimal", "--ideal", spec, "--char", char
            )
            assert code == code_expected
            assert out == f"minimal={code_expected == 0} char={char}\n"

    @pytest.mark.parametrize("what", ["exact", "minimal"])
    def test_char_defaults_to_zero(self, capsys, what):
        code, out, _ = run(capsys, "check", what, "--ideal", "path:3")
        assert code == 0
        assert out == f"{what}=True char=0\n"

    @pytest.mark.parametrize("what", ["exact", "minimal"])
    def test_bad_char_refused_before_the_sweep(self, capsys, monkeypatch, what):
        def sweep(I):
            raise AssertionError("the sweep ran before --char was checked")

        monkeypatch.setitem(cli.SWEEPS, "pruned", sweep)
        code, out, err = run(
            capsys, "check", what, "--ideal", "cycle:17", "--char", "4"
        )
        assert (code, out) == (1, "")
        assert err == "error: characteristic must be 0 or a prime, got 4\n"

    def test_bad_split_point_refused_before_pruning(self, capsys, monkeypatch):
        def prune(I):
            raise AssertionError("pruned before the split point was checked")

        monkeypatch.setattr(splitting, "prune_taylor", prune)
        code, out, err = run(capsys, "split", "--ideal", "cycle:18", "--at", "40")
        assert (code, out) == (1, "")
        assert err == "error: split point 40 out of range for 18 generators\n"

    def test_true_betti_json(self, capsys):
        code, out, _ = run(
            capsys,
            "true-betti",
            "--ideal",
            "rp2",
            "--char",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"graded", "multigraded"}
        totals = {}
        for i, _, c in payload["graded"]:
            totals[i] = totals.get(i, 0) + c
        assert [totals[i] for i in sorted(totals)] == [1, 10, 15, 7, 1]

    def test_betti_json_is_one_document(self, capsys):
        for method in cli.METHODS:
            code, out, _ = run(
                capsys, "betti", "--ideal", "rp2", "--method", method,
                "--format", "json",
            )
            assert code == 0
            assert json.loads(out) and out.count("\n") == 1

    def test_trace_lines(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--ideal", "path:5", "--method", "pruned", "--trace"
        )
        assert code == 0
        assert out.splitlines()[0] == "step=2 sigma=1010 j=2 deg=x1*x2*x3*x4"

    def test_empty_trace_prints_nothing(self, capsys):
        # the Taylor sweep prunes no edge: no trace line, and no empty one
        _, plain, _ = run(capsys, "betti", "--ideal", "path:5", "--method", "taylor")
        code, out, _ = run(
            capsys, "betti", "--ideal", "path:5", "--method", "taylor", "--trace"
        )
        assert code == 0
        assert out == plain and out.split("\n")[0].split() == ["0", "1", "2", "3", "4"]

    def test_dump_complex(self, capsys):
        code, out, _ = run(
            capsys,
            "betti",
            "--ideal",
            "path:5",
            "--method",
            "pruned",
            "--dump-complex",
        )
        assert code == 0
        assert "F1: 4 cells" in out
        assert any(l.startswith("d1[0,0] = ") for l in out.splitlines())

    def test_split_at(self, capsys):
        code, out, _ = run(capsys, "split", "--ideal", "path:5", "--at", "3")
        assert code == 0
        assert "s=3: splitting" in out
        assert "residuals: all zero" in out

    def test_split_closing_edge_fails(self, capsys):
        code, out, _ = run(capsys, "split", "--ideal", "cycle:5", "--at", "4")
        assert code == 2
        assert "NOT a splitting" in out

    def test_split_scan_json(self, capsys):
        code, out, _ = run(
            capsys, "split", "--ideal", "path:4", "--scan", "--format", "json"
        )
        payload = json.loads(out)
        assert [entry["s"] for entry in payload] == [1, 2]

    def test_split_scan_sweeps_once(self, capsys, monkeypatch):
        # every point of the scan reads the one pruned matching of I; the
        # grids J cap K are swept on their own
        I = builtin_ideal("path:5")
        swept = []
        real = splitting.prune_taylor
        monkeypatch.setattr(
            splitting, "prune_taylor", lambda J: swept.append(J) or real(J)
        )
        code, scan, _ = run(capsys, "split", "--ideal", "path:5", "--scan")
        assert code == 0 and swept.count(I) == 1
        # the scan prints the report of each point, as --at does
        at = [
            run(capsys, "split", "--ideal", "path:5", "--at", str(s)) for s in range(1, I.r)
        ]
        assert scan == "".join(out for _, out, _ in at)
        assert swept.count(I) == I.r

    def test_closed_stdout(self):
        # the reader takes one line of the 2.4 MB trace and closes the pipe:
        # no error is printed, and the exit status is that of SIGPIPE, not
        # the 1 of a refused input
        proc = subprocess.Popen(
            [sys.executable, "-m", "prunres.cli", "betti", "--ideal", "cycle:16",
             "--trace"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.readline().startswith(b"step=1 ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_stdout_closed_before_any_write(self):
        # a short output stays in the buffer of a piped stdout until the
        # end, and its reader is gone before then
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "prunres.cli", "betti", "--ideal", "path:5"],
                stdout=write,
                stderr=subprocess.PIPE,
                env=dict(env, PYTHONPATH=str(SRC)),
                timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_unreadable_edges_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "betti", "--ideal", f"edges:{tmp_path}/missing")
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2]")

    def test_split_scan_one_generator(self, capsys):
        code, out, err = run(capsys, "split", "--scan", "--ideal", "ring x; gens x")
        assert code == 1
        assert out == ""
        assert "one generator has no split point" in err

    @pytest.mark.parametrize("point", [["--at", "5"], ["--scan"]])
    def test_split_grid_over_the_cap(self, point):
        # s = 5 of the 10-cycle builds J cap K from a 25-generator grid, 2^25
        # faces (s = 4 and 6 give 24, within the cap).  Every requested point
        # is checked before any work, so the child process needs neither time
        # nor its 1 GiB of address space, and --scan reports no point first.
        limit = 1 << 30
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "prunres.cli", "split", *point,
             "--ideal", "cycle:10"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)
            ),
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert proc.stdout == ""
        assert "s=5" in proc.stderr and "25 generators" in proc.stderr
        assert "--force" in proc.stderr

    def test_compare_script_minimality_honours_char(self):
        # rp2's pruned differential has a +-2 unit entry: MINIMAL in the
        # table at char 2, and the minimality line must agree
        script = SRC.parent / "scripts" / "compare_builtin_ideals.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--char", "2"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        rp2 = proc.stdout.split("== rp2")[1].split("==")[0].splitlines()
        assert any(l.split()[:1] == ["pruned"] and "MINIMAL" in l for l in rp2)
        assert "minimal=True char=2" in rp2

    def test_seed_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--ideal", "path:3", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "true-betti --ideal path:3 --trace",
            "true-betti --ideal path:3 --dump-complex",
            "betti --ideal path:3 --char 7",
            "compare --ideal path:3 --dump-complex",
            "compare --ideal path:3 --trace",
            "compare --ideal path:3 --format json",
            "split --ideal path:3 --at 1 --char 3",
            "split --ideal path:3 --at 1 --trace",
            "check exact --ideal path:3 --format json",
            "check matching --ideal rp2 --dump-complex",
            "check matching --ideal rp2 --char 2",
            "check dsquared --ideal rp2 --char 4",
            "check exact --ideal path:3 --trace",
            "check minimal --ideal path:3 --dump-complex",
            "check dsquared --ideal path:3 --char 3",
            "betti --ideal path:3 --format json --trace",
            "betti --ideal path:3 --format json --dump-complex",
            "betti --ideal path:3 --dump-complex --format json --trace",
        ],
    )
    def test_unread_flag_rejected(self, capsys, line):
        # a flag the subcommand would ignore is refused like an unknown one
        argv = line.split()
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "betti", "--ideal", "ring x; gens x*q")
        assert code == 1
        assert "unknown variable" in err

    def test_generator_cap(self, capsys):
        gens = ", ".join(f"x{i}" for i in range(1, 26))
        ring = "ring " + " ".join(f"x{i}" for i in range(1, 26))
        code, _, err = run(capsys, "betti", "--ideal", f"{ring}; gens {gens}")
        assert code == 1
        assert "--force" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "compare", "--ideal", "cycle:5")
        _, out2, _ = run(capsys, "compare", "--ideal", "cycle:5")
        assert out1 == out2
