import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from prunres import betti, linalg
from prunres.betti import (
    SquarefreeRequiredError,
    betti_of_complex,
    hochster_betti,
    render_betti,
    tor_betti,
)
from prunres.ideals import builtin_ideal, cycle_ideal, parse_ideal
from prunres.linalg import rank
from prunres.monomials import MonomialIdeal
from prunres.morse import critical_complex
from prunres.pruning import empty_matching, prune_lyubeznik, prune_taylor

PATH5_PRUNED_DIAGRAM = """
       0 1 2 3
total: 1 4 4 1
0:     1 . . .
1:     . 4 3 .
2:     . . 1 1
"""

CYCLE5_PRUNED_DIAGRAM = """
       0 1 2 3
total: 1 5 5 1
0:     1 . . .
1:     . 5 5 .
2:     . . . 1
"""

RP2_LYUBEZNIK_DIAGRAM = """
       0  1  2  3 4
total: 1 10 27 27 9
0:     1  .  .  . .
1:     .  .  .  . .
2:     . 10 15 18 9
3:     .  . 12  9 .
"""

# beta_{i,j} of an ideal whose degree shifts j - i reach 2**31 + 4: only the
# rows with entries are printed, runs of empty rows as one "..." line
HUGE_SHIFTS_IDEAL = (
    "ring x y z; gens x^2147483647*y, y^2147483646*z, x*z^5, x^3*y^3"
)
HUGE_SHIFTS_DIAGRAM = """
            0 1 2 3
     total: 1 4 5 2
         0: 1 . . .
        ...
         5: . 2 . .
        ...
         9: . . 1 .
        ...
2147483646: . 1 . .
2147483647: . 1 . .
2147483648: . . 2 .
2147483649: . . . .
2147483650: . . 1 .
2147483651: . . 1 1
2147483652: . . . 1
"""


SRC = Path(__file__).resolve().parent.parent / "src"


def normalized(text):
    return text.split()


class TestBettiOfComplex:
    def test_path5_pruned_rows(self, path5):
        T = betti_of_complex(critical_complex(path5, prune_taylor(path5)))
        g = T.graded()
        assert (g[(1, 2)], g[(2, 3)], g[(2, 4)], g[(3, 5)]) == (4, 3, 1, 1)

    def test_cycle5_lyubeznik_totals(self, cycle5):
        T = betti_of_complex(critical_complex(cycle5, prune_lyubeznik(cycle5)))
        assert T.totals() == (1, 5, 9, 7, 2)

    def test_single_generator(self):
        I = parse_ideal("ring x1 x2\ngens x1*x2")
        T = betti_of_complex(critical_complex(I, prune_taylor(I)))
        assert T.graded() == {(0, 0): 1, (1, 2): 1}

    def test_graded_is_marginal_of_multigraded(self, corpus40):
        for I in corpus40[:10]:
            T = betti_of_complex(critical_complex(I, prune_taylor(I), validate=False))
            marginal = {}
            for (i, alpha), c in T.multigraded.items():
                key = (i, sum(alpha))
                marginal[key] = marginal.get(key, 0) + c
            assert marginal == T.graded()


class TestTorBetti:
    def test_rp2_characteristics(self, builtins):
        rp2 = builtins["rp2"]
        assert tor_betti(rp2, 0).totals() == (1, 10, 15, 6)
        assert tor_betti(rp2, 2).totals() == (1, 10, 15, 7, 1)

    def test_path5_any_char(self, path5):
        for char in (0, 2, 3, 5):
            assert tor_betti(path5, char).totals() == (1, 4, 4, 1)

    def test_invariant_under_redundant_generators(self):
        I = parse_ideal("ring x y z\ngens x*y, y*z")
        J = parse_ideal("ring x y z\ngens x*y, x*y*z, y*z")
        assert tor_betti(I, 0).same_entries(tor_betti(J, 0))

    def test_rejects_composite_characteristic(self, path5):
        with pytest.raises(ValueError):
            tor_betti(path5, 4)


class TestHochsterBetti:
    def test_rp2_char2_top_degree(self, builtins):
        rp2 = builtins["rp2"]
        T = hochster_betti(rp2, 2)
        top = (1, 1, 1, 1, 1, 1)
        assert T.entry(3, top) == 1
        assert T.entry(4, top) == 1
        assert T.totals() == (1, 10, 15, 7, 1)

    def test_rp2_char0(self, builtins):
        assert hochster_betti(builtins["rp2"], 0).totals() == (1, 10, 15, 6)

    def test_single_edge(self):
        I = parse_ideal("ring x1 x2\ngens x1*x2")
        T = hochster_betti(I, 0)
        assert T.multigraded == {(0, (0, 0)): 1, (1, (1, 1)): 1}

    def test_cycle5_matches_tor(self, cycle5):
        for char in (0, 2):
            assert hochster_betti(cycle5, char).same_entries(tor_betti(cycle5, char))

    def test_requires_squarefree(self):
        I = parse_ideal("ring x\ngens x^2")
        with pytest.raises(SquarefreeRequiredError):
            hochster_betti(I, 0)

    def test_oracles_agree_on_squarefree_corpus(self, squarefree_corpus):
        for I in squarefree_corpus[:20]:
            for char in (0, 2, 3):
                assert tor_betti(I, char).same_entries(hochster_betti(I, char))


def is_squarefree(I):
    return all(g.is_squarefree for g in I.generators)


def assert_same_table(got, want):
    assert got.variables == want.variables
    assert got.same_entries(want)
    assert got.multigraded == want.multigraded


class TestAgainstReference:
    """Both oracles give the tables of the reference oracles, which rank
    every degree piece at the asked characteristic alone, entry for entry
    and key for key, at chars 0, 2 and 3."""

    CHARS = (0, 2, 3)

    def _check(self, I, hochster=True):
        for char in self.CHARS:
            assert_same_table(tor_betti(I, char), reference.tor_betti(I, char))
            if hochster and is_squarefree(I):
                assert_same_table(
                    hochster_betti(I, char), reference.hochster_betti(I, char)
                )

    def test_corpus200(self, corpus200):
        for I in corpus200:
            self._check(I)
            if not is_squarefree(I):
                with pytest.raises(SquarefreeRequiredError):
                    hochster_betti(I, 0)

    def test_squarefree_corpus(self, squarefree_corpus):
        for I in squarefree_corpus:
            self._check(I)

    def test_builtins(self, builtins):
        for I in builtins.values():
            self._check(I)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_cycles_tor(self, n):
        self._check(cycle_ideal(n), hochster=False)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles_hochster(self, n):
        I = cycle_ideal(n)
        for char in self.CHARS:
            assert_same_table(
                hochster_betti(I, char), reference.hochster_betti(I, char)
            )

    @pytest.mark.parametrize(
        "spec, totals",
        [
            ("ring x y; gens x, y", (1, 2, 1)),
            ("ring x y z; gens x^2, y^3, z^4", (1, 3, 3, 1)),  # Koszul
            ("ring x y; gens x^2, x*y, y^2", (1, 3, 2)),
            ("ring x y; gens x^3, x^2*y, x*y^2, y^3", (1, 4, 3)),
            ("ring x y z; gens x^2, x*y, x*z, y^2, y*z, z^2", (1, 6, 8, 3)),
            ("path:4", (1, 3, 2)),
            ("cycle:4", (1, 4, 4, 1)),
            ("cycle:5", (1, 5, 5, 1)),  # Gorenstein of codimension 3
        ],
    )
    def test_known_totals(self, spec, totals):
        # the library is checked against the reference alone, so the
        # reference is pinned to tables known without either of them
        I = builtin_ideal(spec) or parse_ideal(spec)
        for char in self.CHARS:
            assert reference.tor_betti(I, char).totals() == totals, char
            if is_squarefree(I):
                assert reference.hochster_betti(I, char).totals() == totals, char


def counting(monkeypatch, name):
    """Count the calls of `linalg.<name>`, still running it."""
    calls = []
    kernel = getattr(linalg, name)

    def counted(*args, **kw):
        calls.append(args)
        return kernel(*args, **kw)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def ranked_pieces(monkeypatch):
    """Record each `_homology_ranks` call of the oracles: a copy of its
    levels, its result, and the (char, rows) of every `linalg.rank` call it
    made, keeping the row lists alive so that their ids stay distinct."""
    pieces = []
    homology_ranks, rank = betti._homology_ranks, linalg.rank

    def counted_rank(rows, char):
        pieces[-1]["ranked"].append((char, rows))
        return rank(rows, char)

    def recorded(levels, first, char):
        piece = {
            "levels": {h: list(faces) for h, faces in levels.items()},
            "first": first,
            "ranked": [],
        }
        pieces.append(piece)
        piece["betti"] = homology_ranks(levels, first, char)
        return piece["betti"]

    monkeypatch.setattr(linalg, "rank", counted_rank)
    monkeypatch.setattr(betti, "_homology_ranks", recorded)
    return pieces


ORACLES = {"tor": tor_betti, "hochster": hochster_betti}


class TestQFallback:
    """Which degree pieces are ranked over Q at char 0, and that odd p never
    reads the F_2 ranks.

    The Q pass is what makes the oracles right at char 0 on a piece with
    2-torsion: accepting every F_2 result (no fallback) makes
    `TestTorBetti::test_rp2_characteristics` fail, since the Tor table of
    rp2 over Q would then read (1, 10, 15, 7, 1), its table over F_2."""

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_rp2_reranks_exactly_the_torsion_pieces(
        self, builtins, oracle, monkeypatch
    ):
        rp2 = builtins["rp2"]
        over_q, over_f2 = reference.tor_betti(rp2, 0), reference.tor_betti(rp2, 2)
        torsion = {
            alpha
            for _, alpha in set(over_q.multigraded) | set(over_f2.multigraded)
            if any(
                over_q.entry(i, alpha) != over_f2.entry(i, alpha)
                for i in range(rp2.r + 1)
            )
        }
        assert torsion == {(1, 1, 1, 1, 1, 1)}
        pieces = ranked_pieces(monkeypatch)
        T = ORACLES[oracle](rp2, 0)
        monkeypatch.undo()
        assert_same_table(T, over_q)
        reranked = [p for p in pieces if any(c == 0 for c, _ in p["ranked"])]
        assert len(reranked) == len(torsion)
        for piece in reranked:
            # A piece holds one lattice degree, and its homology differs
            # over Q and F_2 only if the Betti numbers there do, so this
            # one is the piece of the torsion degree.
            levels, first = piece["levels"], piece["first"]
            assert piece["betti"] != reference.homology_ranks(levels, first, 2)
            assert piece["betti"] == reference.homology_ranks(levels, first, 0)
            # one build per piece: Q ranks the very lists F_2 ranked
            by_char = {0: [], 2: []}
            for c, rows in piece["ranked"]:
                by_char[c].append(id(rows))
            assert by_char[0] and by_char[0] == by_char[2]

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_cycle12_reranks_nothing(self, oracle, monkeypatch):
        calls = counting(monkeypatch, "pivots_rational")
        T = ORACLES[oracle](cycle_ideal(12), 0)
        assert calls == []
        assert T.totals() == (1, 12, 54, 124, 165, 132, 58, 12, 2)

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_odd_p_reads_no_f2_ranks(self, builtins, oracle, monkeypatch):
        rp2 = builtins["rp2"]
        f2 = counting(monkeypatch, "pivots_f2_packed")
        q = counting(monkeypatch, "pivots_rational")
        over_f3 = ORACLES[oracle](rp2, 3)
        assert f2 == [] and q == []
        assert_same_table(over_f3, ORACLES[oracle](rp2, 0))
        assert over_f3.totals() == (1, 10, 15, 6)


class TestRender:
    def test_path5_pruned_diagram(self, path5):
        T = betti_of_complex(critical_complex(path5, prune_taylor(path5)))
        assert normalized(render_betti(T)) == normalized(PATH5_PRUNED_DIAGRAM)

    def test_cycle5_pruned_diagram(self, cycle5):
        T = betti_of_complex(critical_complex(cycle5, prune_taylor(cycle5)))
        assert normalized(render_betti(T)) == normalized(CYCLE5_PRUNED_DIAGRAM)

    def test_rp2_lyubeznik_diagram(self, builtins):
        rp2 = builtins["rp2"]
        T = betti_of_complex(critical_complex(rp2, prune_lyubeznik(rp2)))
        assert normalized(render_betti(T)) == normalized(RP2_LYUBEZNIK_DIAGRAM)

    def test_zero_ideal(self):
        I = MonomialIdeal(("x",), ())
        T = betti_of_complex(critical_complex(I, empty_matching(I)))
        assert normalized(render_betti(T)) == ["0", "total:", "1", "0:", "1"]

    def test_huge_degree_shifts_under_memory_limit(self):
        # One row per degree shift would be 2**31 rows; the child process
        # gets 1 GiB of address space, far below that
        limit = 1 << 30
        code = (
            "from prunres.betti import render_betti, tor_betti\n"
            "from prunres.ideals import parse_ideal\n"
            f"print(render_betti(tor_betti(parse_ideal({HUGE_SHIFTS_IDEAL!r}))))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)
            ),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert normalized(proc.stdout) == normalized(HUGE_SHIFTS_DIAGRAM)

    def test_json_dict(self, path5):
        T = betti_of_complex(critical_complex(path5, prune_taylor(path5)))
        payload = T.to_json_dict()
        assert [1, 2, 4] in payload["graded"]
        assert [1, "x1*x2", 1] in payload["multigraded"]


class TestLinalg:
    def test_rational_rank(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 5}]
        assert rank(rows, 0) == 2

    def test_rank_mod_drops_p_multiples(self):
        rows = [{0: 2}, {1: 3}]
        assert rank(rows, 2) == 1
        assert rank(rows, 3) == 1
        assert rank(rows, 5) == 2

    def test_torsion_sensitive_rank(self):
        # boundary-like matrix with determinant 2
        rows = [{0: 1, 1: 1}, {0: -1, 1: 1}]
        assert rank(rows, 0) == 2
        assert rank(rows, 2) == 1
