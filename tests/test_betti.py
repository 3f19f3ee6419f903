import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from prunres.betti import (
    SquarefreeRequiredError,
    betti_of_complex,
    hochster_betti,
    render_betti,
    tor_betti,
)
from prunres.ideals import parse_ideal
from prunres.linalg import rank
from prunres.monomials import MonomialIdeal, Monomial
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
