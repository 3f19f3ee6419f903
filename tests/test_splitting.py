import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import reference
from prunres import splitting
from prunres.ideals import cycle_ideal, parse_ideal, path_ideal, rp2_ideal
from prunres.monomials import MonomialIdeal, minimal_generators, monomial_str
from prunres.morse import check_minimal, critical_complex, morse_differential
from prunres.pruning import intersection_generators, prune_taylor
from prunres.splitting import (
    X_J,
    X_K,
    X_PRIME,
    _pruned_table,
    check_last_generator,
    check_pruned_splitting,
    classify_regions,
    split_parts,
)
from prunres.taylor import GENERATOR_CAP

SRC = Path(__file__).resolve().parents[1] / "src"


class TestClassifyRegions:
    def test_examples(self):
        assert classify_regions(4, 2, 0b0011) == X_J
        assert classify_regions(4, 2, 0b0100) == X_K
        assert classify_regions(4, 2, 0b0110) == X_PRIME

    def test_empty_face_convention(self):
        assert classify_regions(4, 2, 0) == X_J

    def test_bad_split_point(self):
        with pytest.raises(ValueError):
            classify_regions(4, 4, 1)


class TestIntersectionIdeal:
    def test_path_with_last_edge(self):
        J = parse_ideal("ring x1 x2 x3 x4 x5\ngens x1*x2, x2*x3, x3*x4")
        K = parse_ideal("ring x1 x2 x3 x4 x5\ngens x4*x5")
        JK = intersection_generators(J, K)
        assert JK.generator_strs() == ["x1*x2*x4*x5", "x2*x3*x4*x5", "x3*x4*x5"]

    def test_npath_minimal_generators_shape(self):
        for n in (6, 7):
            I = path_ideal(n)
            J, K = split_parts(I, I.r - 1)
            mg = minimal_generators(intersection_generators(J, K))
            names = mg.generator_strs()
            expected = [
                f"x{i}*x{i + 1}*x{n - 1}*x{n}" for i in range(1, n - 3)
            ] + [f"x{n - 2}*x{n - 1}*x{n}"]
            assert names == expected

    def test_principal_parts(self):
        J = parse_ideal("ring x y\ngens x")
        K = parse_ideal("ring x y\ngens y")
        assert intersection_generators(J, K).generator_strs() == ["x*y"]

    def test_mismatched_rings_rejected(self):
        J = parse_ideal("ring x\ngens x")
        K = parse_ideal("ring y\ngens y")
        with pytest.raises(ValueError):
            intersection_generators(J, K)


class TestPrunedSplitting:
    def test_path5_last_edge(self, path5):
        rep = check_pruned_splitting(path5, 3)
        assert rep.is_pruned_splitting
        assert rep.residuals_zero
        assert rep.grid_matches_minimal

    def test_cycle5_closing_edge_not_splitting(self, cycle5):
        rep = check_pruned_splitting(cycle5, 4)
        assert not rep.is_pruned_splitting
        # the offending edge is the step-5 prune crossing X_K and X'
        crossing = [e for e in rep.edge_regions if e[1] != e[2]]
        assert crossing

    def test_cycle5_splitting_vertex(self, cycle5):
        rep = check_pruned_splitting(cycle5, 3)
        assert rep.is_pruned_splitting
        assert rep.residuals_zero

    def test_wide_grid_refused_under_memory_limit(self):
        # s = 5 of the 10-cycle builds J cap K from a 25-generator grid, 2^25
        # faces.  Unguarded, the call died with MemoryError in the pruning
        # after 8 s in 1 GiB of address space; refused before any table is
        # built, it needs neither
        limit = 1 << 30
        code = (
            "from prunres.ideals import cycle_ideal\n"
            "from prunres.splitting import check_pruned_splitting\n"
            "try:\n"
            "    check_pruned_splitting(cycle_ideal(10), 5)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)
            ),
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "s=5" in proc.stdout and "25 generators" in proc.stdout
        assert "force=True" in proc.stdout

    def test_force_is_the_one_keyword_that_lifts_the_grid_check(self, path5):
        assert check_pruned_splitting(path5, 3, force=True) == check_pruned_splitting(
            path5, 3
        )
        with pytest.raises(TypeError):
            check_pruned_splitting(path5, 3, True)

    def test_split_point_out_of_range_refused_first(self, path5):
        with pytest.raises(ValueError, match="out of range"):
            check_pruned_splitting(path5, 0, force=True)

    def test_all_edges_labelled(self, path5):
        rep = check_pruned_splitting(path5, 2)
        assert len(rep.edge_regions) == len(prune_taylor(path5).edges)

    def test_genuine_betti_splitting_when_minimal(self, path5):
        # with I, J, K and the intersection all pruned-minimal, the formula
        # holds with true Betti numbers; path ideals are such a family
        from prunres.betti import tor_betti

        rep = check_pruned_splitting(path5, 3)
        assert rep.is_pruned_splitting and rep.residuals_zero
        J, K = split_parts(path5, 3)
        JK = intersection_generators(J, K)
        for part in (path5, J, K, JK):
            C = morse_differential(part, prune_taylor(part), validate=False)
            assert check_minimal(C)
        ti = tor_betti(path5, 0)
        tj, tk, tjk = tor_betti(J, 0), tor_betti(K, 0), tor_betti(JK, 0)
        keys = set(ti.multigraded) | set(tj.multigraded) | set(tk.multigraded)
        keys |= {(h + 1, a) for (h, a) in tjk.multigraded if h >= 1}
        for h, alpha in keys:
            if h < 1:
                continue
            shifted = tjk.entry(h - 1, alpha) if h >= 2 else 0
            assert ti.entry(h, alpha) == tj.entry(h, alpha) + tk.entry(
                h, alpha
            ) + shifted


def _squarefree_key(I, h, monomial):
    """The residual key (h, alpha) of a squarefree monomial written
    x1*x2*..."""
    names = monomial.split("*")
    return h, tuple(int(v in names) for v in I.variables)


@pytest.fixture(scope="module")
def split_points(corpus200, squarefree_corpus):
    """Every split point of corpus-200, the squarefree corpus, rp2,
    cycle:3..9 and path:2..10 whose grid is not refused."""
    ideals = [
        *corpus200,
        *squarefree_corpus,
        rp2_ideal(),
        *map(cycle_ideal, range(3, 10)),
        *map(path_ideal, range(2, 11)),
    ]
    return [
        (I, s)
        for I in ideals
        for s in range(1, I.r)
        if s * (I.r - s) <= GENERATOR_CAP
    ]


class TestAgainstReference:
    """The report read from I's own critical cells in X' against the
    reference, which prunes J and K again and compares five tables."""

    def test_every_split_point(self, split_points):
        kinds = Counter()
        for I, s in split_points:
            got = check_pruned_splitting(I, s)
            assert got == reference.check_pruned_splitting(I, s), (I.generators, s)
            kinds[got.is_pruned_splitting, got.residuals_zero] += 1
        # crossing edges, zero residuals and nonzero ones all occur
        assert set(kinds) == {(False, False), (True, True), (True, False)}

    def test_restriction_identity(self, split_points):
        # with no crossing edge, I's critical cells in X_J are J's, and
        # those in X_K are K's less K's empty face, which X_J holds
        for I, s in split_points:
            if not check_pruned_splitting(I, s).is_pruned_splitting:
                continue
            C = critical_complex(I, prune_taylor(I), validate=False)
            cells = {X_J: Counter(), X_K: Counter(), X_PRIME: Counter()}
            for h, (level, degrees) in enumerate(zip(C.cells, C.degrees)):
                for sigma, alpha in zip(level, degrees):
                    cells[classify_regions(I.r, s, sigma)][h, alpha] += 1
            cells[X_K][0, (0,) * I.nvars] += 1
            J, K = split_parts(I, s)
            assert _pruned_table(J).multigraded == cells[X_J], (I.generators, s)
            assert _pruned_table(K).multigraded == cells[X_K], (I.generators, s)

    def test_prunes_the_grids_alone(self, path5, cycle5, monkeypatch):
        pruned = []

        def counting(I):
            pruned.append(I)
            return _pruned_table(I)

        monkeypatch.setattr(splitting, "_pruned_table", counting)
        assert check_pruned_splitting(path5, 3).is_pruned_splitting
        grid = intersection_generators(*split_parts(path5, 3))
        assert pruned == [grid, minimal_generators(grid)]
        pruned.clear()
        assert not check_pruned_splitting(cycle5, 4).is_pruned_splitting
        assert pruned == []
        # a grid that is its own minimalization is pruned once
        I = parse_ideal("ring x y z; gens x, y, z")
        grid = intersection_generators(*split_parts(I, 1))
        assert minimal_generators(grid) == grid
        rep = check_pruned_splitting(I, 1)
        assert rep.is_pruned_splitting and rep.grid_matches_minimal is True
        assert pruned == [grid]


class TestNonzeroResiduals:
    def test_path7_at_2(self):
        I = path_ideal(7)
        rep = check_pruned_splitting(I, 2)
        assert rep.is_pruned_splitting and rep.grid_matches_minimal
        top = "x1*x2*x3*x4*x5*x6*x7"
        assert rep.residuals == {
            _squarefree_key(I, 4, top): -1,
            _squarefree_key(I, 5, top): -1,
        }

    def test_cycle8_at_4(self):
        I = cycle_ideal(8)
        rep = check_pruned_splitting(I, 4)
        assert rep.is_pruned_splitting and rep.grid_matches_minimal is False
        assert rep.residuals == {
            _squarefree_key(I, h, m): -1
            for h, m in [
                (3, "x1*x2*x4*x5*x7*x8"),
                (4, "x1*x3*x4*x5*x6*x7*x8"),
                (4, "x1*x2*x4*x5*x7*x8"),
                (4, "x1*x2*x4*x5*x6*x7*x8"),
                (5, "x1*x3*x4*x5*x6*x7*x8"),
                (5, "x1*x2*x4*x5*x6*x7*x8"),
                (5, "x1*x2*x3*x4*x5*x6*x7*x8"),
                (6, "x1*x2*x3*x4*x5*x6*x7*x8"),
            ]
        }


class TestLastGenerator:
    def test_paths(self):
        for n in range(3, 9):
            assert check_last_generator(path_ideal(n))

    def test_cycles_report_last_step_pruning(self):
        for n in range(5, 9):
            assert not check_last_generator(cycle_ideal(n))

    def test_small_cycles_have_no_last_step_pruning(self):
        # for 3- and 4-cycles nothing survives to the closing step and the
        # closing-edge split genuinely is a pruned splitting
        for n in (3, 4):
            I = cycle_ideal(n)
            assert check_last_generator(I)
            rep = check_pruned_splitting(I, I.r - 1)
            assert rep.is_pruned_splitting and rep.residuals_zero

    def test_two_generators(self):
        I = parse_ideal("ring x y\ngens x, y")
        assert check_last_generator(I)

    def test_implies_splitting_on_minimal_corpus(self, corpus40):
        for I in corpus40:
            mg = minimal_generators(I)
            if mg.r < 2:
                continue
            if check_last_generator(mg):
                rep = check_pruned_splitting(mg, mg.r - 1)
                assert rep.is_pruned_splitting


class TestVertexSplitting:
    @staticmethod
    def _vertex_split(I, v):
        gens_j = [g for g in I.generators if g.exponents[v] == 0]
        gens_k = [g for g in I.generators if g.exponents[v] != 0]
        return MonomialIdeal(I.variables, tuple(gens_j + gens_k)), len(gens_j)

    def test_paths_and_cycles_every_vertex(self):
        for I in [path_ideal(n) for n in (4, 5, 6)] + [
            cycle_ideal(n) for n in (4, 5, 6)
        ]:
            for v in range(I.nvars):
                J, s = self._vertex_split(I, v)
                if s == 0 or s == J.r:
                    continue
                rep = check_pruned_splitting(J, s)
                assert rep.is_pruned_splitting and rep.residuals_zero

    def test_random_graphs_report_violations(self):
        # the every-vertex claim fails on general graphs (a triangle at the
        # split vertex produces a region-crossing edge); violations must be
        # reported coherently, never assumed away
        import itertools
        import random

        from prunres.ideals import edge_ideal

        rng = random.Random(3)
        graphs = []
        for n in (5, 6):
            edges = list(itertools.combinations(range(1, n + 1), 2))
            chosen = rng.sample(edges, k=min(6, len(edges)))
            graphs.append(edge_ideal(n, chosen))
        violations = []
        for I in graphs:
            for v in range(I.nvars):
                J, s = self._vertex_split(I, v)
                if s == 0 or s == J.r:
                    continue
                rep = check_pruned_splitting(J, s)
                if not rep.is_pruned_splitting:
                    crossing = [e for e in rep.edge_regions if e[1] != e[2]]
                    assert crossing, "violation reported without a crossing edge"
                    violations.append((I.generator_strs(), v))
        # this seed does exhibit the triangle obstruction
        assert violations
