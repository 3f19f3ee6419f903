import os
import random
import resource
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from prunres import betti, morse, pruning
from prunres.betti import betti_of_complex, tor_betti
from prunres.ideals import (
    cycle_ideal,
    parse_ideal,
    path_ideal,
    random_corpus,
)
from prunres.monomials import MonomialIdeal
from prunres.morse import critical_complex, morse_differential
from prunres.pruning import (
    Matching,
    empty_matching,
    intersection_generators,
    partial_prune_intersection,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
    verify_matching,
    render_trace,
)
from prunres.taylor import TaylorComplex
import reference
from conftest import METHODS, pad_with_redundant
from reference import lyubeznik_direct


SRC = Path(__file__).resolve().parent.parent / "src"
SWEEPS = ("prune_taylor", "prune_lyubeznik", "prune_simplicial")


def vec(mask, r):
    return "".join("1" if mask & (1 << k) else "0" for k in range(r))


class TestPruneTaylor:
    def test_path5_trace(self, path5):
        m = prune_taylor(path5)
        got = [(vec(s, 4), j + 1) for s, j in m.edges]
        assert got == [("1010", 2), ("1011", 2), ("0101", 3)]

    def test_two_variables_no_edges(self):
        I = parse_ideal("ring x y\ngens x, y")
        assert prune_taylor(I).edges == ()

    def test_cycle5_trace(self, cycle5):
        m = prune_taylor(cycle5)
        got = [(vec(s, 5), j + 1) for s, j in m.edges]
        assert got == [
            ("01001", 1),
            ("01101", 1),
            ("01011", 1),
            ("01111", 1),
            ("10100", 2),
            ("10110", 2),
            ("01010", 3),
            ("00101", 4),
            ("10101", 4),
            ("10010", 5),
        ]

    @staticmethod
    def _step_rule(I):
        """The step rule re-implemented on sets of generator indices: at
        step j, drop every pair {s, s + j} of surviving faces with j not in
        s and equal lcms, all pairs of the step at once."""
        gens = [g.exponents for g in I.generators]
        nvars = len(I.variables)
        faces = [
            frozenset(c) for k in range(I.r + 1) for c in combinations(range(I.r), k)
        ]
        deg = {
            f: tuple(max((gens[i][v] for i in f), default=0) for v in range(nvars))
            for f in faces
        }
        alive = set(faces)
        pruned = set()
        for j in range(I.r):
            pairs = [
                s
                for s in alive
                if j not in s and s | {j} in alive and deg[s] == deg[s | {j}]
            ]
            for s in pairs:
                alive -= {s, s | {j}}
                pruned.add((sum(1 << i for i in s), j))
        return pruned

    def test_matches_independent_step_rule(self, corpus40):
        ideals = [cycle_ideal(n) for n in range(3, 11)]
        ideals += [path_ideal(n) for n in range(2, 9)] + list(corpus40[:20])
        for I in ideals:
            assert set(prune_taylor(I).edges) == self._step_rule(I)

    def test_step_candidates_disjoint(self, corpus40):
        # within one step all pruned edges are pairwise vertex-disjoint
        for I in corpus40[:20]:
            m = prune_taylor(I)
            per_step = {}
            for sigma, j in m.edges:
                per_step.setdefault(j, []).append(sigma)
            for j, lower in per_step.items():
                cells = []
                for sigma in lower:
                    cells += [sigma, sigma | (1 << j)]
                assert len(cells) == len(set(cells))

    def test_sweep_records_each_step_sorted(self):
        # a step takes all its edges at once, both ends of each leaving the
        # pool (else step 4 would pair 0b0001 with 0b1001), and the edges
        # view lists them in canonical order of sigma
        tc = TaylorComplex(parse_ideal("ring x; gens x, x, x, x"))
        alive = sum(1 << f for f in (0b0001, 0b0101, 0b1001, 0b1101))
        lower = pruning._sweep(pruning._step_masks(tc), alive)
        assert lower == [0, 0, 1 << 0b0001 | 1 << 0b1001, 0]
        assert Matching(4, (lower,)).edges == ((0b0001, 2), (0b1001, 2))


class TestPruneSimplicial:
    def test_path5(self, path5):
        m = prune_simplicial(path5)
        got = [(vec(s, 4), j + 1) for s, j in m.edges]
        assert got == [("1010", 2), ("1011", 2)]
        assert critical_complex(path5, m).ranks() == (1, 4, 5, 2)

    def test_two_variables_no_edges(self):
        I = parse_ideal("ring x y\ngens x, y")
        assert prune_simplicial(I).edges == ()

    def test_cycle5_needs_second_sweep(self, cycle5):
        m = prune_simplicial(cycle5)
        assert len(m.sweeps) >= 2
        assert sum(m.sweeps) == len(m.edges)
        first_sweep = m.edges[: m.sweeps[0]]
        assert len(first_sweep) < len(m.edges)

    def test_survivors_closed_under_subsets(self, corpus40, builtins):
        for I in list(corpus40[:25]) + [builtins["path:5"], builtins["cycle:5"]]:
            alive = prune_simplicial(I).survivors()
            for s in alive:
                for i in range(I.r):
                    if s & (1 << i):
                        assert (s & ~(1 << i)) in alive

    def test_edge_subset_of_plain_pruning_per_first_sweep(self, corpus40):
        for I in corpus40[:15]:
            plain = set(prune_taylor(I).edges)
            m = prune_simplicial(I)
            first = set(m.edges[: m.sweeps[0]] if m.sweeps else ())
            assert first <= plain


class TestEdgesView:
    """`edges` and `sweeps` are read from the step bitsets, and give the
    matching back through `Matching.from_edges`."""

    @staticmethod
    def _round_trip(ideals):
        for I in ideals:
            for name in SWEEPS:
                m = getattr(pruning, name)(I)
                assert Matching.from_edges(I.r, m.edges, m.sweeps) == m, (name, I)

    def test_corpus200(self, corpus200):
        self._round_trip(corpus200)

    def test_builtins(self, builtins):
        self._round_trip(builtins.values())

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        self._round_trip([cycle_ideal(n)])

    def test_simplicial_cycle5_by_sweep_then_step(self, cycle5):
        m = prune_simplicial(cycle5)
        assert m.sweeps == (6, 2)
        assert [(vec(s, 5), j + 1) for s, j in m.edges] == [
            ("01001", 1),
            ("01101", 1),
            ("01011", 1),
            ("01111", 1),
            ("00101", 4),
            ("10101", 4),
            ("10100", 2),
            ("10110", 2),
        ]


class TestSweepsAgainstReference:
    """Every sweep gives the Matching of its set-based reference on the
    tuple table (`reference`), edges and sweeps alike."""

    @staticmethod
    def _same(ideals):
        for I in ideals:
            for name in SWEEPS:
                got = getattr(pruning, name)(I)
                assert got == getattr(reference, name)(I), (name, I)

    def test_corpus200(self, corpus200):
        self._same(corpus200)

    def test_squarefree_corpus(self, squarefree_corpus):
        self._same(squarefree_corpus)

    def test_builtins(self, builtins):
        self._same(builtins.values())

    @pytest.mark.parametrize("n", range(3, 17))
    def test_cycles(self, n):
        self._same([cycle_ideal(n)])

    @pytest.mark.parametrize("n", range(2, 15))
    def test_paths(self, n):
        self._same([path_ideal(n)])

    def test_split_grids(self, corpus200, corpus40, builtins):
        grids = [(I, 10) for I in [*corpus200, *builtins.values()]]
        grids += [(I, 12) for I in corpus40]
        for I, most in grids:
            for s in range(1, I.r):
                J = MonomialIdeal(I.variables, I.generators[:s])
                K = MonomialIdeal(I.variables, I.generators[s:])
                if J.r * K.r <= most:
                    got = partial_prune_intersection(J, K)
                    assert got == reference.partial_prune_intersection(J, K)

    def test_cycle20_under_memory_limit(self):
        # On CPython 3.11 (Linux, x86-64) the set sweeps of cycle:20 peaked
        # at 172 MB of address space and the bitset sweeps at 83 MB; the
        # child process gets 128 MiB
        limit = 128 << 20
        code = (
            "from prunres.ideals import cycle_ideal\n"
            "from prunres.pruning import prune_lyubeznik, prune_taylor\n"
            "I = cycle_ideal(20)\n"
            "print(len(prune_taylor(I).edges), len(prune_lyubeznik(I).edges))\n"
        )
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
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["504594", "131072"]


class TestPruneLyubeznik:
    def test_path5_no_edges(self, path5):
        assert prune_lyubeznik(path5).edges == ()
        assert lyubeznik_direct(path5) == frozenset(range(16))

    def test_cycle5_first_step_only(self, cycle5):
        m = prune_lyubeznik(cycle5)
        assert all(j == 0 for _, j in m.edges)
        assert len(m.edges) == 4
        assert critical_complex(cycle5, m).ranks() == (1, 5, 9, 7, 2)

    def test_x_xy(self):
        I = parse_ideal("ring x y\ngens x, x*y")
        m = prune_lyubeznik(I)
        assert m.edges == ((0b10, 0),)
        assert m.survivors() == frozenset({0b00, 0b01})
        assert lyubeznik_direct(I) == frozenset({0b00, 0b01})

    def test_single_generator(self):
        I = parse_ideal("ring x y\ngens x*y")
        assert lyubeznik_direct(I) == frozenset({0, 1})

    def test_direct_equals_pruned_survivors(self, corpus40, builtins):
        for I in list(corpus40) + list(builtins.values()):
            assert prune_lyubeznik(I).survivors() == lyubeznik_direct(I)


class TestPartialPruning:
    @staticmethod
    def _split(I, s):
        J = MonomialIdeal(I.variables, I.generators[:s])
        K = MonomialIdeal(I.variables, I.generators[s:])
        return J, K

    @staticmethod
    def _xprime_degrees(I, s):
        tc = TaylorComplex(I)
        jm = (1 << s) - 1
        km = ((1 << I.r) - 1) & ~jm
        out = Counter()
        for f in tc.faces():
            if f and (f & jm) and (f & km):
                out[tc.exponents(f)] += 1
        return out

    def test_single_generator_part_no_prunes(self):
        I = parse_ideal("ring a b c d e f g h\ngens a*b, c*d, e*f, g*h")
        J, K = self._split(I, 3)
        m = partial_prune_intersection(J, K)
        assert m.edges == ()
        # survivors (minus the empty face) match X'
        grid = intersection_generators(J, K)
        tcg = TaylorComplex(grid)
        surv = Counter(tcg.exponents(f) for f in m.survivors() if f)
        assert surv == self._xprime_degrees(I, 3)

    def test_two_two_generic(self):
        I = parse_ideal("ring a b c d e f g h\ngens a*b, c*d, e*f, g*h")
        J, K = self._split(I, 2)
        m = partial_prune_intersection(J, K)
        grid = intersection_generators(J, K)
        tcg = TaylorComplex(grid)
        surv = Counter(tcg.exponents(f) for f in m.survivors() if f)
        assert surv == self._xprime_degrees(I, 2)
        assert sum(surv.values()) == 9

    def test_one_one_trivial(self):
        I = parse_ideal("ring x y\ngens x, y")
        J, K = self._split(I, 1)
        assert partial_prune_intersection(J, K).edges == ()

    def test_empty_part_rejected(self):
        I = parse_ideal("ring x y\ngens x, y")
        with pytest.raises(ValueError):
            partial_prune_intersection(
                MonomialIdeal(I.variables, ()), I
            )

    def test_random_matches_xprime(self):
        for I in random_corpus(25, seed=9, max_vars=5, max_gens=6):
            for s in range(1, I.r):
                if s > 3 or I.r - s > 3:
                    continue
                J, K = self._split(I, s)
                m = partial_prune_intersection(J, K)
                grid = intersection_generators(J, K)
                tcg = TaylorComplex(grid)
                surv = Counter(tcg.exponents(f) for f in m.survivors() if f)
                assert surv == self._xprime_degrees(I, s)
                rep = verify_matching(grid.r, m, grid)
                assert rep.all_ok


# edges (sigma, j) that are no facet pair of the simplex on two vertices:
# sigma or j out of range, or sigma + e_j outside the simplex
OUTSIDE_EDGES = [
    (4, 0), (0, 5), (0, 2), (-1, 0), (-4, 1), (0, -1), (8, 1), (1, 2), (-2, 0)
]


class TestVerifyMatching:
    def test_valid_examples(self, path5, cycle5):
        assert verify_matching(4, prune_taylor(path5), path5).all_ok
        assert verify_matching(5, prune_lyubeznik(cycle5), cycle5).all_ok

    def test_shared_vertex_rejected(self):
        I = parse_ideal("ring x y\ngens x, y")
        bad = Matching.from_edges(2, ((0, 0), (0, 1)))
        rep = verify_matching(2, bad, I)
        assert not rep.is_matching
        # acyclicity is defined for matchings only
        assert not rep.is_acyclic

    def test_inhomogeneous_detected(self):
        I = parse_ideal("ring x y\ngens x, y")
        bad = Matching.from_edges(2, ((0b01, 1),))  # {x} -> {x,y} shifts degree
        rep = verify_matching(2, bad, I)
        assert rep.is_matching and not rep.is_homogeneous

    def test_closed_v_path_is_cyclic(self):
        # {0} -> {0,1} -> {1} -> {1,2} -> {2} -> {0,2} -> {0}, through
        # homogeneous edges, since the three generators are equal
        I = parse_ideal("ring x\ngens x, x, x")
        cyclic = Matching.from_edges(3, ((0b001, 1), (0b010, 2), (0b100, 0)))
        rep = verify_matching(3, cyclic, I)
        assert rep.is_matching and rep.is_homogeneous
        assert not rep.is_acyclic and not rep.all_ok

    @pytest.mark.parametrize("edge", OUTSIDE_EDGES + [(1, 0), (3, 1)])
    def test_edge_outside_the_complex(self, edge):
        # every matching is built from bitsets of lower ends, where a
        # negative face or step would wrap to another; an edge whose j lies
        # in sigma pairs a face with itself
        with pytest.raises(ValueError, match="not a facet pair"):
            Matching.from_edges(2, (edge,))

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("build", [critical_complex, morse_differential])
    @pytest.mark.parametrize("edge", OUTSIDE_EDGES + [(1, 0), (3, 1)])
    def test_builders_reject_edge_outside_the_complex(self, edge, build, validate):
        # without validation, (0, 5) once dropped the empty face, (1, 2) gave
        # ranks (1, 1, 1), (4, 0) and (-2, 0) were ignored and (0, -1) raised
        # a bare ValueError; now no builder is handed such an edge, with or
        # without validation, since the matching carrying it is refused
        I = parse_ideal("ring x y\ngens x, y")
        with pytest.raises(ValueError, match="not a facet pair"):
            build(I, Matching.from_edges(2, (edge,)), validate=validate)

    @pytest.mark.parametrize("edge", OUTSIDE_EDGES + [(1, 0), (3, 1)])
    def test_survivors_reject_edge_outside_the_complex(self, edge):
        # the survivors are read from bitsets indexed by the edges' faces,
        # where a negative face or step would wrap to another
        with pytest.raises(ValueError, match="not a facet pair"):
            Matching.from_edges(2, (edge,)).survivors()

    @pytest.mark.parametrize(
        "r, lower",
        [
            (2, ((0, 0, 0),)),  # a sweep of three steps
            (2, ((1 << 4, 0),)),  # face 4 outside the simplex
            (2, ((-1, 0),)),
            (2, ((0, 1 << 0b10),)),  # (0b10, 1) pairs {y} with itself
        ],
    )
    def test_constructor_rejects_bitsets_outside_the_simplex(self, r, lower):
        with pytest.raises(ValueError):
            Matching(r, lower)

    def test_from_edges_counts(self):
        with pytest.raises(ValueError, match="sweeps"):
            Matching.from_edges(2, ((0, 0),), (2,))
        assert Matching.from_edges(2, ()) == Matching(2) == empty_matching(
            parse_ideal("ring x y\ngens x, y")
        )
        assert Matching.from_edges(2, (), (0,)) == Matching(2, ((0, 0),))

    def test_matching_on_another_complex(self):
        I = parse_ideal("ring x y\ngens x, y")
        other = Matching(3, ())
        rep = verify_matching(2, other, I)
        assert not rep.is_matching and not rep.all_ok
        with pytest.raises(morse.InvalidMatchingError):
            critical_complex(I, other)

    def test_r_argument_checked(self):
        I = parse_ideal("ring x y\ngens x, y")
        with pytest.raises(ValueError):
            verify_matching(3, empty_matching(I), I)

    def test_produced_matchings_all_ok(self, corpus40, builtins):
        for I in list(corpus40) + list(builtins.values()):
            for fn in (prune_taylor, prune_simplicial, prune_lyubeznik):
                assert verify_matching(I.r, fn(I), I).all_ok


class TestInvariants:
    def test_survivor_containments(self, corpus40, builtins):
        for I in list(corpus40) + list(builtins.values()):
            sp = prune_taylor(I).survivors()
            ss = prune_simplicial(I).survivors()
            sl = prune_lyubeznik(I).survivors()
            assert sp <= ss <= sl

    def test_survivor_count_identity(self, corpus40):
        for I in corpus40[:20]:
            m = prune_taylor(I)
            assert len(m.survivors()) == (1 << I.r) - 2 * len(m.edges)

    def test_redundant_generators_lemma(self, corpus40):
        rng = random.Random(17)
        for I in corpus40[:20]:
            padded = pad_with_redundant(I, rng, rng.randint(1, 3))
            a = betti_of_complex(critical_complex(I, prune_taylor(I), validate=False))
            b = betti_of_complex(
                critical_complex(padded, prune_taylor(padded), validate=False)
            )
            assert a.same_entries(b)

    def test_step_one_masks_give_lyubeznik_ranks(self, cycle5):
        # restricting the plain step masks to step 1 reproduces the
        # Lyubeznik run
        masks = pruning._step_masks(TaylorComplex(cycle5))
        m = pruning._prune(cycle5.r, masks[:1] + [0] * (cycle5.r - 1))
        assert critical_complex(cycle5, m, validate=False).ranks() == (1, 5, 9, 7, 2)


def test_trace_rendering(path5):
    m = prune_taylor(path5)
    lines = render_trace(m, path5)
    assert lines[0] == "step=2 sigma=1010 j=2 deg=x1*x2*x3*x4"
    assert len(lines) == 3


def test_empty_matching_is_taylor(path5):
    m = empty_matching(path5)
    assert m.survivors() == frozenset(range(16))


class TestOnPolarizedTable:
    """The Morse complexes and Tor tables on the reference table's degrees
    in plain polarization (`reference.PolarizedTupleTable`) are those on the
    rank-compressed table."""

    @staticmethod
    def _resolutions(I):
        matchings = [method(I) for method in METHODS]
        return [morse_differential(I, m) for m in matchings], tor_betti(I)

    def _check(self, I, monkeypatch):
        got = self._resolutions(I)
        with monkeypatch.context() as mp:
            for mod in (pruning, morse, betti):
                mp.setattr(mod, "TaylorComplex", reference.PolarizedTupleTable)
            want = self._resolutions(I)
        assert got == want

    def test_corpus200(self, corpus200, monkeypatch):
        for I in corpus200:
            self._check(I, monkeypatch)

    def test_builtins(self, builtins, monkeypatch):
        for I in builtins.values():
            self._check(I, monkeypatch)
