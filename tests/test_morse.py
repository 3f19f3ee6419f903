import gc
import inspect
import re
import sys
import time
import tracemalloc
from itertools import pairwise
from operator import le

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from conftest import METHODS
from prunres import linalg, morse
from prunres.betti import betti_of_complex, tor_betti
from prunres.ideals import builtin_ideal, cycle_ideal, parse_ideal
from prunres.monomials import MAX_EXPONENT, ideal

from prunres.morse import (
    ChainComplex,
    Differential,
    _contract_holds,
    _d_squared_gcd,
    _is_boundary,
    _strand_degrees,
    _threshold_masks,
    InvalidMatchingError,
    check_d_squared,
    check_exactness,
    check_minimal,
    critical_complex,
    morse_differential,
)
from prunres.pruning import (
    Matching,
    empty_matching,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
    verify_matching,
)
from prunres.taylor import TaylorComplex, indices_of
from reference import facets
from test_betti import counting


class TestCriticalComplex:
    def test_path5_ranks(self, path5):
        assert critical_complex(path5, prune_taylor(path5)).ranks() == (1, 4, 4, 1)

    def test_cycle5_ranks_and_top_cell(self, cycle5):
        C = critical_complex(cycle5, prune_taylor(cycle5))
        assert C.ranks() == (1, 5, 5, 1)
        top = C.cells[3][0]
        assert sorted(indices_of(top)) == [0, 1, 3]
        assert C.degrees[3][0] == (1, 1, 1, 1, 1)

    def test_koszul_two_variables(self):
        I = parse_ideal("ring x y\ngens x, y")
        assert critical_complex(I, empty_matching(I)).ranks() == (1, 2, 1)

    def test_invalid_matching_rejected(self):
        I = parse_ideal("ring x y\ngens x, y")
        bad = Matching.from_edges(2, ((0, 0), (0, 1)))
        with pytest.raises(InvalidMatchingError):
            critical_complex(I, bad)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("r", [4, 6])
    @pytest.mark.parametrize("build", [critical_complex, morse_differential])
    def test_matching_on_another_r_rejected(self, cycle5, build, r, validate):
        # r = 4 once gave the Taylor complex of the first four generators,
        # r = 6 an IndexError
        with pytest.raises(InvalidMatchingError, match=f"on {r} generators.* has 5"):
            build(cycle5, Matching(r, ()), validate=validate)


class TestMorseDifferential:
    def test_closed_v_path_rejected(self):
        I = parse_ideal("ring x\ngens x, x, x")
        cyclic = Matching.from_edges(3, ((0b001, 1), (0b010, 2), (0b100, 0)))
        with pytest.raises(InvalidMatchingError):
            morse_differential(I, cyclic, validate=True)

    def test_edge_inside_its_face_rejected(self):
        # (sigma, j) with j in sigma pairs a face with itself, refused when
        # the matching is built, before the differential sees it
        I = parse_ideal("ring x y\ngens x, y")
        with pytest.raises(ValueError, match="not a facet pair"):
            morse_differential(I, Matching.from_edges(2, ((1, 0),)), validate=False)

    def test_boundary_column_skips_a_matched_upper_facet(self):
        # the top cell {0,1,2} has no flow node among its facets, so its
        # column is the boundary walk; its first facet {1,2} is matched-upper
        # and has no row, but still flips the sign of the facets after it
        I = parse_ideal("ring a b c; gens a, b*c, b")
        m = Matching.from_edges(3, ((0b010, 2),))
        assert verify_matching(3, m, I).all_ok
        C = morse_differential(I, m)
        assert C.cells[2:] == ((0b011, 0b101), (0b111,))
        assert C.diff(3) == {(1, 0): (-1, (0, 0, 1)), (0, 0): (1, (0, 0, 0))}
        assert C == reference.morse_differential(I, m)

    def test_summed_entry_lands_in_its_own_column(self):
        # {1} -> {0, 1} on (x, x, x): in d_2 the column of {1, 2} sums the
        # flow of its facet {1} at the row of {0}, a row that the column of
        # {0, 2} before it holds too, so only its own column is searched
        I = parse_ideal("ring x\ngens x, x, x")
        m = Matching.from_edges(3, ((0b010, 0),))
        C = morse_differential(I, m)
        assert C.cells[1:3] == ((0b001, 0b100), (0b101, 0b110))
        assert list(C.diff(2).items()) == [
            ((1, 0), (1, (0,))),
            ((0, 0), (-1, (0,))),
            ((1, 1), (1, (0,))),
            ((0, 1), (-1, (0,))),
        ]
        assert C == reference.morse_differential(I, m)

    def test_summed_entry_cancelling_a_facet_entry_is_deleted(self):
        # {0} -> {0, 2} and {2} -> {1, 2} on (x, x, x): the column of {0, 1}
        # holds its critical facet {1}, and the flow of its facet {0} runs
        # to {1} too and cancels it, so d_2 has no entry at all
        I = parse_ideal("ring x\ngens x, x, x")
        m = Matching.from_edges(3, ((0b001, 2), (0b100, 1)))
        C = morse_differential(I, m)
        assert C.cells == ((0,), (0b010,), (0b011,), (0b111,))
        assert len(C.diff(2)) == 0 and (0, 0) not in C.diff(2)
        assert C == reference.morse_differential(I, m)
        assert check_d_squared(C) and check_exactness(I, C, 0)

    def test_empty_matching_is_taylor_boundary(self, path5):
        C = morse_differential(path5, empty_matching(path5))
        tc = TaylorComplex(path5)
        for i in range(1, C.length):
            cols = C.cells[i]
            rows = {m: k for k, m in enumerate(C.cells[i - 1])}
            expected = {}
            for c, mask in enumerate(cols):
                for facet, sign in facets(mask):
                    ratio = tuple(
                        a - b
                        for a, b in zip(tc.exponents(mask), tc.exponents(facet))
                    )
                    expected[(rows[facet], c)] = (sign, ratio)
            assert C.diff(i) == expected

    def test_x_xy_minimal_resolution(self):
        I = parse_ideal("ring x y\ngens x, x*y")
        C = morse_differential(I, prune_taylor(I))
        assert C.ranks() == (1, 1)
        assert C.diff(1) == {(0, 0): (1, (1, 0))}

    def test_path5_checks(self, path5):
        C = morse_differential(path5, prune_taylor(path5))
        assert check_d_squared(C)
        assert check_exactness(path5, C, 0)

    def test_brute_force_path_weights(self, cycle5):
        # compare the flow DP against explicit path enumeration
        m = prune_taylor(cycle5)
        C = morse_differential(cycle5, m)
        tc = TaylorComplex(cycle5)
        partner_up = {s: s | (1 << j) for s, j in m.edges}

        def inc(mask, sub):
            removed = mask & ~sub
            below = mask & (removed - 1)
            return -1 if bin(below).count("1") % 2 else 1

        for i in range(1, C.length):
            rows = {mask: k for k, mask in enumerate(C.cells[i - 1])}
            for col, sigma in enumerate(C.cells[i]):
                acc = {}
                stack = [(f, s) for f, s in facets(sigma)]
                while stack:
                    cell, w = stack.pop()
                    if cell in rows:
                        acc[cell] = acc.get(cell, 0) + w
                        continue
                    if cell in partner_up:
                        up = partner_up[cell]
                        w2 = -inc(up, cell)
                        for f, s in facets(up):
                            if f != cell:
                                stack.append((f, w * w2 * s))
                for cell, total in acc.items():
                    entry = C.diff(i).get((rows[cell], col))
                    got = entry[0] if entry else 0
                    assert got == total


class TestDSquared:
    def test_taylor_and_pruned(self, corpus40):
        for I in corpus40[:15]:
            for m in (empty_matching(I), prune_taylor(I)):
                assert check_d_squared(morse_differential(I, m, validate=False))

    def test_cycle5_pruned(self, cycle5):
        assert check_d_squared(morse_differential(cycle5, prune_taylor(cycle5)))

    def test_sign_corruption_detected(self, path5):
        C = morse_differential(path5, empty_matching(path5))
        diffs = [dict(d) for d in C.diffs]
        (row, col), (coeff, exps) = next(iter(diffs[1].items()))
        diffs[1][(row, col)] = (-coeff, exps)
        broken = ChainComplex(C.variables, C.cells, C.degrees, tuple(diffs))
        assert not check_d_squared(broken)

    @staticmethod
    def _two_variable(d2_exps):
        # F0 <- F1 (two cells) <- F2 (one cell) over x, y; the two terms of
        # d1 d2 cancel exactly when d2's vectors are cut to their length
        return ChainComplex(
            ("x", "y"),
            ((0,), (1, 2), (3,)),
            (((0, 0),), ((0, 1), (0, 2)), ((1, 2),)),
            (
                {(0, 0): (1, (0, 1)), (0, 1): (1, (0, 2))},
                {(0, 0): (1, d2_exps), (1, 0): (-1, d2_exps)},
            ),
        )

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 0)])
    def test_exponent_vector_of_wrong_length_rejected(self, exps):
        C = self._two_variable(exps)
        with pytest.raises(ValueError, match=r"\(2, 0, 0\)"):
            check_d_squared(C)
        with pytest.raises(ValueError, match=r"\(2, 0, 0\)"):
            check_exactness(parse_ideal("ring x y; gens y, y^2"), C, 2)
        # a single differential has no products, and is checked all the same
        d1 = ChainComplex(
            C.variables, C.cells[:2], C.degrees[:2], ({(0, 1): (1, exps)},)
        )
        with pytest.raises(ValueError, match=r"\(1, 0, 1\)"):
            check_d_squared(d1)


def _scaled_top_column(C, degree_too=False):
    """C with column 0 of its top differential multiplied by x_0: 1 added to
    the first exponent of each of its entries, and with `degree_too` to the
    first exponent of the degree of its cell as well."""
    top = C.length - 1
    diffs = [dict(d) for d in C.diffs]
    for (row, col), (coeff, exps) in C.diff(top).items():
        if col == 0:
            diffs[top - 1][(row, col)] = (coeff, (exps[0] + 1, *exps[1:]))
    degrees = list(C.degrees)
    if degree_too:
        first = degrees[top][0]
        degrees[top] = ((first[0] + 1, *first[1:]), *degrees[top][1:])
    return ChainComplex(C.variables, C.cells, tuple(degrees), tuple(diffs))


class TestContract:
    """Every entry of d_i joins a column in level i to a row in level i - 1,
    and its monomial is deg(col) - deg(row), with no negative exponent.  The
    checks return False on a complex that breaks this."""

    SPECS = ["rp2", "example-4-1", "cycle:6"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_top_column_scaled_by_x0(self, spec):
        # The top differential stays injective, so d(e_0) is not in the new
        # image and H_{top-1} != 0.  The cell degrees are unchanged, so every
        # strand still balances: only the monomials show it.
        I = builtin_ideal(spec)
        C = morse_differential(I, prune_taylor(I), validate=False)
        B = _scaled_top_column(C)
        assert not _contract_holds(B)
        assert not check_d_squared(B) and not check_minimal(B)
        for char in (0, 2):
            assert reference.exactness(I, B, char)
            assert not check_exactness(I, B, char), char

    @pytest.mark.parametrize("spec", SPECS)
    def test_top_column_and_its_degree_scaled_by_x0(self, spec):
        # With its cell degree raised to match, the column keeps the
        # contract and d*d = 0, and the strands find the homology.
        I = builtin_ideal(spec)
        C = morse_differential(I, prune_taylor(I), validate=False)
        B = _scaled_top_column(C, degree_too=True)
        assert _contract_holds(B) and check_d_squared(B)
        for char in (0, 2):
            assert not reference.exactness(I, B, char)
            assert not check_exactness(I, B, char), char

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_row_outside_its_level(self, cycle5, shift):
        # An entry of the top differential moved to a row index off by the
        # size of its level.  Read modulo that size it is the same row, with
        # the same degree, so its monomial still fits and d*d = 0.
        C = morse_differential(cycle5, prune_taylor(cycle5))
        top = C.length - 1
        (row, col), entry = min(C.diff(top).items())
        diffs = [dict(d) for d in C.diffs]
        del diffs[top - 1][(row, col)]
        diffs[top - 1][(row + shift * len(C.cells[top - 1]), col)] = entry
        B = _with_diffs(C, diffs)
        assert not _contract_holds(B)
        assert not check_d_squared(B) and not check_minimal(B)
        for char in (0, 2):
            assert not check_exactness(cycle5, B, char), char

    def test_column_outside_its_level_and_entries_above_the_top(self, path5):
        C = morse_differential(path5, prune_taylor(path5))
        (row, col), entry = min(C.diff(1).items())
        moved = [dict(d) for d in C.diffs]
        moved[0][(row, len(C.cells[1]))] = entry
        above = (*C.diffs, {(0, 0): entry})
        for B in (_with_diffs(C, moved), _with_diffs(C, above)):
            assert not _contract_holds(B)
            assert not check_d_squared(B) and not check_exactness(path5, B, 0)
        # an empty differential above the top level holds no entry
        assert _contract_holds(_with_diffs(C, (*C.diffs, {})))

    def test_stored_by_morse_differential(self, path5):
        # preset by morse_differential; computed on first use for any other
        # complex, then stored
        C = morse_differential(path5, prune_taylor(path5))
        assert vars(C)["_homogeneous"] is True
        B = _fresh(C)
        assert "_homogeneous" not in vars(B)
        assert check_d_squared(B) and vars(B)["_homogeneous"] is True


# S/(x, y) resolved by its Koszul complex: F0 = {e}, F1 = {a, b}, F2 = {ab}
KOSZUL_XY = {
    "variables": ("x", "y"),
    "cells": ((0,), (1, 2), (3,)),
    "degrees": (((0, 0),), ((1, 0), (0, 1)), ((1, 1),)),
    "diffs": (
        {(0, 0): (1, (1, 0)), (0, 1): (1, (0, 1))},
        {(0, 0): (1, (0, 1)), (1, 0): (-1, (1, 0))},
    ),
}


class TestShape:
    """A complex whose levels of cells, degrees and differentials do not
    line up is refused when it is built, with the counts named: a check of
    it would index past a level, or give a verdict or a Betti table for the
    part it reads."""

    def test_koszul_complex_is_a_minimal_resolution(self):
        I = parse_ideal("ring x y; gens x, y")
        C = ChainComplex(**KOSZUL_XY)
        assert check_d_squared(C) and check_exactness(I, C, 0) and check_minimal(C)
        assert betti_of_complex(C).totals() == (1, 2, 1)

    def test_missing_differential_refused(self):
        with pytest.raises(ValueError, match="3 levels of cells need 2 differentials, got 1"):
            ChainComplex(**{**KOSZUL_XY, "diffs": KOSZUL_XY["diffs"][:1]})

    def test_fewer_levels_of_degrees_refused(self):
        degrees = KOSZUL_XY["degrees"][:2]
        with pytest.raises(ValueError, match="3 levels of cells but 2 levels of degrees"):
            ChainComplex(**{**KOSZUL_XY, "degrees": degrees})

    def test_level_with_fewer_degrees_refused(self):
        # cells (1, 2) over the degrees of F0 and of a alone
        with pytest.raises(ValueError, match="level 1 has 2 cells but 1 degrees"):
            ChainComplex(
                ("x", "y"),
                KOSZUL_XY["cells"][:2],
                (((0, 0),), ((1, 0),)),
                KOSZUL_XY["diffs"][:1],
            )

    def test_extra_level_of_degrees_refused(self):
        with pytest.raises(ValueError, match="2 levels of cells but 3 levels of degrees"):
            ChainComplex(
                ("x", "y"),
                KOSZUL_XY["cells"][:2],
                KOSZUL_XY["degrees"],
                KOSZUL_XY["diffs"][:1],
            )


class TestExactness:
    def test_pruned_exact_all_chars(self, corpus40):
        for I in corpus40[:10]:
            C = morse_differential(I, prune_taylor(I), validate=False)
            for char in (0, 2, 3, 5):
                assert check_exactness(I, C, char)

    def test_rp2_char2(self, builtins):
        rp2 = builtins["rp2"]
        C = morse_differential(rp2, prune_taylor(rp2), validate=False)
        assert check_exactness(rp2, C, 2)

    def test_taylor_exact_small(self, corpus40):
        for I in corpus40[:6]:
            C = morse_differential(I, empty_matching(I), validate=False)
            for char in (0, 2):
                assert check_exactness(I, C, char)

    def test_exponents_near_max(self):
        # The strand index is sized by the lcm lattice, not by the exponent
        # values, so exponents the parser accepts cost no more than small ones
        I = parse_ideal(
            f"ring x y z; gens x^{MAX_EXPONENT - 1}*y, y^{MAX_EXPONENT}*z, z^5*x"
        )
        start = time.perf_counter()
        for method in (prune_taylor, prune_lyubeznik):
            C = morse_differential(I, method(I))
            assert check_exactness(I, C, 0) and check_exactness(I, C, 2)
            # a cell whose x-exponent is above every lattice value lies in
            # no strand
            degrees = list(C.degrees)
            first = degrees[1][0]
            degrees[1] = ((MAX_EXPONENT, *first[1:]), *degrees[1][1:])
            raised = ChainComplex(C.variables, C.cells, tuple(degrees), C.diffs)
            assert not check_exactness(I, raised, 0)
        assert time.perf_counter() - start < 5

    def test_deleted_row_detected(self, path5):
        C = morse_differential(path5, prune_taylor(path5))
        cells = list(C.cells)
        degrees = list(C.degrees)
        cells[2] = cells[2][1:]
        degrees[2] = degrees[2][1:]
        diffs = []
        for i in range(1, C.length):
            d = {}
            for (row, col), v in C.diff(i).items():
                if i == 2 and col == 0:
                    continue
                if i == 3 and row == 0:
                    continue
                newcol = col - 1 if i == 2 else col
                newrow = row - 1 if i == 3 else row
                d[(newrow, newcol)] = v
            diffs.append(d)
        broken = ChainComplex(C.variables, tuple(cells), tuple(degrees), tuple(diffs))
        assert not check_exactness(path5, broken, 0)


# the 4-cycle's edges and a fifth generator, over the five variables of the
# 5-cycle: the same number of generators as the 5-cycle
FIVE_GENERATORS = "ring x1 x2 x3 x4 x5; gens x1*x2, x2*x3, x3*x4, x4*x5, x1*x3*x5"


class TestOtherIdeal:
    """check_exactness of a complex with an ideal it was not built for."""

    @pytest.mark.parametrize("spec", ["cycle:4", "cycle:6"])
    def test_ideal_over_another_ring_rejected(self, cycle5, spec):
        # the pruned complex of the 5-cycle is over x1..x5; the 4-cycle is
        # over x1..x4, the 6-cycle over x1..x6
        C = morse_differential(cycle5, prune_taylor(cycle5))
        I = builtin_ideal(spec)
        for char in (0, 2):
            with pytest.raises(ValueError, match="variables"):
                check_exactness(I, C, char)

    @pytest.mark.parametrize("spec", ["path:5", FIVE_GENERATORS])
    def test_cell_degree_outside_the_lattice(self, cycle5, spec):
        # The cell x1*x5 of the 5-cycle's complex lies in no lattice point of
        # either ideal.  Every strand at a lattice point is exact, but at
        # x1*x5, outside both ideals, the cell kills the cokernel.
        C = morse_differential(cycle5, prune_taylor(cycle5))
        I = builtin_ideal(spec) or parse_ideal(spec)
        lattice = reference.face_lattice(I)
        assert {d for level in C.degrees for d in level} - lattice
        for char in (0, 2, 3, 5):
            assert not reference.exactness(I, C, char)
            assert not check_exactness(I, C, char), char

    def test_resolution_with_a_cell_degree_outside_the_lattice(self):
        # S/(x) over x, y resolved with a cancelling pair of cells b, c of
        # degree y added: F0 = {e}, F1 = {a, b}, F2 = {c}, d1 = (x, 0) and
        # d2 sends c to b.  The strands at y and xy are checked too, and
        # each is exact.
        I = parse_ideal("ring x y; gens x")
        C = ChainComplex(
            ("x", "y"),
            ((0,), (1, 2), (3,)),
            (((0, 0),), ((1, 0), (0, 1)), ((0, 1),)),
            ({(0, 0): (1, (1, 0))}, {(1, 0): (1, (0, 0))}),
        )
        for char in (0, 2, 3):
            assert check_exactness(I, C, char), char
        # without the cell c, the strand at y is not exact
        cut = ChainComplex(C.variables, C.cells[:2], C.degrees[:2], C.diffs[:1])
        for char in (0, 2, 3):
            assert not reference.exactness(I, cut, char)
            assert not check_exactness(I, cut, char), char

    def test_closure_beyond_two_to_the_r_rejected(self):
        # The lattice of (x1) has 2 points; the cell degrees x2 and x3 add
        # 6 more to its lcm closure, beyond 2^1.
        I = parse_ideal("ring x1 x2 x3; gens x1")
        C = ChainComplex(
            ("x1", "x2", "x3"),
            ((0,), (1, 2, 4)),
            (((0, 0, 0),), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            ({(0, 0): (1, (1, 0, 0)), (0, 1): (1, (0, 1, 0)), (0, 2): (1, (0, 0, 1))},),
        )
        with pytest.raises(ValueError, match=r"2\^1"):
            check_exactness(I, C, 0)

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 0)])
    def test_cell_degree_of_wrong_length_rejected(self, exps):
        # a degree cut short or padded would be read as another monomial
        I = parse_ideal("ring x y; gens x")
        C = ChainComplex(
            ("x", "y"),
            ((0,), (1, 2)),
            (((0, 0),), ((1, 0), exps)),
            ({(0, 0): (1, (1, 0))},),
        )
        with pytest.raises(ValueError, match="cell 1 of level 1"):
            check_exactness(I, C, 0)

    def test_empty_complex_rejected(self):
        # no levels, so not even F_0: no verdict to give
        I = parse_ideal("ring x y; gens x")
        C = ChainComplex(("x", "y"), (), (), ())
        for char in (0, 2, 3):
            with pytest.raises(ValueError, match="empty"):
                check_exactness(I, C, char)

    def test_library_complexes_stay_on_the_lattice(self, corpus40, builtins):
        # so check_exactness never builds the closure for them
        for I in [*corpus40, *builtins.values()]:
            lattice = reference.face_lattice(I)
            for method in (empty_matching, *METHODS):
                C = critical_complex(I, method(I), validate=False)
                assert {d for level in C.degrees for d in level} <= lattice


class TestStrandDegrees:
    """`_strand_degrees` flags the points of the lcm lattice that lie in I
    without scanning the generators: a nonzero point is the lcm of a
    nonempty set of them, and 0 lies in I iff a generator is 1."""

    @staticmethod
    def _same(I, cells=()):
        level = tuple(cells)
        want = reference.strand_degrees(I, ChainComplex(I.variables, (level,), (level,)))
        got = _strand_degrees(I, list(cells))
        assert got == want
        # the flag against its definition: some generator divides alpha
        for alpha, in_ideal in got:
            assert in_ideal == any(all(map(le, g.exponents, alpha)) for g in I.generators)
        return got

    def test_corpus40_and_builtins(self, corpus40, builtins):
        for I in [*corpus40, *builtins.values()]:
            got = self._same(I)
            assert [in_ideal for _, in_ideal in got] == [False] + [True] * (len(got) - 1)

    def test_unit_ideal(self):
        for rows in ([(0, 0)], [(1, 1), (0, 0)], [(0, 1), (0, 0), (2, 0)]):
            got = self._same(ideal(("x", "y"), rows))
            assert all(in_ideal for _, in_ideal in got)

    def test_closure_points_outside_the_lattice(self):
        # y and x*y are added to the lattice {1, x} of (x): x*y lies in I,
        # y does not, and neither is flagged from the lattice
        got = self._same(parse_ideal("ring x y; gens x"), [(0, 1)])
        assert got == [((0, 0), False), ((0, 1), False), ((1, 0), True), ((1, 1), True)]


class TestThresholdMasks:
    """`_threshold_masks` against its definition: bit idx of masks[k][j] is
    set when the k-th exponent of cell idx is at most values[k][j].  On the
    builtins, the strand loop of `reference.exactness` covers the masks
    through the verdicts of check_exactness."""

    @staticmethod
    def _same(cells, values):
        want = [
            [
                int("".join("01"[exps[k] <= v] for exps in reversed(cells)) or "0", 2)
                for v in vals
            ]
            for k, vals in enumerate(values)
        ]
        assert _threshold_masks(cells, values) == want

    def test_cycle15_lyubeznik(self):
        # 24,576 cells: masks of several machine words, every byte in use
        I = cycle_ideal(15)
        C = critical_complex(I, prune_lyubeznik(I), validate=False)
        cells = [exps for level in C.degrees for exps in level]
        values = [sorted(set(column)) for column in zip(*reference.face_lattice(I))]
        assert len(cells) == 24576
        self._same(cells, values)

    def test_exponent_above_every_lattice_value_and_no_cells(self):
        # a cell whose exponent exceeds every lattice value is in no mask
        self._same([(0,), (3,), (1,), (9,)] * 3, [[0, 1, 3]])
        assert _threshold_masks([], [[0, 1], [2]]) == [[0, 0], [0]]


def _with_diffs(C, diffs):
    return ChainComplex(C.variables, C.cells, C.degrees, tuple(diffs))


def _with_diff(C, i, d):
    """C with d_i replaced by d; the other differentials are C's own."""
    diffs = list(C.diffs)
    diffs[i - 1] = d
    return _with_diffs(C, diffs)


def _corruptions(C):
    """(name, complex, chars): for each differential, one entry deleted, one
    sign flipped, and its first column doubled; for each level above 0, the
    degree of its first cell raised in the first variable."""
    for i in range(1, C.length):
        key = min(C.diff(i))
        d = dict(C.diff(i))
        del d[key]
        yield f"delete d{i}{key}", _with_diff(C, i, d), (0,)
        d = dict(C.diff(i))
        coeff, exps = d[key]
        d[key] = (-coeff, exps)
        yield f"flip d{i}{key}", _with_diff(C, i, d), (0,)
        d = dict(C.diff(i))
        for (row, col), (coeff, exps) in C.diff(i).items():
            if col == 0:
                d[(row, col)] = (2 * coeff, exps)
        # d*d = 0 survives only when the doubled column is the top one
        yield f"double d{i} column 0", _with_diff(C, i, d), (0, 2)
        degrees = list(C.degrees)
        first = degrees[i][0]
        degrees[i] = ((first[0] + 1, *first[1:]), *degrees[i][1:])
        raised = ChainComplex(C.variables, C.cells, tuple(degrees), C.diffs)
        yield f"raise degree of F{i}[0]", raised, (0, 2)


def _traced(monkeypatch, I, C, char):
    """check_exactness(I, C, char) and, for each pass over strands it made,
    in order, (label, records): the label is the pass's char, 2 for the
    lane pass over F_2 and None for the unit pass over Z, and each record
    is (alpha, ranks, verdict) for one strand at its verdict.  ranks[i - 1]
    is the rank of d_i on the strand for 1 <= i < C.length.  For the unit
    pass the ranks are its numbers of unit pivots.

    The lane pass decides every strand at once: the rank of d_i in lane s
    is the number of rows of level i - 1 whose leads `_lane_level` returns
    with bit s set, and the verdict of strand s is whether s is missing
    from the list it returns.  A dict pass keeps one pivot dict, which only
    the kernels change, so the harness reads, at each strand's verdict, the
    number of keys of the dict a kernel of the pass was last handed that
    fall in the range of each level; until one is handed one, the dict is
    empty and every rank 0.

    check_exactness stores what it learns on the complex, so it runs on a
    fresh complex built from C's fields: each traced call does all its own
    work, whatever ran on C before."""
    passes = []
    top = C.length - 1
    level_of = [i for i, level in enumerate(C.degrees) for _ in level]
    current = []  # the state of the dict pass that runs, while it runs
    real_verdicts = morse._StrandIndex.verdicts
    real_lane_pass = morse._StrandIndex.lane_pass
    real_lane_level = morse._lane_level
    leads = []  # the leads _lane_level returned, top level first

    def lane_level(columns, lanes, led, n_rows):
        out = real_lane_level(columns, lanes, led, n_rows)
        leads.append(list(out[0]))  # the next level empties the list
        return out

    def lane_pass(index):
        leads.clear()
        not_exact = real_lane_pass(index)
        assert len(leads) == top
        ranks = [[0] * top for _ in index.strands]
        for i, level in zip(range(top, 0, -1), leads):
            for lanes in level:
                for s in indices_of(lanes):
                    ranks[s][i - 1] += 1
        failed = set(not_exact)
        passes.append((2, [
            (alpha, ranks[s], s not in failed)
            for s, (alpha, _) in enumerate(index.strands)
        ]))
        return not_exact

    def verdicts(index, ch, positions):
        state = {"pivots": {}}
        records = []
        passes.append((ch, records))
        current.append(state)
        try:
            for s, verdict in zip(positions, real_verdicts(index, ch, positions)):
                ranks = [0] * top
                for key in state["pivots"]:
                    ranks[level_of[key]] += 1
                records.append((index.strands[s][0], ranks, verdict))
                yield verdict
        finally:
            current.pop()

    def capturing(name):
        real = getattr(linalg, name)
        signature = inspect.signature(real)

        def kernel(*args, **kwargs):
            pivots = signature.bind(*args, **kwargs).arguments.get("pivots")
            if current and pivots is not None:
                current[-1]["pivots"] = pivots
            return real(*args, **kwargs)

        return kernel

    with monkeypatch.context() as m:
        m.setattr(morse._StrandIndex, "verdicts", verdicts)
        m.setattr(morse._StrandIndex, "lane_pass", lane_pass)
        m.setattr(morse, "_lane_level", lane_level)
        for name in ("pivots_rational", "pivots_mod", "pivots_unit"):
            m.setattr(linalg, name, capturing(name))
        result = check_exactness(I, _fresh(C), char)
    return result, passes


class _Reference:
    """The strand loop of `reference` on one complex, each strand's
    matrices built once and its ranks at each char computed once:
    `ranks(alpha, char)` are the ranks of d_1 .. d_top on the strand at
    alpha (`reference.strand_level_ranks`), `strand_exact` its verdict and
    `exact(char)` the loop's, which stops at the first strand that is not
    exact, as `reference.exactness` does."""

    def __init__(self, I, C):
        self.C = C
        self.strands = reference.strand_degrees(I, C)
        self.in_ideal = dict(self.strands)
        self.columns = reference.strand_columns(C)
        self.matrices = {}
        self.computed = {}

    def _sizes_ranks(self, alpha, char):
        key = (alpha, char)
        if key not in self.computed:
            if alpha not in self.matrices:
                self.matrices[alpha] = reference.strand_matrices(self.C, self.columns, alpha)
            sizes, matrices = self.matrices[alpha]
            self.computed[key] = sizes, reference.matrix_ranks(matrices, char)
        return self.computed[key]

    def ranks(self, alpha, char):
        return self._sizes_ranks(alpha, char)[1][1:self.C.length]

    def strand_exact(self, alpha, char):
        return reference.strand_exact(*self._sizes_ranks(alpha, char), self.in_ideal[alpha])

    def exact(self, char):
        return all(self.strand_exact(alpha, char) for alpha, _ in self.strands)


def _fresh(C):
    """A complex with C's fields and nothing stored on it yet."""
    return ChainComplex(C.variables, C.cells, C.degrees, C.diffs)


def _all_sound(C):
    """Every entry of every d_i joins its column to a cell of the level below
    whose degree divides the column's.  Entries outside the columns of d_i lie
    in no strand and are not looked at."""
    for i in range(1, C.length):
        here, lower = C.degrees[i], C.degrees[i - 1]
        for row, col in C.diff(i):
            if 0 <= col < len(here) and not (
                0 <= row < len(lower)
                and all(e <= c for e, c in zip(lower[row], here[col]))
            ):
                return False
    return True


class TestExactnessAgainstStrandLoop:
    """check_exactness against the strand loop of `reference.exactness`: the
    same verdict and, strand by strand and level by level, the same ranks.

    The lane pass over F_2 gives every strand's ranks at once, read from
    the leads it returns level by level, and each dict pass its ranks at
    each strand's verdict, read from its pivot dict (`_traced`).  Clearing
    and the stack of nested strands change which columns a kernel call
    sees, not the ranks, so no call is compared, only the ranks:
    - chars 0 and 2 first rank every strand over F_2 in the lane pass, and
      char 0 then ranks over Q the strands that fail over F_2, up to the
      first that fails over Q: each rank equals the loop's at that char,
      and so does each strand's verdict;
    - an odd p first runs the unit pass over Z on every strand, whose
      counts must be at most the loop's ranks at chars 0, 2, 3, 5 and p,
      and whose verdict, when it passes a strand, must be the loop's at p;
      then it ranks over F_p the strands the unit pass leaves, as char 0
      does over Q.  Where the loop finds the complex exact over F_p, the
      unit pass certifies every strand of the complexes compared here."""

    CHARS = (0, 2, 3, 5)

    def _same(self, monkeypatch, I, C, char, ref=None):
        """check_exactness's verdict, once its ranks are checked against
        the loop's; `ref`, a `_Reference` of C, keeps the loop's ranks for
        the comparisons at other chars."""
        ref = _Reference(I, C) if ref is None else ref
        got, passes = _traced(monkeypatch, I, C, char)
        assert got == ref.exact(char)
        if not passes:  # turned down before any strand, by d*d
            return got
        certifier = 2 if char in (0, 2) else None
        (first, certified), *rest = passes
        assert first == certifier
        assert [alpha for alpha, *_ in certified] == [alpha for alpha, _ in ref.strands]
        failed = [alpha for alpha, _, verdict in certified if not verdict]
        for alpha, ranks, verdict in certified:
            if certifier == 2:
                assert ranks == ref.ranks(alpha, 2), alpha
                assert verdict == ref.strand_exact(alpha, 2), alpha
            else:
                for c in {*self.CHARS, char}:
                    assert all(map(le, ranks, ref.ranks(alpha, c))), (alpha, c)
                assert not verdict or ref.strand_exact(alpha, char), alpha
        if char == certifier:
            assert not rest and got == (not failed)
            return got
        if certifier is None and got:
            assert not failed
        if not failed:
            assert not rest or rest == [(char, [])]
            assert got
            return got
        ((label, ranked),) = rest
        assert label == char
        # ranked up to the first strand that fails over the field
        assert [alpha for alpha, *_ in ranked] == failed[: len(ranked)]
        for alpha, ranks, verdict in ranked:
            assert ranks == ref.ranks(alpha, char), alpha
            assert verdict == ref.strand_exact(alpha, char), alpha
        assert all(verdict for *_, verdict in ranked[:-1])
        assert got == ranked[-1][2]
        return got

    def _all_chars(self, monkeypatch, I, C):
        ref = _Reference(I, C)
        return [self._same(monkeypatch, I, C, char, ref) for char in self.CHARS]

    def test_corpus40(self, resolutions40, monkeypatch):
        for I, _, C in resolutions40:
            assert all(self._all_chars(monkeypatch, I, C))

    @pytest.mark.parametrize("name", ["path:5", "cycle:5", "rp2", "example-4-1"])
    def test_builtins(self, builtin_resolutions, monkeypatch, name):
        for I, _, C in builtin_resolutions[name]:
            assert all(self._all_chars(monkeypatch, I, C)), name

    def test_corrupted_corpus40(self, resolutions40, monkeypatch):
        # The strand loop looks neither at d*d nor at the monomials, which
        # check_exactness requires first; over Q check_d_squared is that
        # condition.  Where it still holds, both make the same rank calls,
        # as `_same` states them.  Doubling a column keeps d*d = 0 over Z,
        # so it is compared at char 2 too; a raised degree breaks the
        # contract and is rejected.
        compared = 0
        for I, _, C in resolutions40[:60]:
            for name, B, chars in _corruptions(C):
                if not check_d_squared(B):
                    assert not check_exactness(I, B, 0), name
                    continue
                ref = _Reference(I, B)
                for char in chars:
                    self._same(monkeypatch, I, B, char, ref)
                    compared += 1
        assert compared > 100


def _with_entry(C, i, key, exps):
    """C with the monomial of entry `key` of d_i replaced by `exps`."""
    d = dict(C.diff(i))
    d[key] = (d[key][0], tuple(exps))
    return _with_diff(C, i, d)


def _monomial_corruptions(C):
    """(name, complex): for each differential, one exponent of one entry
    raised, the monomials of two entries in one column swapped, and one
    exponent made negative.  Coefficients stay as they are.  Each breaks the
    contract unless the swapped monomials are equal."""
    for i in range(1, C.length):
        key = min(C.diff(i))
        coeff, exps = C.diff(i)[key]
        k = max(range(len(exps)), key=lambda v: exps[v])
        raised = list(exps)
        raised[k] += 1
        yield f"raise x{k} of d{i}{key}", _with_entry(C, i, key, raised)
        negative = list(exps)
        negative[k] = -negative[k] - 1
        yield f"negate x{k} of d{i}{key}", _with_entry(C, i, key, negative)
        by_col = {}
        for row, col in sorted(C.diff(i)):
            by_col.setdefault(col, []).append((row, col))
        pair = next((keys[:2] for keys in by_col.values() if len(keys) > 1), None)
        if pair is not None:
            a, b = pair
            d = dict(C.diff(i))
            (ca, ea), (cb, eb) = d[a], d[b]
            d[a], d[b] = (ca, eb), (cb, ea)
            yield f"swap monomials of d{i}{a} and d{i}{b}", _with_diff(C, i, d)


def _row_corruptions(C):
    """(name, complex): for each differential below the top one, its first
    entry moved to the next row (a row index may fall outside its level),
    once as it is and once with its first exponent lowered by one, which
    in a packed key sat right above the row."""
    for i in range(1, C.length - 1):
        d = C.diff(i)
        key = next(((r, c) for r, c in sorted(d) if (r + 1, c) not in d), None)
        if key is None:
            continue
        row, col = key
        coeff, exps = d[key]
        for name, moved in (
            ("", exps),
            (", first exponent lowered", (exps[0] - 1, *exps[1:])),
        ):
            d = dict(C.diff(i))
            del d[key]
            d[(row + 1, col)] = (coeff, moved)
            yield f"move d{i}{key} to row {row + 1}{name}", _with_diff(C, i, d)


def _top_variable_corruptions(C):
    """(name, complex): for each differential, the exponent of the last
    variable, the highest field of a packed key, of one entry moved up,
    down, below zero and to either end of the parser's range.  Each breaks
    the contract."""
    for i in range(1, C.length):
        key = min(C.diff(i))
        exps = C.diff(i)[key][1]
        top = exps[-1]
        for value in (top + 1, top - 1, -top - 1, MAX_EXPONENT, -MAX_EXPONENT):
            yield (
                f"top exponent {value} in d{i}{key}",
                _with_entry(C, i, key, (*exps[:-1], value)),
            )


def _carry_pair(nvars, k, bound):
    """F0 <- F1 (two cells) <- F2 (one cell) whose two terms of d1 d2 differ
    by +2**(width - 1) in variable k and by -1 in variable k + 1, with
    width the bit length of 4 * bound and every exponent in [-bound, bound].
    The exponent sums are distinct, so d*d != 0; a packed key with a field
    one bit narrower would carry that difference into the next field and
    cancel it.  Every cell has degree 1, so the complex breaks the
    contract."""
    width = (4 * bound).bit_length()
    upper = [0] * nvars
    lower = [0] * nvars
    upper[k] = lower[k] = bound
    low_sum = 2 * bound - 2 ** (width - 1)
    b_upper = [0] * nvars
    b_lower = [0] * nvars
    b_upper[k] = low_sum // 2
    b_lower[k] = low_sum - low_sum // 2
    b_upper[k + 1] = 1
    variables = tuple(f"x{v}" for v in range(nvars))
    zero = (0,) * nvars
    return ChainComplex(
        variables,
        ((0,), (1, 2), (3,)),
        ((zero,), (zero, zero), (zero,)),
        (
            {(0, 0): (1, tuple(lower)), (0, 1): (1, tuple(b_lower))},
            {(0, 0): (1, tuple(upper)), (1, 0): (-1, tuple(b_upper))},
        ),
    )


class TestDSquaredAgainstReference:
    """check_d_squared against `reference.d_squared`, which keys a product
    term by its row and exponent sum and so reads every monomial, at chars
    0, 2, 3 and 5.  On a complex that keeps the contract, the gcd of the
    row sums of d*d (`_d_squared_gcd`) gives the reference verdict at every
    char, which divides it exactly when d*d vanishes there (0 divides only
    0), whether it multiplies a pair or certifies it by ∂∂ = 0, and
    check_d_squared gives it over the integers.  Any other complex, such
    as one with a monomial, a row or a cell degree changed, or a column
    that is not sound, check_d_squared, check_minimal and check_exactness
    all reject, so check_d_squared still rejects every complex the
    reference rejects.

    The complexes are the resolutions the library builds, each with the
    changes of `_corruptions`, `_monomial_corruptions` and
    `_row_corruptions`, and the changes of `_sound_corruptions`, which keep
    the contract and d*d = 0 over the integers."""

    CHARS = (0, 2, 3, 5)

    def _expected(self, C, products):
        """The reference verdicts at CHARS.  `products` keeps the product of
        each pair of differentials it has met, by their ids, with the pair,
        so that no id is reused: a changed complex shares all but one
        differential with the complex it was made from."""
        values = []
        for i in range(2, C.length):
            lower, upper = C.diff(i - 1), C.diff(i)
            key = (id(lower), id(upper))
            if key not in products:
                sums = reference.d_squared_sums(lower, upper).values()
                products[key] = (lower, upper, [v for v in sums if v])
            values += products[key][2]
        return [not any(v % c if c else v for v in values) for c in self.CHARS]

    def _same(self, C, I=None, products=None, name=""):
        """(check_d_squared's verdict on C, whether C keeps the contract),
        once the verdict is checked against the reference's.  With the
        ideal I, check_exactness is asked at chars 0 and 2 too."""
        expected = self._expected(C, {} if products is None else products)
        B = _fresh(C)
        verdict = check_d_squared(B)
        kept = B._homogeneous  # the contract, as the check stored it on B
        if kept:
            # check_d_squared's verdict is the row-keyed d*d over the integers
            assert verdict == expected[0], name
            g = _d_squared_gcd(C)
            assert [g % c == 0 if c else g == 0 for c in self.CHARS] == expected, name
        else:
            assert not verdict and not check_minimal(B), name
            if I is not None:
                assert not check_exactness(I, B, 0), name
                assert not check_exactness(I, B, 2), name
        return verdict, kept

    def _all(self, I, C, corrupt=True):
        """C, built by morse_differential, and with `corrupt` its changes:
        (how many of them check_d_squared rejects, how many keep the
        contract with d*d != 0 over the integers).  Every change of
        `_corruptions` but a raised degree keeps the contract; whether the
        monomial and row changes do is left to the contract pass."""
        assert vars(C)["_homogeneous"] is True and _contract_holds(_fresh(C))
        products = {}
        assert self._same(C, I, products) == (True, True)
        rejected = nonzero = 0
        if corrupt:
            changed = [
                (name, B, not name.startswith("raise degree"))
                for name, B, _ in _corruptions(C)
            ]
            changed += [
                (name, B, None)
                for name, B in (*_monomial_corruptions(C), *_row_corruptions(C))
            ]
            for name, B, keeps in changed:
                verdict, kept = self._same(B, I, products, name)
                assert keeps is None or kept == keeps, name
                rejected += not verdict
                nonzero += kept and not verdict
        return rejected, nonzero

    def test_corpus200(self, resolutions200):
        rejected = nonzero = 0
        for I, _, C in resolutions200:
            r, n = self._all(I, C)
            rejected, nonzero = rejected + r, nonzero + n
        assert rejected > 5000 and nonzero > 1000

    @pytest.mark.parametrize("name", ["path:5", "cycle:5", "rp2", "example-4-1"])
    def test_builtins(self, builtin_resolutions, name):
        for I, _, C in builtin_resolutions[name]:
            rejected, nonzero = self._all(I, C)
            assert rejected and nonzero, name

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, cycle_resolutions, n):
        # corrupted up to the 10-cycle, whose corruptions take a second
        for I, _, C in cycle_resolutions[n]:
            rejected, nonzero = self._all(I, C, corrupt=n <= 10)
            assert n > 10 or rejected and nonzero

    def test_exponents_near_max(self):
        I = parse_ideal(
            f"ring x y z; gens x^{MAX_EXPONENT - 1}*y, y^{MAX_EXPONENT}*z, z^5*x"
        )
        rejected = 0
        for method in (empty_matching, *METHODS):
            C = morse_differential(I, method(I), validate=False)
            assert max(
                max(exps) for d in C.diffs for _, exps in d.values()
            ) == MAX_EXPONENT
            rejected += self._all(I, C)[0]
            for name, B in _top_variable_corruptions(C):
                rejected += not self._same(B, I, name=name)[0]
        assert rejected > 100

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, MAX_EXPONENT - 1, MAX_EXPONENT])
    @pytest.mark.parametrize("k", [0, 1])
    def test_no_carry_between_fields(self, k, bound):
        C = _carry_pair(3, k, bound)
        assert not reference.d_squared(C, 0) and not _contract_holds(C)
        assert self._same(C) == (False, False)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sound_corruptions(self, resolutions40, data):
        I, _, C = data.draw(st.sampled_from(resolutions40))
        assume(C.length >= 2)
        B = _sound_corruptions(C, data.draw)
        assert self._same(B, I) == (True, True)


def _sound_corruptions(C, draw):
    """Changes that keep every column sound and d*d = 0 over the integers:
    a whole differential scaled by k, a column of the top differential
    scaled by k (k = 0 deletes it), or the sign of one cell flipped (its
    column in d_i and its row in d_{i+1})."""
    diffs = [dict(d) for d in C.diffs]

    def scale(i, k, keep):
        d = diffs[i - 1]
        for key in [key for key in d if keep(key)]:
            coeff, exps = d[key]
            if k:
                d[key] = (k * coeff, exps)
            else:
                del d[key]

    top = C.length - 1
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["differential", "top column", "cell"]))
        k = draw(st.sampled_from([-1, 0, 2, -2, 3, 6]))
        if kind == "differential":
            scale(draw(st.integers(1, top)), k, lambda key: True)
        elif kind == "top column":
            col = draw(st.integers(0, len(C.cells[top]) - 1))
            scale(top, k, lambda key: key[1] == col)
        else:
            i = draw(st.integers(1, top))
            cell = draw(st.integers(0, len(C.cells[i]) - 1))
            scale(i, -1, lambda key: key[1] == cell)
            if i < top:
                scale(i + 1, -1, lambda key: key[0] == cell)
    return _with_diffs(C, diffs)


def _product_terms(monkeypatch, C):
    """check_d_squared of a fresh copy of C, and {i: the product terms it
    summed for d_{i-1} d_i} over the pairs it multiplied: each column's
    entries times the entries of the lower columns they point to."""
    B = _fresh(C)
    terms = {}
    real_product = morse._product_gcd

    def product(lower, upper):
        i = next(i for i, e in enumerate(B.diffs, 1) if e is upper)
        assert B.diff(i - 1) is lower and i not in terms
        starts = lower.starts
        terms[i] = sum(starts[mid + 1] - starts[mid] for mid in upper.rows)
        return real_product(lower, upper)

    with monkeypatch.context() as m:
        m.setattr(morse, "_product_gcd", product)
        verdict = check_d_squared(B)
    return verdict, terms


def _boundary_levels(C):
    return [i for i in range(1, C.length) if _is_boundary(C, i)]


class TestBoundaryCertificate:
    """d*d skips the product d_{i-1} d_i when both are simplicial boundaries
    (`morse._is_boundary`), and multiplies every other pair."""

    SIMPLICIAL = (prune_simplicial, prune_lyubeznik)

    def _every_level(self, resolutions):
        for _, method, C in resolutions:
            if method in self.SIMPLICIAL:
                assert _boundary_levels(C) == list(range(1, C.length)), method

    def test_simplicial_resolutions_corpus200(self, resolutions200):
        # the paper: a slight change to the pruning gives a simplicial
        # resolution, and the Lyubeznik resolution is one as well
        self._every_level(resolutions200)

    def test_simplicial_resolutions_builtins_and_cycles(
        self, builtin_resolutions, cycle_resolutions
    ):
        for resolutions in (*builtin_resolutions.values(), *cycle_resolutions.values()):
            self._every_level(resolutions)

    def test_pruned_resolution_is_not_simplicial(self, cycle_resolutions):
        # "not simplicial in general": above d_2 the gradient flow makes
        # columns that are no longer the boundary of their cell
        (_, method, C), *_ = cycle_resolutions[8]
        assert method is prune_taylor and _boundary_levels(C) == [1, 2]
        assert C.length == 6

    @pytest.mark.parametrize("spec", ["cycle:12", "example-4-1"])
    def test_simplicial_resolutions_multiply_nothing(self, monkeypatch, spec):
        I = builtin_ideal(spec)
        for method in self.SIMPLICIAL:
            C = morse_differential(I, method(I), validate=False)
            assert C.length >= 8
            assert _product_terms(monkeypatch, C) == (True, {})

    def test_pruned_multiplies_the_pairs_off_the_boundary(self, monkeypatch):
        I = cycle_ideal(12)
        C = morse_differential(I, prune_taylor(I), validate=False)
        verdict, terms = _product_terms(monkeypatch, C)
        assert verdict and _boundary_levels(C) == [1, 2]
        assert sorted(terms) == list(range(3, C.length))
        assert all(terms.values())
        # a sign flipped in d_1 takes the pair d_1 d_2 off the boundary; the
        # gcd reads every pair off it, past the first that is nonzero
        diffs = [dict(d) for d in C.diffs]
        coeff, exps = diffs[0][(0, 0)]
        diffs[0][(0, 0)] = (-coeff, exps)
        verdict, terms = _product_terms(monkeypatch, _with_diffs(C, diffs))
        assert not verdict and sorted(terms) == list(range(2, C.length))

    def test_distinct_masks(self):
        # two cells of F_1 share the mask 2, and d_2 hits both: row, sign
        # and count all hold, and d_1 d_2 = 2xy
        I = parse_ideal("ring x y; gens x, y")
        degrees = (((0, 0),), ((1, 0), (0, 1), (0, 1)), ((1, 1),))
        C = ChainComplex(
            I.variables,
            ((0,), (1, 2, 2), (3,)),
            degrees,
            (
                {(0, k): (1, deg) for k, deg in enumerate(degrees[1])},
                {(1, 0): (1, (1, 0)), (2, 0): (1, (1, 0))},
            ),
        )
        assert _contract_holds(C) and _boundary_levels(C) == [1]
        assert not check_d_squared(C)
        for char in (0, 2):
            assert not check_exactness(I, _fresh(C), char)

    def test_negative_masks(self):
        # -2 less its member 1 is -4, and -1 less its member 0 is -2, with
        # int.bit_count 1 each: every level passes the four tests alone,
        # but these ints stand for infinite sets, and d_1 d_2 = 1
        C = ChainComplex(
            ("x",),
            ((-4,), (-2,), (-1,)),
            (((0,),),) * 3,
            ({(0, 0): (1, (0,))},) * 2,
        )
        assert _contract_holds(C) and _boundary_levels(C) == [1, 2]
        assert not check_d_squared(C)

    @pytest.mark.parametrize("d2, verdict", [({(0, 0): (1, (0,))}, False), ({}, True)])
    def test_cells_that_are_no_masks(self, d2, verdict):
        # labels that are no ints are multiplied like any other complex
        C = ChainComplex(
            ("x",),
            (("",), ("a",), ("ab",)),
            (((0,),),) * 3,
            ({(0, 0): (1, (0,))}, d2),
        )
        assert check_d_squared(C) is verdict


class TestCertificateOverF2:
    """Over Q, check_exactness certifies the strands over F_2 first.  That
    is valid on a complex that keeps the contract and has d*d = 0 over Z
    (see its docstring), where exact over F_2 implies exact over Q.  A
    complex with a column that is not sound breaks the argument, and the
    contract, so it is rejected before any strand is ranked."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sound_corruptions(self, resolutions40, data):
        I, _, C = data.draw(st.sampled_from(resolutions40[:60]))
        assume(C.length >= 2)
        B = _sound_corruptions(C, data.draw)
        assert _all_sound(B) and check_d_squared(B)
        exact0 = check_exactness(I, B, 0)
        exact2 = check_exactness(I, B, 2)
        assert exact0 == reference.exactness(I, B, 0)
        assert exact2 == reference.exactness(I, B, 2)
        assert exact0 or not exact2

    @pytest.mark.parametrize("name", ["cycle:5", "rp2"])
    def test_top_column_doubled_and_another_deleted(self, builtin_resolutions, name):
        # the doubled column fails its strands over F_2 alone, the deleted
        # one over every field: Q must rank every strand that F_2 fails, in
        # either order of the two columns
        for I, _, C in builtin_resolutions[name]:
            top = C.length - 1
            last = len(C.cells[top]) - 1
            for a, b in ((0, last), (last, 0)):
                d = {}
                for (row, col), (coeff, exps) in C.diff(top).items():
                    if col != b:
                        d[(row, col)] = (2 * coeff if col == a else coeff, exps)
                B = _with_diff(C, top, d)
                assert check_d_squared(B) and not reference.exactness(I, B, 0)
                assert not check_exactness(I, B, 0) and not check_exactness(I, B, 2)

    def test_unsound_strand_ranked_over_q(self):
        # F0 = {e}, F1 = {a, b}, F2 = {c} over the ideal (x), with degrees
        # 1, 1, x and 1.  d1 = (2, -2) and d2 = (1, 1)^T compose to zero, but
        # the degree of b does not divide that of c, so d2's column is not
        # sound.  On the strand at 1, which lacks b, d1 d2 = 2 != 0: its F_2
        # ranks (0 and 1) pass the strand test and its Q ranks (1 and 1) do
        # not.  Certifying over F_2 would call the complex exact; the entry
        # of d2 at b has the monomial 1 for the degree ratio 1/x, so the
        # contract rejects it first.
        I = parse_ideal("ring x; gens x")
        C = ChainComplex(
            ("x",),
            ((0,), (1, 2), (3,)),
            (((0,),), ((0,), (1,)), ((0,),)),
            (
                {(0, 0): (2, (0,)), (0, 1): (-2, (0,))},
                {(0, 0): (1, (0,)), (1, 0): (1, (0,))},
            ),
        )
        assert _d_squared_gcd(C) == 0 and not _all_sound(C)
        assert not _contract_holds(C) and not check_d_squared(C)
        assert not reference.exactness(I, C, 0)
        assert not check_exactness(I, C, 0)

    def test_unsound_column_masked_over_f2(self):
        # F0 = {e}, F1 = {a, b, c}, F2 = {s, t} over the ideal (x), with
        # degrees 1; 1, x, x; x, 1.  d1 = (0, 0, x) and d2 sends s to x*a and
        # t to b, so d1 d2 = 0, but the degree of b does not divide that of
        # t.  On the strand at 1, which lacks b, t is a zero column and the
        # cycle a bounds nothing.  A packed column of t that kept its row b
        # would have F_2 rank 1 there and make every strand pass.  The entry
        # of d2 at (b, t) has the monomial 1 for the degree ratio 1/x, so the
        # contract rejects the complex first.
        I = parse_ideal("ring x; gens x")
        C = ChainComplex(
            ("x",),
            ((0,), (1, 2, 4), (3, 6)),
            (((0,),), ((0,), (1,), (1,)), ((1,), (0,))),
            (
                {(0, 2): (1, (1,))},
                {(0, 0): (1, (1,)), (1, 1): (1, (0,))},
            ),
        )
        assert _d_squared_gcd(C) % 2 == 0 and not _all_sound(C)
        assert not _contract_holds(C) and not check_d_squared(C)
        assert not reference.exactness(I, C, 2)
        assert not check_exactness(I, C, 2)


def _one_entry(coeff):
    """The ideal (x) and its resolution F0 = {e}, F1 = {a}, with degrees 1
    and x and d1 = coeff * x: its strand at x has one entry, coeff."""
    I = parse_ideal("ring x; gens x")
    C = ChainComplex(
        ("x",), ((0,), (1,)), (((0,),), ((1,),)), ({(0, 0): (coeff, (1,))},)
    )
    return I, C


class TestCertificateOverUnits:
    """At an odd p, check_exactness certifies the strands by unit pivots
    over Z first, once for every odd p (see its docstring), and ranks over
    F_p only the strands that pass leaves uncertified."""

    def test_strand_whose_only_entry_is_3(self, monkeypatch):
        # exact over Q, F_2 and F_5; over F_3, d1 vanishes.  The unit pass
        # keeps no pivot, so F_3 ranks the strand, and so does F_5
        I, C = _one_entry(3)
        expected = {0: True, 2: True, 3: False, 5: True, 7: True}
        assert {c: reference.exactness(I, C, c) for c in expected} == expected
        for order in ((3, 5, 0, 2, 7), (5, 7, 3), (2, 0, 7, 3)):
            B = _fresh(C)
            assert {c: check_exactness(I, B, c) for c in order} == {
                c: expected[c] for c in order
            }, order
            assert B._index.not_exact[None] == [1]
        TestExactnessAgainstStrandLoop()._same(monkeypatch, I, C, 3)
        mod_calls = counting(monkeypatch, "pivots_mod")
        assert check_exactness(I, _fresh(C), 5)
        assert [args[1] for args in mod_calls] == [5]

    @pytest.mark.parametrize("coeff", [1, -1])
    def test_unit_entry_ranks_nothing_over_fp(self, monkeypatch, coeff):
        I, C = _one_entry(coeff)
        mod_calls = counting(monkeypatch, "pivots_mod")
        assert all(check_exactness(I, C, c) for c in (3, 5, 7))
        assert C._index.not_exact[None] == [] and not mod_calls

    def test_tripled_top_column(self, resolutions40, monkeypatch):
        # d*d stays 0 over Z, the complex stays exact over F_5 and F_7, and
        # the top column vanishes over F_3.  No unit pivot is left in it, so
        # the strands that hold its cell are ranked over F_p
        compared = 0
        for I, _, C in resolutions40[:60]:
            top = C.length - 1
            if top < 1:
                continue
            d = dict(C.diff(top))
            for (row, col), (coeff, exps) in C.diff(top).items():
                if col == 0:
                    d[(row, col)] = (3 * coeff, exps)
            B = _with_diff(C, top, d)
            assert check_d_squared(B)
            assert not TestExactnessAgainstStrandLoop()._same(monkeypatch, I, B, 3)
            with monkeypatch.context() as m:
                mod_calls = counting(m, "pivots_mod")
                assert check_exactness(I, B, 5) and check_exactness(I, B, 7)
            assert {args[1] for args in mod_calls} == {5, 7}
            assert reference.exactness(I, B, 7)
            compared += 1
        assert compared > 50

    def test_corpus_pass_ranks_nothing_over_fp(
        self, resolutions200, builtin_resolutions, monkeypatch
    ):
        # chars 0, 2, 3, 5 in the order of the corpus workload, then 7; every
        # strand is certified by unit pivots.  Chars 3 and 5 of example-4-1
        # are compared in TestExactnessAgainstStrandLoop, so here only 7 is
        compared = [(res, (3, 5, 7)) for res in resolutions200]
        for name, resolutions in builtin_resolutions.items():
            chars = (7,) if name == "example-4-1" else (3, 5, 7)
            compared += [(res, chars) for res in resolutions]
        for (I, _, C), chars in compared:
            B = _fresh(C)
            with monkeypatch.context() as m:
                mod_calls = counting(m, "pivots_mod")
                assert all(check_exactness(I, B, c) for c in (0, 2, 3, 5, 7))
            assert not mod_calls
            for char in chars:
                assert reference.exactness(I, C, char)

    def test_contract_keeping_corruptions(self, resolutions40, builtin_resolutions):
        # the strand loop reads no d*d: where d*d mod p fails, only
        # check_exactness is asked
        compared = 0
        small = [
            res for name in ("path:5", "cycle:5", "rp2") for res in builtin_resolutions[name]
        ]
        for I, _, C in resolutions40[:60] + small:
            for name, B, _ in _corruptions(C):
                if not _contract_holds(B):
                    continue
                for char in (3, 5, 7):
                    if _d_squared_gcd(B) % char:
                        assert not check_exactness(I, B, char), name
                        continue
                    verdict = check_exactness(I, B, char)
                    assert verdict == reference.exactness(I, B, char), name
                    compared += 1
        assert compared > 100


class TestSummedStrandTest:
    """check_exactness passes a strand when its homology summed over degrees
    >= 1 is zero: under the contract each strand is a subcomplex, so no
    degree's homology is negative.  A column that is not sound breaks that,
    and the contract, so the complex is rejected before its strands are
    counted."""

    def test_unsound_column_cancels_in_the_sum(self):
        # F0 = {e}, F1 = {g, h}, F2 = {gh, z}, F3 = {w} over the ideal
        # (x, y), with degrees 1; x, y; x, x; xy.  d1 = (x, y), d2 sends gh
        # to y*g - x*h, and d3 sends w to y*z, so d*d = 0.  But the degree of
        # h does not divide x, the degree of gh.  On the strand at x, which
        # lacks h, gh bounds g: H_1 = 1 - 1 - 1 = -1 and H_2 = 2 - 1 = +1,
        # which sum to zero.  The entry of d2 at (h, gh) has the monomial x
        # for the degree ratio x/y.
        I = parse_ideal("ring x y; gens x, y")
        C = ChainComplex(
            ("x", "y"),
            ((0,), (1, 2), (3, 4), (7,)),
            (
                ((0, 0),),
                ((1, 0), (0, 1)),
                ((1, 0), (1, 0)),
                ((1, 1),),
            ),
            (
                {(0, 0): (1, (1, 0)), (0, 1): (1, (0, 1))},
                {(0, 0): (1, (0, 1)), (1, 0): (-1, (1, 0))},
                {(1, 0): (1, (0, 1))},
            ),
        )
        assert _d_squared_gcd(C) == 0 and not _all_sound(C)
        assert not _contract_holds(C) and not check_d_squared(C)
        for char in (0, 2, 3):
            assert not reference.exactness(I, C, char)
            assert not check_exactness(I, C, char), char


class TestChainedStrands:
    """Each dict pass of check_exactness (unit, Q and F_p) keeps one pivot
    dict and a stack of the nested strands it is an echelon form of.  A strand backs out of every
    strand on the stack that it does not contain, popping the keys each
    added, and extends the one left on top with the cells that strand
    lacks.  Lattice degrees are visited in lex order of their exponents."""

    def test_strand_that_does_not_contain_the_last_starts_afresh(self):
        # The Taylor resolution of (x, y, z), whose strand at x follows the
        # one at yz and does not contain it.  Carried on from there, the
        # strand at x would keep the pivot of the column of yz in level 1
        # and fail the summed test; it backs out to the strand at 1, which
        # has no key.
        I = parse_ideal("ring x y z; gens x, y, z")
        C = morse_differential(I, empty_matching(I))
        assert _all_sound(C)
        for char in (0, 2, 3, 5):
            assert reference.exactness(I, C, char)
            assert check_exactness(I, C, char), char

    def test_strand_that_contains_the_one_two_back_resumes_from_it(self, monkeypatch):
        # In the Taylor resolution of (x, y, z) the strands with columns
        # come in the order z, y, yz, x, xz, xy, xyz.  The strand at xy
        # contains the one at x, two back, but not the one at xz: it backs
        # out of xz alone and is handed the dict of x, which holds the key
        # of the empty face, with only the columns of y and xy.  The unit
        # pass over Z runs over every strand.
        I = parse_ideal("ring x y z; gens x, y, z")
        C = morse_differential(I, empty_matching(I))
        cell = {mask: g for g, mask in enumerate(m for level in C.cells for m in level)}
        x, y, z = 1, 2, 4

        def cells(*faces):
            return sum(1 << cell[face] for face in faces)

        expected = [
            cells(z), cells(y), cells(z, y | z), cells(x), cells(z, x | z),
            cells(y, x | y), cells(z, x | z, y | z, x | y | z),
        ]
        real = morse._uncleared
        handed = []

        def uncleared(rows, new, pivots):
            handed.append((new, sorted(pivots)))
            return real(rows, new, pivots)

        monkeypatch.setattr(morse, "_uncleared", uncleared)
        assert check_exactness(I, _fresh(C), 3)
        assert [new for new, _ in handed] == expected
        # x starts from no key; xz and then xy from that of x
        assert [keys for _, keys in handed][3:6] == [[], [0], [0]]

    def test_column_with_a_negative_exponent_is_rejected(self):
        # F0 = {e}, F1 = {g, h, u}, F2 = {gh, v, m}, F3 = {q} over the ideal
        # (x, y), whose strand at xy follows the one at x, with degrees 1;
        # x, y, x; xy, x, xy; xy.  d1 = (x, y, x), d2 sends gh to
        # y*g - x*h, v to u - (x/y)*h and m to y*u - y*g, and d3 sends q to
        # m - y*v + gh, so d*d = 0.  The degree of h does not divide x, the
        # degree of v.  On the strand at x, which lacks h, v is the column
        # u.  On the strand at xy, v is u - h = m + gh, so d_2 has rank 2
        # and d_3 rank 1, and the strand loop, which reads no monomial,
        # calls the complex exact.  But x/y is no polynomial: the entry at
        # (h, v) is the degree ratio, with a negative exponent, so the
        # complex breaks the contract and every check rejects it.
        I = parse_ideal("ring x y; gens x, y")
        C = ChainComplex(
            ("x", "y"),
            ((0,), (1, 2, 4), (3, 5, 6), (7,)),
            (
                ((0, 0),),
                ((1, 0), (0, 1), (1, 0)),
                ((1, 1), (1, 0), (1, 1)),
                ((1, 1),),
            ),
            (
                {(0, 0): (1, (1, 0)), (0, 1): (1, (0, 1)), (0, 2): (1, (1, 0))},
                {
                    (0, 0): (1, (0, 1)),
                    (1, 0): (-1, (1, 0)),
                    (2, 1): (1, (0, 0)),
                    (1, 1): (-1, (1, -1)),
                    (2, 2): (1, (0, 1)),
                    (0, 2): (-1, (0, 1)),
                },
                {(2, 0): (1, (0, 0)), (1, 0): (-1, (0, 1)), (0, 0): (1, (0, 0))},
            ),
        )
        assert _d_squared_gcd(C) == 0 and not _all_sound(C)
        assert not _contract_holds(C)
        assert not check_d_squared(C) and not check_minimal(C)
        for char in (0, 2, 3, 5):
            assert reference.exactness(I, C, char)
            assert not check_exactness(I, C, char), char


class TestClearing:
    """Every elimination takes the columns top level first and leaves out a
    column whose own cell is already a lead one level up: by d*d = 0 it
    would reduce to zero (see check_exactness).  Every rank is the same
    (TestExactnessAgainstStrandLoop); here, the work left."""

    def test_f2_pass_over_example_4_1(self, builtin_resolutions, monkeypatch):
        # The lane pass sees each column once, and reduces it only in the
        # lanes where its top row already has a pivot: 8 of the 2,649
        # columns over the three methods.  The packed F_2 pass it replaced
        # handed its kernel 37,173 columns, 89,872 before clearing.
        counts = {"columns": 0, "reduced": 0}
        real_level, real_reduce = morse._lane_level, morse._reduce_lanes

        def lane_level(columns, *args):
            counts["columns"] += len(columns)
            return real_level(columns, *args)

        def reduce_lanes(*args):
            counts["reduced"] += 1
            return real_reduce(*args)

        monkeypatch.setattr(morse, "_lane_level", lane_level)
        monkeypatch.setattr(morse, "_reduce_lanes", reduce_lanes)
        cells = 0
        for I, _, C in builtin_resolutions["example-4-1"]:
            assert check_exactness(I, _fresh(C), 2)
            cells += sum(C.ranks()[1:])
        assert counts["columns"] == cells == 2649
        assert 0 < counts["reduced"] <= 20

    def test_unit_pass_over_example_4_1(self, builtin_resolutions, monkeypatch):
        # The unit pass hands its kernel 37,173 columns over the three
        # methods; bottom level first, clearing would never fire, and it
        # would hand over 74,241.
        counts = {"rows": 0}
        real = linalg.pivots_unit

        def counting(rows, pivots=None):
            def reading():
                for row in rows:
                    counts["rows"] += 1
                    yield row

            return real(reading(), pivots)

        monkeypatch.setattr(linalg, "pivots_unit", counting)
        for I, _, C in builtin_resolutions["example-4-1"]:
            assert check_exactness(I, _fresh(C), 3)
        assert counts["rows"] <= 40_000


def _taylor_in_order(I, levels):
    """The Taylor resolution of the squarefree ideal I generated by its
    variables, with the cells of each level (masks over the variables) in
    the order given: each d_i is the simplicial boundary with the signs of
    `taylor`, which leaves its top row to the order."""
    n = len(I.variables)

    def degree(mask):
        return tuple(mask >> k & 1 for k in range(n))

    diffs = []
    for below, here in pairwise(levels):
        row_of = {mask: row for row, mask in enumerate(below)}
        diffs.append({
            (row_of[sigma ^ (1 << k)], col): (
                -1 if t & 1 else 1,
                tuple(a - b for a, b in zip(degree(sigma), degree(sigma ^ (1 << k)))),
            )
            for col, sigma in enumerate(here)
            for t, k in enumerate(k for k in range(n) if sigma >> k & 1)
        })
    degrees = [[degree(mask) for mask in level] for level in levels]
    return ChainComplex(I.variables, levels, degrees, diffs)


class TestLanePass:
    """The lane pass over F_2 on fixed inputs that drive each of its paths:
    a column reduced in the lanes where its top row already has a pivot,
    to zero or to a pivot further down, against the pivot group of its own
    lane, and the count of level-0 cells.  Each is compared, lane by lane,
    with the ranks of the strand loop (`_traced`)."""

    @staticmethod
    def _reduced(monkeypatch, I, C, char=2):
        """The verdict, checked against the strand loop, and the lanes
        handed to `_reduce_lanes`, in order."""
        handed = []
        real = morse._reduce_lanes

        def reduce_lanes(lanes, *args):
            handed.append(lanes)
            return real(lanes, *args)

        monkeypatch.setattr(morse, "_reduce_lanes", reduce_lanes)
        verdict = TestExactnessAgainstStrandLoop()._same(monkeypatch, I, C, char)
        return verdict, handed

    def test_two_columns_of_one_strand_share_a_top_row(self, monkeypatch):
        # F0 = {e}, F1 = {a, b}, both of degree x, d1 = (x, x): on the
        # strand at x, b becomes the pivot at e and a reduces to zero, so
        # its homology in degree 1 is F_2 and the complex is no resolution.
        I = parse_ideal("ring x; gens x")
        C = ChainComplex(
            ("x",), ((0,), (1, 2)), (((0,),), ((1,), (1,))),
            ({(0, 0): (1, (1,)), (0, 1): (1, (1,))},),
        )
        verdict, handed = self._reduced(monkeypatch, I, C)
        assert not verdict and handed == [0b10]  # lane 1, the strand at x
        for char in (0, 3, 5):
            assert not reference.exactness(I, C, char)
            assert not check_exactness(I, _fresh(C), char), char

    def test_reduced_column_becomes_a_pivot_lower_down(self, monkeypatch):
        # The Taylor resolution of (x, y, z) with level 2 in the order yz,
        # xz, xy.  The top row of xyz is then xy, so xy is cleared at xyz;
        # xz becomes the pivot at z there, and yz, whose top row is z too,
        # reduces to yz + xz, the pivot at y.
        I = parse_ideal("ring x y z; gens x, y, z")
        x, y, z = 1, 2, 4
        C = _taylor_in_order(I, [[0], [x, y, z], [y | z, x | z, x | y], [x | y | z]])
        verdict, handed = self._reduced(monkeypatch, I, C)
        xyz = [alpha for alpha, _ in _strand_degrees(I, [])].index((1, 1, 1))
        assert verdict and handed == [1 << xyz]
        assert self._reduced(monkeypatch, I, C, 0)[0]

    def test_reduced_against_the_group_of_its_own_lane(self, monkeypatch):
        # The Taylor resolution of (w, x, y, z) in an order where a column
        # is reduced at a row whose pivot differs from lane to lane: XORed
        # with the group of another lane, it would reduce to zero in a
        # strand that is exact.
        I = parse_ideal("ring w x y z; gens w, x, y, z")
        C = _taylor_in_order(
            I, [[0], [2, 1, 4, 8], [9, 10, 12, 5, 3, 6], [7, 13, 11, 14], [15]]
        )
        verdict, handed = self._reduced(monkeypatch, I, C)
        assert verdict and handed
        assert self._reduced(monkeypatch, I, C, 0)[0]

    def test_level_0_counts(self, monkeypatch):
        # Level 0 leaves no cell that is no lead where x^alpha lies in I,
        # and one where it does not: F0 alone resolves S/(x) at 1 but not
        # at x, and two cells at level 0 leave two at 1.
        I = parse_ideal("ring x; gens x")
        alone = ChainComplex(("x",), ((0,),), (((0,),),), ())
        two = ChainComplex(
            ("x",), ((0, 1), (2,)), (((0,), (0,)), ((1,),)), ({(0, 0): (1, (1,))},)
        )
        for C in (alone, two):
            assert not self._reduced(monkeypatch, I, C)[0]
        # the unit ideal: every strand lies in I, and its complex has no
        # cell, so none is left
        U = ideal(("x", "y"), [(0, 0), (1, 1)])
        C = morse_differential(U, prune_taylor(U))
        assert C.ranks() == (0,)
        assert self._reduced(monkeypatch, U, C)[0]
        # and the resolution of S/(x) by d1 = x covers the strand at x
        one = ChainComplex(("x",), ((0,), (1,)), (((0,),), ((1,),)), ({(0, 0): (1, (1,))},))
        assert self._reduced(monkeypatch, I, one)[0]


def _verdict(I, C, char):
    """check_exactness(I, C, char), or the type of the error it raised."""
    try:
        return check_exactness(I, C, char)
    except ValueError as exc:
        return type(exc)


class TestStoredResults:
    """check_d_squared and check_exactness store the d*d gcd and the strand
    index on the complex, and each certifying pass's list of strands it
    leaves uncertified on the index.  Later checks of the same complex must
    give the verdicts of a fresh one."""

    CHARS = (0, 2, 3, 5)
    ORDERS = ((0, 2, 3, 5), (5, 3, 2, 0), ("d*d", 0, 2, 3, 5))

    def _orders_agree(self, I, C, name=""):
        fresh = {char: _verdict(I, _fresh(C), char) for char in self.CHARS}
        d_squared = check_d_squared(_fresh(C))
        for order in self.ORDERS:
            B = _fresh(C)
            for step in order:
                if step == "d*d":
                    assert check_d_squared(B) == d_squared, name
                else:
                    assert _verdict(I, B, step) == fresh[step], (name, order, step)
            assert check_d_squared(B) == d_squared, name
        return fresh

    def test_corpus40_with_corruptions(self, resolutions40):
        verdicts = set()
        for I, _, C in resolutions40:
            assert self._orders_agree(I, C) == dict.fromkeys(self.CHARS, True)
            for name, B, _ in _corruptions(C):
                verdicts.add(tuple(self._orders_agree(I, B, name).values()))
        # exact at no char, at every char but 2 (a doubled top column), and
        # at every char but 0 (a flipped sign, d*d = 0 mod 2 only)
        assert {(False,) * 4, (True, False, True, True)} <= verdicts
        assert (False, True, False, False) in verdicts

    def test_builtins(self, builtin_resolutions):
        for name, resolutions in builtin_resolutions.items():
            for I, _, C in resolutions:
                assert self._orders_agree(I, C, name) == dict.fromkeys(
                    self.CHARS, True
                ), name
                if name != "example-4-1":  # its corruptions take a minute
                    for what, B, _ in _corruptions(C):
                        self._orders_agree(I, B, (name, what))

    def test_differentials_are_read_only(self, path5):
        C = morse_differential(path5, prune_taylor(path5))
        key = min(C.diff(1))
        with pytest.raises(TypeError):
            C.diffs[0][key] = (5, C.diff(1)[key][1])
        with pytest.raises(TypeError):
            del C.diffs[0][key]
        # a plain dict handed in is copied, so changing it later changes
        # nothing
        diffs = [dict(d) for d in C.diffs]
        B = ChainComplex(C.variables, C.cells, C.degrees, tuple(diffs))
        assert check_d_squared(B) and check_exactness(path5, B, 0)
        diffs[0].clear()
        assert B.diff(1) == C.diff(1) and check_exactness(path5, _fresh(B), 0)
        # what the checks store is no field: equality and repr ignore it
        assert B == C == _fresh(C) and repr(B) == repr(_fresh(B))

    def test_lists_handed_in_are_copied(self):
        # A complex built from lists keeps its own tuples, so changing the
        # lists after a check neither changes the complex nor leaves it a
        # stored verdict that a fresh complex would not give.
        I = parse_ideal("ring x y; gens x")
        C = morse_differential(I, prune_taylor(I))
        variables, cells = list(C.variables), [list(level) for level in C.cells]
        degrees = [[list(d) for d in level] for level in C.degrees]
        B = ChainComplex(variables, cells, degrees, list(C.diffs))
        assert B == C and check_exactness(I, B)
        degrees[1][0] = (0, 1)
        degrees[0][0][1] = 1
        cells[1].append(2)
        variables[1] = "z"
        assert B == C and check_exactness(I, B) == check_exactness(I, _fresh(B))
        assert type(B.variables) is type(B.cells[1]) is type(B.degrees[0][0]) is tuple
        # the changed lists make another complex, which is no resolution
        assert not check_exactness(I, ChainComplex(C.variables, C.cells, degrees, C.diffs))

    def test_two_ideals_on_one_complex(self, cycle5, corpus40, monkeypatch):
        # Each check gives the verdict of a fresh complex for its ideal; an
        # equal ideal reuses the strand index, and so builds no degree table.
        C = morse_differential(cycle5, prune_taylor(cycle5))
        other, cycle5_again = parse_ideal(FIVE_GENERATORS), cycle_ideal(5)
        for I in (cycle5, other, cycle5_again, other, cycle5):
            for char in (0, 2):
                assert _verdict(I, C, char) == _verdict(I, _fresh(C), char)
        tables = []
        with monkeypatch.context() as m:
            m.setattr(
                sys.modules["prunres.morse"], "TaylorComplex",
                lambda I: tables.append(I) or TaylorComplex(I),
            )
            assert check_exactness(cycle5, C, 3) and tables == []
            assert not check_exactness(other, C, 3) and tables == [other]
            assert check_exactness(cycle5_again, C, 3) and tables == [other, cycle5]
            assert check_exactness(cycle5, C, 5) and len(tables) == 2
        # corpus ideals over the same ring, each on the others' complexes
        by_ring = {}
        for I in corpus40:
            by_ring.setdefault(I.variables, []).append(I)
        pairs = 0
        for ideals in by_ring.values():
            for I, J in zip(ideals, ideals[1:]):
                C = morse_differential(I, prune_taylor(I), validate=False)
                for K in (J, I, J):
                    for char in (0, 2):
                        assert _verdict(K, C, char) == _verdict(K, _fresh(C), char)
                pairs += 1
        assert pairs >= 10

    def test_d_squared_nonzero_over_z_decided_mod_p(self, resolutions40):
        # A flipped sign leaves d*d = 0 mod 2 but not over the integers: it
        # is not exact over Q, and over F_2 it is the same complex.  The
        # stored gcd must decide char 2 by divisibility, not by being zero,
        # whatever ran first.
        seen = exact2 = 0
        for I, _, C in resolutions40[:60]:
            for name, B, _ in _corruptions(C):
                if check_d_squared(_fresh(B)) or _d_squared_gcd(B) % 2:
                    continue
                seen += 1
                fresh = {c: check_exactness(I, _fresh(B), c) for c in self.CHARS}
                assert not fresh[0]
                assert fresh[2] == reference.exactness(I, B, 2), name
                assert not check_d_squared(B)
                for char in (2, 0, 3, 5, 2):
                    assert check_exactness(I, B, char) == fresh[char], name
                exact2 += fresh[2]
        assert seen > 20 and exact2 > 0


def _sums_6_and_10():
    """The ideal (x) and a complex that keeps the contract: F0 = {e}, F1 =
    {a}, F2 = {s, t}, with degrees 1, x, x, x, d1 = 2x, and d2 sending s
    to 3a and t to 5a.  The row sums of d1 d2 are 6 in the column of s and
    10 in that of t, so d*d vanishes mod 2 alone; the first column alone
    would pass mod 3 as well."""
    I = parse_ideal("ring x; gens x")
    C = ChainComplex(
        ("x",),
        ((0,), (1,), (3, 5)),
        (((0,),), ((1,),), ((1,), (1,))),
        ({(0, 0): (2, (1,))}, {(0, 0): (3, (0,)), (0, 1): (5, (0,))}),
    )
    return I, C


class TestStoredAnswers:
    """Each answer the checks learn is stored once, on the object it
    describes: one d*d gcd per complex for every characteristic, one list
    per certifying pass on its strand index, and one complex built per
    `morse_differential` call."""

    def test_gcd_of_every_column(self):
        I, C = _sums_6_and_10()
        assert C._homogeneous and C._d_squared_gcd == 2
        for char in (0, 2, 3, 5, 7):
            gate = C._d_squared_gcd % char == 0 if char else C._d_squared_gcd == 0
            assert gate == reference.d_squared(C, char) == (char == 2), char
        assert not check_d_squared(_fresh(C))
        # the d*d gate of check_exactness: only char 2 goes on to the strands
        for char in (0, 3, 5, 7, 2):
            B = _fresh(C)
            verdict = check_exactness(I, B, char)
            assert (B._index is not None) == (char == 2), char
            assert verdict == reference.exactness(I, C, char), char

    @pytest.mark.parametrize("build", ["cycle:5", "entry 3"])
    def test_one_full_pass_per_certifier(self, monkeypatch, build):
        if build == "entry 3":
            I, C = _one_entry(3)  # the unit pass leaves its strand to F_p
        else:
            I = cycle_ideal(5)
            C = morse_differential(I, prune_taylor(I))
        full = []
        real_verdicts = morse._StrandIndex.verdicts
        real_lane_pass = morse._StrandIndex.lane_pass

        def verdicts(index, char, positions):
            if positions == range(len(index.strands)):
                full.append((index, char))
            return real_verdicts(index, char, positions)

        def lane_pass(index):
            full.append((index, 2))
            return real_lane_pass(index)

        monkeypatch.setattr(morse._StrandIndex, "verdicts", verdicts)
        monkeypatch.setattr(morse._StrandIndex, "lane_pass", lane_pass)
        expected = {c: reference.exactness(I, C, c) for c in (0, 2, 3, 5, 7)}
        for order in ((0, 2, 3, 5, 7), (7, 5, 3, 2, 0)):
            B = _fresh(C)
            full.clear()
            assert {c: check_exactness(I, B, c) for c in order} == expected, order
            # one lane pass over F_2, one pass over every strand by unit
            # pivots
            assert sorted(full, key=lambda f: f[1] is None) == [
                (B._index, 2), (B._index, None)
            ], order

    def test_morse_differential_builds_one_complex(self, monkeypatch):
        I = cycle_ideal(8)
        matching = prune_taylor(I)
        built = []
        real = ChainComplex.__post_init__
        monkeypatch.setattr(
            ChainComplex, "__post_init__", lambda C: built.append(C) or real(C)
        )
        C = morse_differential(I, matching)
        assert len(built) == 1 and built[0] is C
        assert vars(C)["_homogeneous"] is True
        built.clear()
        B = critical_complex(I, matching)
        assert len(built) == 1 and built[0] is B
        assert (B.cells, B.degrees) == (C.cells, C.degrees)


@pytest.fixture(scope="module")
def lyubeznik_4_1(builtin_resolutions):
    I, method, C = builtin_resolutions["example-4-1"][2]
    assert method is prune_lyubeznik
    return I, C


class TestExactnessMutations:
    """One-entry corruptions of the Lyubeznik complex of example-4-1
    (differentials d_1 .. d_10) must be caught."""

    @pytest.mark.parametrize("i", range(1, 11))
    def test_deleted_entry(self, lyubeznik_4_1, i):
        I, C = lyubeznik_4_1
        assert C.length == 11
        diffs = [dict(d) for d in C.diffs]
        del diffs[i - 1][min(C.diff(i))]
        assert not check_exactness(I, _with_diffs(C, diffs), 0)

    @pytest.mark.parametrize("i", [1, 5, 10])
    def test_flipped_sign(self, lyubeznik_4_1, i):
        # at char 2 a sign flip is no change at all, so only char 0 is asked
        I, C = lyubeznik_4_1
        diffs = [dict(d) for d in C.diffs]
        key = min(C.diff(i))
        coeff, exps = diffs[i - 1][key]
        diffs[i - 1][key] = (-coeff, exps)
        assert not check_exactness(I, _with_diffs(C, diffs), 0)

    def test_top_differential_without_d_squared(self, lyubeznik_4_1):
        # Deleting an entry of the top differential keeps it injective, so
        # every strand's rank count still balances; only d*d != 0 shows that
        # the result is no complex.  The strand loop alone misses it.
        I, C = lyubeznik_4_1
        diffs = [dict(d) for d in C.diffs]
        del diffs[-1][min(C.diff(10))]
        broken = _with_diffs(C, diffs)
        assert not check_d_squared(broken)
        assert reference.exactness(I, broken, 0)
        assert not check_exactness(I, broken, 0)

    def test_doubled_top_column(self, lyubeznik_4_1):
        # A basis change over Q, but a zero column over F_2: only the
        # strand ranks can tell
        I, C = lyubeznik_4_1
        diffs = [dict(d) for d in C.diffs]
        for (row, col), (coeff, exps) in C.diff(10).items():
            if col == 0:
                diffs[-1][(row, col)] = (2 * coeff, exps)
        doubled = _with_diffs(C, diffs)
        assert check_d_squared(doubled)
        assert check_exactness(I, doubled, 0)
        assert not check_exactness(I, doubled, 2)

    def test_raised_cell_degree(self, lyubeznik_4_1):
        I, C = lyubeznik_4_1
        degrees = list(C.degrees)
        first = degrees[5][0]
        degrees[5] = ((first[0] + 1, *first[1:]), *degrees[5][1:])
        raised = ChainComplex(C.variables, C.cells, tuple(degrees), C.diffs)
        assert not check_exactness(I, raised, 0)


class TestMinimality:
    def test_path5_both_true(self, path5):
        # minimal over Q and over F_2
        C = morse_differential(path5, prune_taylor(path5))
        assert check_minimal(C) and check_minimal(C, 2)

    def test_taylor_path5_not_minimal(self, path5):
        m = empty_matching(path5)
        assert not check_minimal(morse_differential(path5, m))

    def test_example_4_1_minimal(self, builtins):
        I = builtins["example-4-1"]
        m = prune_taylor(I)
        assert check_minimal(morse_differential(I, m, validate=False))

    def test_rp2_known_discrepancy(self, builtins):
        # the pruned complex carries a +-2 unit entry between cells that are
        # not inclusion-adjacent, from a gradient path rather than an
        # inclusion, so minimality genuinely depends on the characteristic
        rp2 = builtins["rp2"]
        m = prune_taylor(rp2)
        C = morse_differential(rp2, m, validate=False)
        assert not check_minimal(C)
        assert not check_minimal(C, 0)
        assert check_minimal(C, 2)

    def test_minimal_implies_tor_equality(self, corpus40):
        for I in corpus40[:15]:
            m = prune_taylor(I)
            C = morse_differential(I, m, validate=False)
            if check_minimal(C):
                table = betti_of_complex(C)
                for char in (0, 2, 3):
                    assert table.same_entries(tor_betti(I, char))


class TestEulerCharacteristic:
    def test_strands_agree_across_methods(self, corpus40):
        for I in corpus40[:10]:
            tc = TaylorComplex(I)
            lattice = {tc.exponents(f) for f in tc.faces()}
            tables = []
            for m in (
                empty_matching(I),
                prune_taylor(I),
                prune_simplicial(I),
                prune_lyubeznik(I),
            ):
                C = critical_complex(I, m, validate=False)
                chi = {}
                for alpha in lattice:
                    total = 0
                    for i, level in enumerate(C.degrees):
                        n = sum(
                            1
                            for exps in level
                            if all(e <= a for e, a in zip(exps, alpha))
                        )
                        total += n if i % 2 == 0 else -n
                    chi[alpha] = total
                tables.append(chi)
            assert all(t == tables[0] for t in tables[1:])


def test_dump_lines_format(path5):
    C = morse_differential(path5, prune_taylor(path5))
    lines = C.dump_lines()
    assert lines[0] == "F0: 1 cells"
    assert any(line.startswith("d1[0,0] = ") for line in lines)


class TestDifferential:
    """Each d_i held column-major (`morse.Differential`): a read-only
    mapping (row, col) -> Entry that stores no key."""

    D = {
        (2, 1): (1, (0, 1)),
        (0, 0): (-1, (1, 0)),
        (1, 1): (3, (0, 0)),
        (0, 3): (1, (1, 1)),
    }

    def test_mapping_contract(self):
        d = Differential(self.D)
        # column order, and within a column the order given; column 2 is
        # an empty gap
        assert list(d) == [(0, 0), (2, 1), (1, 1), (0, 3)]
        assert d.starts == [0, 1, 3, 3, 4] and d.rows == [0, 2, 1, 0]
        assert list(d.items()) == [(key, self.D[key]) for key in d]
        assert list(d.values()) == [self.D[key] for key in d]
        assert len(d) == 4 and dict(d) == self.D
        assert d == self.D and self.D == d and not d != self.D
        assert (1, 1) in d and d[1, 1] == (3, (0, 0)) and d.get((5, 5)) is None
        for key in [(1, 2), (2, 0), (0, 4), (0, -1), (0, 1.5), (0,), (0, 0, 0), "ab", None, 7]:
            assert key not in d, key
            with pytest.raises(KeyError):
                d[key]
        assert d != {**self.D, (0, 0): (1, (1, 0))} and d != {} and d != list(self.D)
        # equal entries in another order within a column: an equal mapping
        swapped = Differential({(1, 1): (3, (0, 0)), **self.D})
        assert list(swapped)[1:3] == [(1, 1), (2, 1)] and swapped == d
        assert repr(d) == f"Differential({dict(d)!r})"
        assert eval(repr(d), {"Differential": Differential}) == d
        with pytest.raises(TypeError):
            d[0, 0] = (1, (1, 0))
        with pytest.raises(TypeError):
            del d[0, 0]
        with pytest.raises(TypeError):
            hash(d)
        assert d == self.D
        assert Differential() == {} and not Differential()
        assert Differential(d) == d and Differential(list(self.D.items())) == d

    def test_kept_by_the_complex(self, path5):
        C = morse_differential(path5, prune_taylor(path5))
        assert all(type(d) is Differential for d in C.diffs)
        B = ChainComplex(C.variables, C.cells, C.degrees, C.diffs)
        assert all(b is d for b, d in zip(B.diffs, C.diffs))
        copied = ChainComplex(C.variables, C.cells, C.degrees, [dict(d) for d in C.diffs])
        assert all(type(d) is Differential for d in copied.diffs) and copied == C

    @pytest.mark.parametrize(
        "key", [(0, -1), (-1, -2), (0.5, 1), (0, "1"), (0,), (0, 1, 2), "01", 5]
    )
    def test_malformed_key_refused(self, path5, key):
        # no column can hold such a key, so it is refused, not dropped
        C = morse_differential(path5, prune_taylor(path5))
        d = dict(C.diff(1))
        d[key] = (1, (0,) * 5)
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            ChainComplex(C.variables, C.cells, C.degrees, (d, *C.diffs[1:]))

    # (contract, d*d, exact at 0, 2 and 3, minimal at 0 and 2) of each
    # hand-built complex, as when each differential was a dict of its keys
    VERDICTS = {
        "reversed": {
            ("cycle:5", prune_taylor): (True, True, True, True, True, True, True),
            ("cycle:5", prune_lyubeznik): (True, True, True, True, True, False, False),
            ("path:5", prune_taylor): (True, True, True, True, True, True, True),
        },
        "gaps": {
            ("cycle:5", prune_taylor): (True, False, False, False, False, True, True),
            ("cycle:5", prune_lyubeznik): (True, False, False, False, False, False, False),
            ("path:5", prune_taylor): (True, False, False, False, False, True, True),
        },
        "top": {
            ("cycle:5", prune_taylor): (True, True, False, False, False, True, True),
            ("cycle:5", prune_lyubeznik): (True, True, False, False, False, False, False),
            ("path:5", prune_taylor): (True, True, False, False, False, True, True),
        },
        "below-top": {
            ("cycle:5", prune_taylor): (True, False, False, False, False, True, True),
            ("cycle:5", prune_lyubeznik): (True, False, False, False, False, False, False),
            ("path:5", prune_taylor): (True, False, False, False, False, True, True),
        },
    }

    @pytest.mark.parametrize("how", list(VERDICTS))
    def test_hand_built_columns_out_of_order_and_with_gaps(self, how):
        # every differential handed in as a dict with its entries reversed,
        # so its columns come last first; "gaps" drops two columns of d_2,
        # one of them the last, "top" the last column of the top
        # differential and "below-top" that of the one under it
        for (spec, method), expected in self.VERDICTS[how].items():
            I = builtin_ideal(spec)
            C = morse_differential(I, method(I))
            top = len(C.diffs)
            diffs = []
            for i, d in enumerate(C.diffs, 1):
                last = len(C.cells[i]) - 1
                drop = {
                    "reversed": (),
                    "gaps": (1, last) if i == 2 else (),
                    "top": (last,) if i == top else (),
                    "below-top": (last,) if i == top - 1 else (),
                }[how]
                diffs.append({
                    key: entry for key, entry in list(d.items())[::-1] if key[1] not in drop
                })
            B = ChainComplex(C.variables, C.cells, C.degrees, tuple(diffs))
            got = (
                _contract_holds(B),
                check_d_squared(B),
                *(check_exactness(I, B, char) for char in (0, 2, 3)),
                check_minimal(B, 0),
                check_minimal(B, 2),
            )
            assert got == expected, (spec, method.__name__)
            assert B.diffs == tuple(diffs)

    def test_lyubeznik_cycle15_keeps_under_8_mb(self):
        # 176,128 entries: two list slots each, with rows and entries
        # shared; a dict of (row, col) keys kept 19.3 MB
        I = cycle_ideal(15)
        m = prune_lyubeznik(I)
        morse_differential(I, m, validate=False)  # the tables it reads, built once
        gc.collect()
        tracemalloc.start()
        try:
            C = morse_differential(I, m, validate=False)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(map(len, C.diffs)) == 176_128
        assert kept < 8_000_000, kept
