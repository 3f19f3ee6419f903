import sys
import time
from bisect import bisect_right
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prunres import linalg
from prunres.betti import betti_of_complex, tor_betti
from prunres.ideals import cycle_ideal, parse_ideal
from prunres.monomials import MAX_EXPONENT

from prunres.morse import (
    ChainComplex,
    _d_squared_vanishes,
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
)
from prunres.taylor import TaylorComplex, facets, indices_of


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
        bad = Matching(2, ((0, 0), (0, 1)))
        with pytest.raises(InvalidMatchingError):
            critical_complex(I, bad)


class TestMorseDifferential:
    def test_closed_v_path_rejected(self):
        I = parse_ideal("ring x\ngens x, x, x")
        cyclic = Matching(3, ((0b001, 1), (0b010, 2), (0b100, 0)))
        with pytest.raises(InvalidMatchingError):
            morse_differential(I, cyclic, validate=True)

    def test_edge_inside_its_face_rejected(self):
        # (sigma, j) with j in sigma pairs a face with itself
        I = parse_ideal("ring x y\ngens x, y")
        with pytest.raises(InvalidMatchingError):
            morse_differential(I, Matching(2, ((1, 0),)), validate=False)

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


def _reference_strand_ranks(C, alpha, char, in_ideal):
    """The strand test as check_exactness ran it before its strand index:
    every strand re-filters every cell and rescans every differential."""
    present = []
    index = []
    for level in C.degrees:
        keep = [
            k
            for k, exps in enumerate(level)
            if all(e <= a for e, a in zip(exps, alpha))
        ]
        present.append(keep)
        index.append({k: pos for pos, k in enumerate(keep)})

    sizes = [len(p) for p in present]
    ranks = [0] * (C.length + 1)
    for i in range(1, C.length):
        if not present[i]:
            continue
        rows = {}
        keep_cols = index[i]
        keep_rows = index[i - 1]
        for (row, col), (coeff, _) in C.diff(i).items():
            if col in keep_cols and row in keep_rows:
                rows.setdefault(keep_cols[col], {})[keep_rows[row]] = coeff
        ranks[i] = linalg.rank(list(rows.values()), char)

    for i in range(1, C.length):
        h = sizes[i] - ranks[i] - ranks[i + 1]
        if h != 0:
            return False
    coker = sizes[0] - ranks[1]
    return coker == (0 if in_ideal else 1)


def _reference_exactness(I, C, char):
    tc = TaylorComplex(I)
    lattice = {tc.exponents(mask) for mask in tc.faces()}
    gens = [g.exponents for g in I.generators]
    for alpha in sorted(lattice):
        in_ideal = any(all(e <= a for e, a in zip(g, alpha)) for g in gens)
        if not _reference_strand_ranks(C, alpha, char, in_ideal):
            return False
    return True


def _with_diffs(C, diffs):
    return ChainComplex(C.variables, C.cells, C.degrees, tuple(diffs))


def _corruptions(C):
    """(name, complex, chars): for each differential, one entry deleted, one
    sign flipped, and its first column doubled; for each level above 0, the
    degree of its first cell raised in the first variable."""
    for i in range(1, C.length):
        key = min(C.diff(i))
        diffs = [dict(d) for d in C.diffs]
        del diffs[i - 1][key]
        yield f"delete d{i}{key}", _with_diffs(C, diffs), (0,)
        diffs = [dict(d) for d in C.diffs]
        coeff, exps = diffs[i - 1][key]
        diffs[i - 1][key] = (-coeff, exps)
        yield f"flip d{i}{key}", _with_diffs(C, diffs), (0,)
        diffs = [dict(d) for d in C.diffs]
        for (row, col), (coeff, exps) in C.diff(i).items():
            if col == 0:
                diffs[i - 1][(row, col)] = (2 * coeff, exps)
        # d*d = 0 survives only when the doubled column is the top one
        yield f"double d{i} column 0", _with_diffs(C, diffs), (0, 2)
        degrees = list(C.degrees)
        first = degrees[i][0]
        degrees[i] = ((first[0] + 1, *first[1:]), *degrees[i][1:])
        raised = ChainComplex(C.variables, C.cells, tuple(degrees), C.diffs)
        yield f"raise degree of F{i}[0]", raised, (0, 2)


def _traced(monkeypatch, fn, I, C, char):
    """The result of fn(I, C, char) and its rank calls, grouped by strand:
    per strand, one (char, sorted row lengths, rank) per level of the
    strand with a nonempty row, in level order.  That is the same matrix up
    to the order and the labels of its rows and columns.

    The strand loop calls linalg.rank once per level, and each call to
    `_reference_strand_ranks` opens a strand.  check_exactness makes one
    pivot-kernel call per strand, over the global cell numbering; its rows
    are split into levels by the complex's level offsets, each row's entries
    must all lie in one level, and the rank of a level is the number of
    pivot leads in it.  Over F_2 a row's length counts its odd entries, its
    bit b is global row b + its shift, and an F_2 pivot key is one above its
    leading global row.  Empty rows
    are left out on both sides, and so are levels and strands left with
    none: an empty row has no level to be split into.  The kernel calls that
    linalg.rank makes are part of its own."""
    strands = []
    real_rank, reference_strand_ranks = linalg.rank, _reference_strand_ranks
    kernels = {
        name: getattr(linalg, name)
        for name in ("pivots_rational", "pivots_mod", "pivots_f2_packed")
    }
    off = [0]
    for level in C.degrees:
        off.append(off[-1] + len(level))
    inside = []  # nonempty while linalg.rank runs

    def opening(*a):
        strands.append([])
        return reference_strand_ranks(*a)

    def recording_rank(rows, ch):
        inside.append(ch)
        try:
            r = real_rank(rows, ch)
        finally:
            inside.pop()
        if ch == 2:
            lengths = [sum(v & 1 for v in row.values()) for row in rows]
        else:
            lengths = [len(row) for row in rows]
        lengths = sorted(n for n in lengths if n)
        if lengths:
            strands[-1].append((ch, lengths, r))
        return r

    def split(ch, rows, shifts, pivots):
        shift = 1 if ch == 2 else 0
        by_level = {}
        for row, lo in zip(rows, shifts):
            spots = [lo + b for b in indices_of(row)] if ch == 2 else sorted(row)
            if not spots:
                continue
            level = bisect_right(off, spots[0]) - 1
            assert spots[-1] < off[level + 1], "a row crosses two levels"
            by_level.setdefault(level, []).append(len(spots))
        out = []
        for level in sorted(by_level):
            lo, hi = off[level] + shift, off[level + 1] + shift
            rank = sum(lo <= key < hi for key in pivots)
            out.append((ch, sorted(by_level[level]), rank))
        assert sum(r for *_, r in out) == len(pivots)
        strands.append(out)

    def recording(name, ch):
        real = kernels[name]

        def kernel(rows, *p):
            rows = list(rows)
            shifts = [0] * len(rows)
            if ch == 2 and p and p[0] is not None:
                shifts = list(p[0])
                p = (shifts,)
            pivots = real(rows, *p)
            if not inside:
                split(p[0] if ch is None else ch, rows, shifts, pivots)
            return pivots

        return kernel

    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "_reference_strand_ranks", opening)
        m.setattr(linalg, "rank", recording_rank)
        m.setattr(linalg, "pivots_rational", recording("pivots_rational", 0))
        m.setattr(linalg, "pivots_mod", recording("pivots_mod", None))
        m.setattr(linalg, "pivots_f2_packed", recording("pivots_f2_packed", 2))
        result = fn(I, C, char)
    return result, [strand for strand in strands if strand]


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


def _in_order_sublist(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


class TestExactnessAgainstStrandLoop:
    """check_exactness against the per-strand loop it replaced: the same
    verdict and, strand by strand and level by level, the same matrices
    with the same ranks.

    Over Q, a complex whose columns are all sound has each strand ranked over
    F_2 first, and over Q only when the F_2 ranks do not pass.  Where the
    strand loop finds the complex exact over F_2, every strand is certified
    that way, so the calls must be the loop's char-2 calls on the same
    matrices, one per char-0 call of the loop and with its rank: rank over
    F_2 equals rank over Q on every strand.  Elsewhere the char-0 calls must
    be an in-order part of the loop's."""

    METHODS = (prune_taylor, prune_simplicial, prune_lyubeznik)

    def _same(self, monkeypatch, I, C, char):
        got, calls = _traced(monkeypatch, check_exactness, I, C, char)
        expected, ref_calls = _traced(monkeypatch, _reference_exactness, I, C, char)
        assert got == expected
        if char != 0 or not _all_sound(C):
            assert calls == ref_calls
            return got
        exact2, ref2_calls = _traced(monkeypatch, _reference_exactness, I, C, 2)
        if exact2:
            assert calls == ref2_calls
            ranks = [[r for *_, r in strand] for strand in calls]
            assert ranks == [[r for *_, r in strand] for strand in ref_calls]
        else:
            q_calls = [strand for strand in calls if strand[0][0] == 0]
            assert _in_order_sublist(q_calls, ref_calls)
        return got

    def test_corpus40(self, corpus40, monkeypatch):
        for I in corpus40:
            for method in self.METHODS:
                C = morse_differential(I, method(I), validate=False)
                for char in (0, 2, 3, 5):
                    assert self._same(monkeypatch, I, C, char)

    def test_builtins(self, builtins, monkeypatch):
        for name, I in builtins.items():
            for method in self.METHODS:
                C = morse_differential(I, method(I), validate=False)
                for char in (0, 2, 3, 5):
                    assert self._same(monkeypatch, I, C, char), (name, char)

    def test_corrupted_corpus40(self, corpus40, monkeypatch):
        # The strand loop does not look at d*d, which check_exactness now
        # requires first; over Q check_d_squared is that condition.  Where
        # d*d = 0 still holds, both make the same rank calls.  Doubling a
        # column keeps d*d = 0 over Z, so it is compared at char 2 too; a
        # raised degree leaves every entry alone and so exercises the row
        # filter of columns that are not sound.
        compared = 0
        for I in corpus40[:20]:
            for method in self.METHODS:
                C = morse_differential(I, method(I), validate=False)
                for name, B, chars in _corruptions(C):
                    if not check_d_squared(B):
                        assert not check_exactness(I, B, 0), name
                        continue
                    for char in chars:
                        self._same(monkeypatch, I, B, char)
                        compared += 1
        assert compared > 100


def _tuple_key_d_squared(C: ChainComplex, char: int) -> bool:
    """morse._d_squared_vanishes as it was with exponent-tuple keys
    (verbatim), the reference for the packed-key version."""
    if C.diffs is None:
        raise ValueError("differentials not set")
    # by_col[col]: the entries (row, coeff, exps) of one differential's column
    lo_by_col: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
    for i in range(1, C.length):
        by_col: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        for (row, col), (coeff, exps) in C.diff(i).items():
            by_col.setdefault(col, []).append((row, coeff, exps))
        for terms in by_col.values():
            acc: dict[tuple[int, tuple[int, ...]], int] = {}
            for mid, c1, e1 in terms:
                for row, c2, e2 in lo_by_col.get(mid, ()):
                    key = (row, tuple(map(add, e1, e2)))
                    acc[key] = acc.get(key, 0) + c1 * c2
            if any(v % char if char else v for v in acc.values()):
                return False
        lo_by_col = by_col
    return True


def _with_entry(C, i, key, exps):
    """C with the monomial of entry `key` of d_i replaced by `exps`."""
    diffs = [dict(d) for d in C.diffs]
    diffs[i - 1][key] = (diffs[i - 1][key][0], tuple(exps))
    return _with_diffs(C, diffs)


def _monomial_corruptions(C):
    """(name, complex): for each differential, one exponent of one entry
    raised, the monomials of two entries in one column swapped, and one
    exponent made negative.  Coefficients stay as they are."""
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
            diffs = [dict(d) for d in C.diffs]
            (ca, ea), (cb, eb) = diffs[i - 1][a], diffs[i - 1][b]
            diffs[i - 1][a], diffs[i - 1][b] = (ca, eb), (cb, ea)
            yield f"swap monomials of d{i}{a} and d{i}{b}", _with_diffs(C, diffs)


def _row_corruptions(C):
    """(name, complex): for each differential below the top one, its first
    entry moved to the next row (a row index may fall outside its level),
    once as it is and once with its first exponent lowered by one, which
    in a packed key sits right above the row."""
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
            diffs = [dict(d) for d in C.diffs]
            del diffs[i - 1][key]
            diffs[i - 1][(row + 1, col)] = (coeff, moved)
            yield f"move d{i}{key} to row {row + 1}{name}", _with_diffs(C, diffs)


def _top_variable_corruptions(C):
    """(name, complex): for each differential, the exponent of the last
    variable, the highest field of a packed key, of one entry moved up,
    down, below zero and to either end of the parser's range."""
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
    The exponent sums are distinct, so d*d != 0; a field one bit narrower
    would carry that difference into the next field and cancel it."""
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


class TestDSquaredAgainstTupleKeys:
    """check_d_squared on packed integer keys against the tuple-key loop it
    replaced: the same verdict at chars 0, 2, 3 and 5."""

    METHODS = (prune_taylor, prune_simplicial, prune_lyubeznik)
    CHARS = (0, 2, 3, 5)

    def _same(self, C, name=""):
        """The reference verdict at char 0, once both agree at every char."""
        expected = [_tuple_key_d_squared(C, char) for char in self.CHARS]
        got = [_d_squared_vanishes(C, char) for char in self.CHARS]
        assert got == expected, name
        return expected[0]

    def _all(self, C):
        """C and its corruptions: the entry, monomial-only and row ones;
        returns how many of them the reference judges d*d != 0 at char 0."""
        assert self._same(C)
        caught = 0
        for name, B, _ in _corruptions(C):
            caught += not self._same(B, name)
        for name, B in (*_monomial_corruptions(C), *_row_corruptions(C)):
            caught += not self._same(B, name)
        return caught

    def test_corpus200(self, corpus200):
        caught = 0
        for I in corpus200:
            for method in self.METHODS:
                caught += self._all(morse_differential(I, method(I), validate=False))
        assert caught > 5000

    # The reference re-runs every level below a corrupted one, so the
    # corruptions of example-4-1 (r = 11) and cycle:10..12 would take about
    # 100 s; those complexes are compared as they are.
    LARGE = ("example-4-1",)

    def test_builtins(self, builtins):
        for name, I in builtins.items():
            for method in self.METHODS:
                C = morse_differential(I, method(I), validate=False)
                if name in self.LARGE:
                    assert self._same(C), name
                else:
                    assert self._all(C), name

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        I = cycle_ideal(n)
        for method in self.METHODS:
            C = morse_differential(I, method(I), validate=False)
            assert self._same(C) if n >= 10 else self._all(C)

    def test_exponents_near_max(self):
        I = parse_ideal(
            f"ring x y z; gens x^{MAX_EXPONENT - 1}*y, y^{MAX_EXPONENT}*z, z^5*x"
        )
        caught = 0
        for method in (empty_matching, *self.METHODS):
            C = morse_differential(I, method(I), validate=False)
            assert max(
                max(exps) for d in C.diffs for _, exps in d.values()
            ) == MAX_EXPONENT
            caught += self._all(C)
            for name, B in _top_variable_corruptions(C):
                caught += not self._same(B, name)
        assert caught > 100

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, MAX_EXPONENT - 1, MAX_EXPONENT])
    @pytest.mark.parametrize("k", [0, 1])
    def test_no_carry_between_fields(self, k, bound):
        assert not self._same(_carry_pair(3, k, bound))


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


class TestCertificateOverF2:
    """Over Q, check_exactness certifies the strands of a sound complex over
    F_2 first.  That is valid on a sound complex with d*d = 0 over Z (see its
    docstring), where exact over F_2 implies exact over Q, and only there."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sound_corruptions(self, corpus40, data):
        I = corpus40[data.draw(st.integers(0, 19))]
        method = data.draw(st.sampled_from(TestExactnessAgainstStrandLoop.METHODS))
        C = morse_differential(I, method(I), validate=False)
        assume(C.length >= 2)
        B = _sound_corruptions(C, data.draw)
        assert _all_sound(B) and check_d_squared(B)
        exact0 = check_exactness(I, B, 0)
        exact2 = check_exactness(I, B, 2)
        assert exact0 == _reference_exactness(I, B, 0)
        assert exact2 == _reference_exactness(I, B, 2)
        assert exact0 or not exact2

    def test_unsound_strand_ranked_over_q(self):
        # F0 = {e}, F1 = {a, b}, F2 = {c} over the ideal (x), with degrees
        # 1, 1, x and 1.  d1 = (2, -2) and d2 = (1, 1)^T compose to zero, but
        # the degree of b does not divide that of c, so d2's column is not
        # sound.  On the strand at 1, which lacks b, d1 d2 = 2 != 0: its F_2
        # ranks (0 and 1) pass the strand test and its Q ranks (1 and 1) do
        # not.  Certifying over F_2 would call the complex exact.
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
        assert check_d_squared(C) and not _all_sound(C)
        assert not _reference_exactness(I, C, 0)
        assert not check_exactness(I, C, 0)

    def test_unsound_column_masked_over_f2(self):
        # F0 = {e}, F1 = {a, b, c}, F2 = {s, t} over the ideal (x), with
        # degrees 1; 1, x, x; x, 1.  d1 = (0, 0, x) and d2 sends s to x*a and
        # t to b, so d1 d2 = 0, but the degree of b does not divide that of
        # t.  On the strand at 1, which lacks b, t is a zero column and the
        # cycle a bounds nothing.  A packed column of t that kept its row b
        # would have F_2 rank 1 there and make every strand pass.
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
        assert _d_squared_vanishes(C, 2) and not _all_sound(C)
        assert not _reference_exactness(I, C, 2)
        assert not check_exactness(I, C, 2)


class TestSummedStrandTest:
    """On a complex whose columns are all sound, check_exactness passes a
    strand when its homology summed over degrees >= 1 is zero: each strand
    is then a subcomplex, so no degree's homology is negative.  An unsound
    column breaks that, and its strands must be tested degree by degree."""

    def test_unsound_column_cancels_in_the_sum(self):
        # F0 = {e}, F1 = {g, h}, F2 = {gh, z}, F3 = {w} over the ideal
        # (x, y), with degrees 1; x, y; x, x; xy.  d1 = (x, y), d2 sends gh
        # to y*g - x*h, and d3 sends w to y*z, so d*d = 0.  But the degree of
        # h does not divide x, the degree of gh.  On the strand at x, which
        # lacks h, gh bounds g: H_1 = 1 - 1 - 1 = -1 and H_2 = 2 - 1 = +1,
        # which sum to zero.
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
        assert check_d_squared(C) and not _all_sound(C)
        for char in (0, 2, 3):
            assert not _reference_exactness(I, C, char)
            assert not check_exactness(I, C, char), char


@pytest.fixture(scope="module")
def lyubeznik_4_1(builtins):
    I = builtins["example-4-1"]
    return I, morse_differential(I, prune_lyubeznik(I), validate=False)


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
        assert _reference_exactness(I, broken, 0)
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
