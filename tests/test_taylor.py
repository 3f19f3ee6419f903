from math import comb
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunres.ideals import cycle_ideal, path_ideal
from prunres.monomials import Monomial, MonomialIdeal, divides, ideal, monomial_str
from prunres.taylor import (
    PRECOMPUTE_CAP,
    WIDE_MASK_BITS,
    TaylorComplex,
    facets,
    indices_of,
)


# The degree table as it was before degrees became bitmasks: exponent tuples
# built by max over zip.  Kept verbatim (only renamed) as the reference for
# the bitmask table here and for the sweeps, complexes and tables in
# test_pruning.py.
class TupleTaylorComplex:
    """Multidegree cache over all 2^r faces of the full simplex.

    Degrees are stored fully precomputed for r <= PRECOMPUTE_CAP and memoized
    lazily above that.  Read-only after construction.
    """

    def __init__(self, I: MonomialIdeal, precompute_cap: int = PRECOMPUTE_CAP):
        self.ideal = I
        self.r = I.r
        self._gen_exps = [g.exponents for g in I.generators]
        self._nvars = I.nvars
        if I.r <= precompute_cap:
            self._degrees: list[tuple[int, ...]] | None = self._precompute()
            self._cache: dict[int, tuple[int, ...]] = {}
        else:
            self._degrees = None
            self._cache = {0: (0,) * self._nvars}

    def _precompute(self) -> list[tuple[int, ...]]:
        n = self._nvars
        degs = [(0,) * n] * (1 << self.r)
        for mask in range(1, 1 << self.r):
            low = mask & (mask - 1)
            i = (mask & -mask).bit_length() - 1
            prev = degs[low]
            gen = self._gen_exps[i]
            degs[mask] = tuple(max(a, b) for a, b in zip(prev, gen))
        return degs

    def exponents(self, mask: int) -> tuple[int, ...]:
        if self._degrees is not None:
            return self._degrees[mask]
        hit = self._cache.get(mask)
        if hit is None:
            low = mask & (mask - 1)
            i = (mask & -mask).bit_length() - 1
            prev = self.exponents(low)
            hit = tuple(max(a, b) for a, b in zip(prev, self._gen_exps[i]))
            self._cache[mask] = hit
        return hit

    def multidegree(self, mask: int) -> Monomial:
        return Monomial(self.exponents(mask))

    def total_degree(self, mask: int) -> int:
        return sum(self.exponents(mask))

    def faces(self) -> range:
        return range(1 << self.r)




def test_face_multidegree_path5(path5):
    tc = TaylorComplex(path5)
    deg = Monomial(tc.exponents(0b101))
    assert monomial_str(deg, path5.variables) == "x1*x2*x3*x4"
    assert Monomial(tc.exponents(0)).is_unit
    assert Monomial(tc.exponents(0b111)) == deg


def test_incidence_signs():
    assert facets(0b11) == [(0b10, 1), (0b01, -1)]
    assert facets(0b1101) == [(0b1100, 1), (0b1001, -1), (0b0101, 1)]


def test_face_counts(path5):
    tc = TaylorComplex(path5)
    by_dim = {}
    for mask in tc.faces():
        by_dim[mask.bit_count()] = by_dim.get(mask.bit_count(), 0) + 1
    for size, count in by_dim.items():
        assert count == comb(path5.r, size)


def _boundary_scalar(r):
    """Scalar boundary matrices of the full augmented simplex on r vertices."""
    by_size = {}
    for mask in range(1 << r):
        by_size.setdefault(mask.bit_count(), []).append(mask)
    mats = {}
    for size in range(1, r + 1):
        cols = by_size[size]
        rows = {m: i for i, m in enumerate(by_size[size - 1])}
        mat = [[0] * len(cols) for _ in rows]
        for c, mask in enumerate(cols):
            for facet, sign in facets(mask):
                mat[rows[facet]][c] = sign
        mats[size] = mat
    return mats


@pytest.mark.parametrize("r", range(2, 9))
def test_boundary_squares_to_zero_scalar(r):
    mats = _boundary_scalar(r)
    for size in range(2, r + 1):
        hi, lo = mats[size], mats[size - 1]
        n_mid = len(hi)
        for c in range(len(hi[0])):
            for row in range(len(lo)):
                total = sum(lo[row][k] * hi[k][c] for k in range(n_mid))
                assert total == 0


gen_lists = st.lists(
    st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple).filter(any),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(gen_lists)
def test_multidegree_monotone(rows):
    I = ideal(["x", "y", "z"], rows)
    tc = TaylorComplex(I)
    for mask in tc.faces():
        for facet, _ in facets(mask):
            assert divides(Monomial(tc.exponents(facet)), Monomial(tc.exponents(mask)))


@settings(max_examples=40, deadline=None)
@given(gen_lists)
def test_lazy_and_precomputed_agree(rows):
    I = ideal(["x", "y", "z"], rows)
    eager = TaylorComplex(I)
    lazy = TaylorComplex(I, precompute_cap=0)
    for mask in eager.faces():
        assert eager.exponents(mask) == lazy.exponents(mask)


def _assert_same_table(I):
    # same exponents for every face, eager and lazy; and lcm, divisibility
    # and equality of the bitmask degrees agree with the exponent tuples
    ref = TupleTaylorComplex(I)
    for tc in (TaylorComplex(I), TaylorComplex(I, precompute_cap=0)):
        for mask in tc.faces():
            assert tc.exponents(mask) == ref.exponents(mask)
            assert tc.decode(tc.degree(mask)) == ref.exponents(mask)


wide_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(
            st.sampled_from([0, 0, 1, 2, 3, 7, 2**31 - 1]), min_size=n, max_size=n
        ).map(tuple).filter(any),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=80, deadline=None)
@given(wide_rows)
def test_same_table_as_tuple_table(rows):
    I = ideal([f"x{k}" for k in range(len(rows[0]))], rows)
    _assert_same_table(I)
    ref, tc = TupleTaylorComplex(I), TaylorComplex(I)
    faces = list(tc.faces())
    for a in faces:
        da, ta = tc.degree(a), ref.exponents(a)
        for b in faces:
            db, tb = tc.degree(b), ref.exponents(b)
            assert (da | db == tc.degree(a | b)) and tc.decode(da | db) == tuple(
                map(max, ta, tb)
            )
            assert (da & ~db == 0) == all(x <= y for x, y in zip(ta, tb))
            assert (da == db) == (ta == tb)


def test_same_table_as_tuple_table_corpus(corpus200, builtins):
    for I in list(corpus200) + list(builtins.values()):
        _assert_same_table(I)


def test_lazy_table_above_the_cap():
    I = cycle_ideal(PRECOMPUTE_CAP + 1)
    tc, ref = TaylorComplex(I), TupleTaylorComplex(I)
    for mask in (0, 1, 0b101, (1 << I.r) - 1, 0xAAAAA, 1 << I.r - 1):
        assert tc.exponents(mask) == ref.exponents(mask)


def test_exponents_near_max():
    # two bits per variable however large the exponents: plain polarization
    # would need 2**31 - 1 bits for x^(2**31 - 1)
    big = 2**31 - 1
    I = MonomialIdeal(
        ("x", "y", "z"),
        (
            Monomial((big, 0, 1)),
            Monomial((big - 1, big, 0)),
            Monomial((0, big - 1, big)),
            Monomial((1, 1, 1)),
        ),
    )
    t0 = perf_counter()
    tc = TaylorComplex(I)
    full = tc.degree((1 << I.r) - 1)
    assert perf_counter() - t0 < 0.1
    # x: {1, 2**31 - 2, 2**31 - 1}; y: {1, 2**31 - 2, 2**31 - 1}; z: {1, 2**31 - 1}
    assert full == (1 << 8) - 1
    assert tc.exponents((1 << I.r) - 1) == (big, big, big)
    _assert_same_table(I)


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.integers(0, 3 * WIDE_MASK_BITS), max_size=200),
    st.integers(WIDE_MASK_BITS - 2, WIDE_MASK_BITS + 1),
)
def test_indices_of_on_both_sides_of_the_wide_walk(bits, top):
    # ints of WIDE_MASK_BITS bits and more are read from their binary string
    for members in (bits, bits | {top}, {b for b in bits if b < top} | {top}):
        mask = sum(1 << b for b in members)
        assert indices_of(mask) == sorted(members)
