import copy
import gc
import pickle
import sys
import weakref
from math import comb
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunres.ideals import cycle_ideal, path_ideal
from prunres.monomials import Monomial, MonomialIdeal, divides, ideal, monomial_str
from prunres.taylor import WIDE_MASK_BITS, TaylorComplex, indices_of
from reference import PRECOMPUTE_CAP, TupleTaylorComplex, face_lattice, facets, lowest_bits


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


def _assert_same_table(I):
    # same exponents for every face, through `degree` and through the whole
    # table of `face_degrees`
    ref, tc = TupleTaylorComplex(I), TaylorComplex(I)
    whole = tc.face_degrees()
    assert len(whole) == 1 << I.r
    for mask in tc.faces():
        assert tc.exponents(mask) == ref.exponents(mask)
        assert tc.decode(tc.degree(mask)) == ref.exponents(mask)
        assert tc.decode(whole[mask]) == ref.exponents(mask)


def _odd_wide_ideal():
    """r = 15, halves of 7 and 8 generators: generator k is
    x_k^a * x_(k+1)^b around a 15-cycle, a among 1, 2, 3 and b among 1, 2,
    so most variables have two distinct exponents."""
    n = 15
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = 1 + k % 3
        rows[k][(k + 1) % n] = 1 + (k + 1) % 2
    return ideal([f"x{v}" for v in range(n)], rows)


# r = 0, 1 and 2, where a half holds no generator or one; and odd r = 15
EDGE_R = [
    MonomialIdeal(("x", "y"), ()),
    ideal(["x", "y"], [(2, 1)]),
    ideal(["x", "y", "z"], [(1, 3, 0), (2, 0, 1)]),
    _odd_wide_ideal(),
]


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
    for I in [*corpus200, *builtins.values(), *EDGE_R]:
        _assert_same_table(I)


def test_table_above_the_reference_cap():
    # r = 21: the whole table, against the reference's lazy path
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


@pytest.mark.parametrize(
    "members",
    [
        {WIDE_MASK_BITS - 2},
        {WIDE_MASK_BITS - 1},
        {0, WIDE_MASK_BITS},
        {0, 1, WIDE_MASK_BITS - 1, WIDE_MASK_BITS, 3 * WIDE_MASK_BITS},
        {0, 2, 63, 64, 70},
    ],
)
def test_indices_of_known_masks(members):
    assert indices_of(sum(1 << b for b in members)) == sorted(members)


@pytest.mark.parametrize("width", [0, 1, 1023, 1024, 1025, 4096])
@pytest.mark.parametrize(
    "keep",
    [
        lambda k: False,  # no bit below the top one
        lambda k: k % 37 == 5,  # sparse, below a sixth
        lambda k: k % 2 == 0,  # half, through `compress`
        lambda k: k % 4 != 3,  # three quarters
        lambda k: True,  # all ones
    ],
    ids=["top-only", "sparse", "half", "three-quarters", "all-ones"],
)
def test_indices_of_against_the_lowest_bit_walk(width, keep):
    # every read of `indices_of`, narrow or wide, sparse or dense, gives the
    # members the walk by lowest set bit gives
    mask = sum(1 << k for k in range(width) if keep(k) or k == width - 1)
    assert mask.bit_length() == width
    assert indices_of(mask) == lowest_bits(mask)


class TestLattice:
    """`TaylorComplex.lattice`, the OR closure of the generator degrees,
    against the walk over all 2^r faces of the reference table."""

    @staticmethod
    def _same(I):
        tc = TaylorComplex(I)
        lattice = tc.lattice()
        points = face_lattice(I)
        assert {tc.decode(d) for d in lattice} == points
        assert len(lattice) == len(points)
        return len(lattice)

    def test_corpus200_and_builtins(self, corpus200, builtins):
        for I in [*corpus200, *builtins.values()]:
            self._same(I)
        assert self._same(builtins["example-4-1"]) == 987

    @pytest.mark.parametrize("n", range(3, 17))
    def test_cycles(self, n):
        size = self._same(cycle_ideal(n))
        if n == 15:
            assert size == 4610


def _unheld_cycle(n, name):
    """cycle:n over variables named after the caller, so that no other test
    holds an equal ideal, whose table `TaylorComplex` would share."""
    I = cycle_ideal(n)
    return MonomialIdeal(tuple(f"{name}{k}" for k in range(I.nvars)), I.generators)


def _face_degree_callers(monkeypatch) -> list[str]:
    """The name of the function behind each call of
    `TaylorComplex.face_degrees` from now on, in order."""
    callers = []
    whole = TaylorComplex.face_degrees

    def recording(tc):
        callers.append(sys._getframe(1).f_code.co_name)
        return whole(tc)

    monkeypatch.setattr(TaylorComplex, "face_degrees", recording)
    return callers


class TestDegreeTableOnFirstUse:
    """No table over the 2^r faces is kept: `degree` ORs two lookups in the
    tables of the two halves of the generators, and the whole table is
    built only by `tor_betti`, which walks every face, once per call
    (`face_degrees`)."""

    def test_lattice_and_decode_leave_it_unbuilt(self, monkeypatch):
        callers = _face_degree_callers(monkeypatch)
        I = _unheld_cycle(18, "lattice")
        tc = TaylorComplex(I)
        points = {tc.decode(d) for d in tc.lattice()}
        assert len(points) == 24914
        assert max(points) == (1,) * I.nvars
        # one bit per variable, all set on the full face
        assert tc.degree((1 << I.r) - 1) == (1 << I.nvars) - 1
        assert callers == []
        # the two half tables, 2^9 entries each, are all that degree reads
        held = [cell.cell_contents for cell in tc.degree.__closure__]
        assert sorted(len(t) for t in held if type(t) is list) == [512, 512]

    def test_strand_degrees_and_hochster_leave_it_unbuilt(self, monkeypatch):
        from prunres import betti, morse

        callers = _face_degree_callers(monkeypatch)
        I = _unheld_cycle(10, "strands")
        morse._strand_degrees(I, [])
        betti.hochster_betti(I, 0)
        assert callers == []
        betti.tor_betti(I, 0)
        assert callers == ["tor_betti"]

    def test_one_table_per_complex(self):
        I = cycle_ideal(8)
        tc = TaylorComplex(I)
        assert not hasattr(tc, "no_such_attribute")
        assert tc.degree is tc.degree
        assert TaylorComplex(I).degree is tc.degree


class TestOneTablePerIdeal:
    """`TaylorComplex(I)` is the one table of I, shared by every call on I
    or an equal ideal, and freed with the ideal."""

    def test_same_object(self):
        I = cycle_ideal(6)
        assert TaylorComplex(I) is TaylorComplex(I)
        assert TaylorComplex(I) is TaylorComplex(cycle_ideal(6))
        assert TaylorComplex(I) is not TaylorComplex(path_ideal(6))

    def test_one_degree_table_per_pipeline(self, monkeypatch):
        # only tor_betti builds the table over every face, a new one on
        # each call
        from prunres import betti, morse, pruning

        callers = _face_degree_callers(monkeypatch)
        I = _unheld_cycle(7, "pipeline")
        for sweep in (pruning.prune_taylor, pruning.prune_lyubeznik,
                      pruning.prune_simplicial):
            m = sweep(I)
            assert pruning.verify_matching(I.r, m, I).all_ok
            C = morse.morse_differential(I, m)
            assert morse.check_d_squared(C)
            for char in (0, 2, 3):
                assert morse.check_exactness(I, C, char)
            morse.check_minimal(C)
            betti.betti_of_complex(morse.critical_complex(I, m))
        betti.hochster_betti(I, 0)
        assert callers == []
        assert betti.tor_betti(I, 0).totals() == (1, 7, 14, 14, 7, 1)
        assert callers == ["tor_betti"]
        assert betti.tor_betti(I, 2).totals() == (1, 7, 14, 14, 7, 1)
        assert callers == ["tor_betti", "tor_betti"]
        tc = TaylorComplex(I)
        assert tc.face_degrees() is not tc.face_degrees()

    def test_table_dies_with_its_ideal(self):
        I = _unheld_cycle(9, "dies")
        tc = TaylorComplex(I)
        tc.degree(0)
        table, ref = weakref.ref(tc), weakref.ref(I)
        gc.disable()
        try:
            del tc, I
            assert ref() is None
            assert table() is None
        finally:
            gc.enable()

    def test_used_ideal_pickles_and_copies(self):
        I = _unheld_cycle(5, "copied")
        TaylorComplex(I).degree(0)
        for J in (pickle.loads(pickle.dumps(I)), copy.deepcopy(I)):
            assert J == I and hash(J) == hash(I) and repr(J) == repr(I)
            assert TaylorComplex(J) is TaylorComplex(I)
