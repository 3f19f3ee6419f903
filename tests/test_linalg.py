"""The echelon rank kernels against the pivot-rescan kernels they replaced.

`_rescan_rank_rational` and `_rescan_rank_mod` are verbatim copies of the
previous `linalg` kernels: at every pivot they rescan all remaining rows for
the shortest one (over Q, preferring a +-1 entry).  The new kernels must give
the same rank on every matrix, and the F_2 kernels `rank_f2` and
`rank_f2_packed` (on the same rows packed into ints) the same rank as
`_rescan_rank_mod(rows, 2)`.
"""
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunres import linalg


def _normalize(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _rescan_rank_rational(rows):
    work = [dict(r) for r in rows if r]
    rank = 0
    while work:
        best = min(
            range(len(work)),
            key=lambda i: (min(abs(v) for v in work[i].values()) != 1, len(work[i])),
        )
        pivot_row = work.pop(best)
        pcol = min(
            (c for c, v in pivot_row.items() if abs(v) == 1),
            default=min(pivot_row, key=lambda c: (abs(pivot_row[c]), c)),
        )
        pval = pivot_row[pcol]
        rank += 1
        nxt = []
        for row in work:
            e = row.get(pcol)
            if e:
                new = {}
                for c, v in row.items():
                    nv = pval * v - e * pivot_row.get(c, 0)
                    if nv:
                        new[c] = nv
                for c, v in pivot_row.items():
                    if c not in row:
                        nv = -e * v
                        if nv:
                            new[c] = nv
                row = _normalize(new)
            if row:
                nxt.append(row)
        work = nxt
    return rank


def _rescan_rank_mod(rows, p):
    work = []
    for r in rows:
        nr = {c: v % p for c, v in r.items() if v % p}
        if nr:
            work.append(nr)
    rank = 0
    while work:
        best = min(range(len(work)), key=lambda i: len(work[i]))
        pivot_row = work.pop(best)
        pcol = min(pivot_row)
        inv = pow(pivot_row[pcol], -1, p)
        pivot_row = {c: (v * inv) % p for c, v in pivot_row.items()}
        rank += 1
        nxt = []
        for row in work:
            e = row.get(pcol)
            if e:
                new = {}
                for c, v in row.items():
                    nv = (v - e * pivot_row.get(c, 0)) % p
                    if nv:
                        new[c] = nv
                for c, v in pivot_row.items():
                    if c not in row:
                        nv = (-e * v) % p
                        if nv:
                            new[c] = nv
                row = new
            if row:
                nxt.append(row)
        work = nxt
    return rank


def _rescan_rank(rows, char):
    return _rescan_rank_rational(rows) if char == 0 else _rescan_rank_mod(rows, char)


# Nonzero entries, mostly units but with non-units and multiples of 2, 3, 5
# so that rows vanish or lose entries mod p.
entries = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -3, 4, 5, -6, 10, 15, -30])
sparse_rows = st.dictionaries(st.integers(0, 7), entries, max_size=6)


def _combine(a, r, b, t):
    out = {}
    for c in set(r) | set(t):
        v = a * r.get(c, 0) + b * t.get(c, 0)
        if v:
            out[c] = v
    return out


# Columns on both sides of the 64-bit word boundary and past 1,000, so that
# packed F_2 rows span several machine words.
wide_rows = st.dictionaries(
    st.sampled_from([0, 1, 2, 62, 63, 64, 65, 127, 128, 999, 1000, 1001, 4097]),
    entries,
    max_size=6,
)


@st.composite
def matrices(draw, row_strategy=sparse_rows):
    """Rows with empty rows, duplicate rows and integer combinations of two
    rows mixed in, so that most matrices are rank-deficient."""
    rows = draw(st.lists(row_strategy, max_size=8))
    if rows:
        k = st.integers(0, len(rows) - 1)
        for _ in range(draw(st.integers(0, 2))):
            rows.append(dict(rows[draw(k)]))
        coeff = st.sampled_from([1, -1, 2, -2, 3, 6])
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(coeff), draw(coeff)
            rows.append(_combine(a, rows[draw(k)], b, rows[draw(k)]))
    rows.insert(draw(st.integers(0, len(rows))), {})
    return draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(matrices(), st.sampled_from([0, 2, 3, 5]))
def test_same_rank_as_rescan_kernel(rows, char):
    before = [dict(r) for r in rows]
    assert linalg.rank(rows, char) == _rescan_rank(rows, char)
    assert rows == before  # the input is not modified


def _pack(row):
    """A dict row as an int, bit c set when the entry at column c is odd."""
    return sum(1 << c for c, v in row.items() if v % 2)


@settings(max_examples=400, deadline=None)
@given(st.one_of(matrices(), matrices(wide_rows)))
def test_f2_same_rank_as_rescan_kernel(rows):
    before = [dict(r) for r in rows]
    expected = _rescan_rank_mod(rows, 2)
    assert linalg.rank_f2(rows) == expected
    assert rows == before  # the input is not modified
    packed = [_pack(row) for row in rows]
    assert linalg.rank_f2_packed(packed) == expected
    assert packed == [_pack(row) for row in before]


@settings(max_examples=200, deadline=None)
@given(st.lists(matrices(), min_size=1, max_size=4))
def test_f2_shifted_ranges_rank_independently(blocks):
    # each block packed from bit 0 and shifted past the ones before it: the
    # keys of block k are its own keys moved by its shift
    rows, shifts, expected, shift = [], [], {}, 0
    for block in blocks:
        width = 1 + max((c for row in block for c in row), default=0)
        packed = [_pack(row) for row in block]
        expected.update(
            (key + shift, x) for key, x in linalg.pivots_f2_packed(packed).items()
        )
        rows += packed
        shifts += [shift] * len(packed)
        shift += width
    order = list(range(len(rows)))
    order.reverse()  # the blocks interleaved with each other
    got = linalg.pivots_f2_packed([rows[k] for k in order], [shifts[k] for k in order])
    assert sorted(got) == sorted(expected)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], 0),
        ([{}, {}], 0),
        ([{64: 1}, {63: 1}, {63: 1, 64: 1}], 2),  # across the word boundary
        ([{0: 1, 64: 1, 1000: 1}, {1000: 1}, {0: 1, 64: 1}], 2),
        ([{1000: 1, 1001: 1}, {1001: 1, 5000: 1}, {1000: 1, 5000: 1}], 2),
        ([{0: -1, 3: -3}, {0: 1, 3: 1}], 1),  # odd negative entries are 1
        ([{0: -1, 3: -3}, {0: 1, 3: 2}], 2),
        ([{0: 2, 1: -4}, {5: 6}, {}], 0),  # even entries vanish
        ([{0: 2, 1: 1}, {0: 4, 1: 3}], 1),
        ([{2: 1, 7: 1}, {2: 1, 7: 1}, {2: 3, 7: -1}], 1),  # duplicates
    ],
)
def test_f2_known_ranks(rows, expected):
    assert linalg.rank_f2(rows) == expected
    assert linalg.rank_f2_packed([_pack(row) for row in rows]) == expected
    assert linalg.rank(rows, 2) == expected
    assert _rescan_rank_mod(rows, 2) == expected


@pytest.mark.parametrize(
    "rows, char, expected",
    [
        ([], 0, 0),
        ([{}, {}], 0, 0),
        ([{0: 2, 1: 4}, {0: 4, 1: 8}], 0, 1),  # non-unit multiples
        ([{0: 2, 1: 1}, {0: 4, 1: 3}], 0, 2),
        ([{0: 2, 1: 1}, {0: 4, 1: 3}], 2, 1),  # 2 vanishes mod 2
        ([{0: 6, 3: 10}, {3: 15}], 5, 1),
        ([{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}], 0, 1),  # duplicates
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}], 0, 2),
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}], 2, 2),
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 2, 2),
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3, 3),
    ],
)
def test_known_ranks(rows, char, expected):
    assert linalg.rank(rows, char) == expected
    assert _rescan_rank(rows, char) == expected
