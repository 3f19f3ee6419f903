"""The echelon rank kernels against the pivot-rescan kernel of `reference`.

`reference.rank` rescans all remaining rows for the shortest one at every
pivot, in integers over Q and mod p over F_p.  The kernels must give the
same rank on every matrix, `linalg.rank(rows, 2)` and `pivots_f2_packed` (on
the same rows packed into ints) included.  Each kernel, given
the echelon form of an earlier call, must extend it in place to the keys of
one call on all the rows, read its rows one at a time, and only add keys,
so that `popitem()` undoes an extension.  `pivots_unit`, which takes only +-1 pivots over Z, must never
count more pivots than the rank at any characteristic.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunres import linalg
from reference import rank as rescan_rank


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
    assert linalg.rank(rows, char) == rescan_rank(rows, char)
    assert rows == before  # the input is not modified


def _pack(row):
    """A dict row as an int, bit c set when the entry at column c is odd."""
    return sum(1 << c for c, v in row.items() if v % 2)


@settings(max_examples=400, deadline=None)
@given(st.one_of(matrices(), matrices(wide_rows)))
def test_f2_same_rank_as_rescan_kernel(rows):
    before = [dict(r) for r in rows]
    expected = rescan_rank(rows, 2)
    assert linalg.rank(rows, 2) == expected
    assert rows == before  # the input is not modified
    packed = [_pack(row) for row in rows]
    assert len(linalg.pivots_f2_packed(packed)) == expected
    assert packed == [_pack(row) for row in before]


@settings(max_examples=200, deadline=None)
@given(st.lists(matrices(), min_size=1, max_size=4))
def test_f2_shifted_ranges_rank_independently(blocks):
    # each block shifted past the ones before it, so that no row crosses
    # two blocks: the keys of block k are its own keys moved by its shift
    rows, expected, shift = [], {}, 0
    for block in blocks:
        width = 1 + max((c for row in block for c in row), default=0)
        packed = [_pack(row) for row in block]
        expected.update(
            (key + shift, x << shift)
            for key, x in linalg.pivots_f2_packed(packed).items()
        )
        rows += [x << shift for x in packed]
        shift += width
    rows.reverse()  # the blocks interleaved with each other
    got = linalg.pivots_f2_packed(rows)
    assert sorted(got) == sorted(expected)


@pytest.mark.parametrize(
    "rows, shifts, keys",
    [
        ([1, 1], [0, 1], [1, 2]),  # one row of one column in each block
        ([0b11, 0b10, 0b01], [0, 0, 2], [1, 2, 3]),
        ([0b10, 0b11, 0b01], [5, 5, 0], [1, 6, 7]),
    ],
)
def test_f2_shifted_known_keys(rows, shifts, keys):
    shifted = [x << shift for x, shift in zip(rows, shifts)]
    assert sorted(linalg.pivots_f2_packed(shifted)) == keys


def _dict_kernel(char):
    if char == 0:
        return linalg.pivots_rational
    return lambda rows, pivots=None: linalg.pivots_mod(rows, char, pivots)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data(), st.sampled_from([0, 3, 5]))
def test_extended_echelon_has_the_keys_of_one_call(rows, data, char):
    # an echelon form of A extended by B, in place, against one call on A + B
    k = data.draw(st.integers(0, len(rows)))
    before = [dict(r) for r in rows]
    kernel = _dict_kernel(char)
    first = kernel(rows[:k])
    extended = kernel(rows[k:], first)
    assert extended is first
    assert sorted(extended) == sorted(kernel(rows))
    assert len(extended) == rescan_rank(rows, char)
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(matrices(), matrices(wide_rows)), min_size=1, max_size=4),
       st.data())
def test_f2_extended_echelon_has_the_keys_of_one_call(blocks, data):
    # shifted ranges as in the test above, interleaved, then cut in two
    rows, shifts, shift = [], [], 0
    for block in blocks:
        packed = [_pack(row) for row in block]
        rows += packed
        shifts += [shift] * len(packed)
        shift += 1 + max((c for row in block for c in row), default=0)
    order = data.draw(st.permutations(range(len(rows))))
    k = data.draw(st.integers(0, len(rows)))
    for taken in ([rows[j] << shifts[j] for j in order], [rows[j] for j in order]):
        # shifted, and all from bit 0 as linalg.rank packs them
        first = linalg.pivots_f2_packed(taken[:k])
        extended = linalg.pivots_f2_packed(taken[k:], first)
        assert extended is first
        assert sorted(extended) == sorted(linalg.pivots_f2_packed(taken))


# each kernel as (rows, pivots) -> pivots, with how it takes a dict row
KERNELS = {
    "pivots_rational": (linalg.pivots_rational, dict),
    "pivots_mod": (lambda rows, pivots=None: linalg.pivots_mod(rows, 3, pivots), dict),
    "pivots_unit": (linalg.pivots_unit, dict),
    "pivots_f2_packed": (linalg.pivots_f2_packed, _pack),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_rows_read_one_at_a_time(name):
    # each row is reduced, and its key added, before the next is read: a
    # generator of rows sees the keys of the rows it gave before
    kernel, take = KERNELS[name]
    rows = [{0: 1}, {0: 1}, {1: 1}, {2: 1, 0: 1}]
    pivots, seen = {}, []

    def reading():
        for row in rows:
            seen.append(sorted(pivots))
            yield take(row)

    assert kernel(reading(), pivots) is pivots
    lift = 1 if name == "pivots_f2_packed" else 0
    assert seen == [[], [lift], [lift], [lift, 1 + lift]]


@settings(max_examples=200, deadline=None)
@given(matrices(), matrices(), st.sampled_from(sorted(KERNELS)))
def test_popitem_undoes_an_extension(first, then, name):
    # the kernels only add keys, so popping the keys an extension added, last
    # first, leaves the dict as it was: the same items in the same order
    kernel, take = KERNELS[name]
    pivots = kernel([take(row) for row in first])
    before = list(pivots.items())
    kernel([take(row) for row in then], pivots)
    assert list(pivots.items())[: len(before)] == before
    while len(pivots) > len(before):
        pivots.popitem()
    assert list(pivots.items()) == before
    # and the dict extends again as it did the first time
    assert sorted(kernel([take(row) for row in then], pivots)) == sorted(
        kernel([take(row) for row in first + then])
    )


def _unit_pivots_bound_every_rank(rows):
    before = [dict(r) for r in rows]
    pivots = linalg.pivots_unit(rows)
    assert rows == before  # the input is not modified
    # every pivot row has lead 1 and no column right of it, and is an
    # integer combination of the rows, so it lies in their span mod every p
    assert all(max(rest, default=-1) < lead for lead, rest in pivots.items())
    pivot_rows = [{lead: 1, **rest} for lead, rest in pivots.items()]
    for char in (0, 2, 3, 5):
        rank = rescan_rank(rows, char)
        assert len(pivots) <= rank
        assert rescan_rank(rows + pivot_rows, char) == rank


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_unit_pivots_bound_every_rank(rows):
    _unit_pivots_bound_every_rank(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [{1: -1, 0: 1}],  # a -1 lead: the pivot row is the row negated
        [{2: 1, 1: 3}, {2: 1, 1: 2, 0: -1}],  # reduced to -x_1 - x_0
        [{0: -1}, {3: 2, 0: 1}, {3: -1, 2: 5}],
    ],
)
def test_unit_pivot_rows_lie_in_the_span(rows):
    _unit_pivots_bound_every_rank(rows)


@st.composite
def unimodular_triangular(draw):
    """Rows with a +-1 entry at distinct columns, each row's largest, and any
    integer entries at smaller columns, in any order."""
    columns = sorted(draw(st.sets(st.integers(0, 12), max_size=8)))
    rows = []
    for k, lead in enumerate(columns):
        row = draw(st.dictionaries(st.sampled_from(columns[:k]), entries)) if k else {}
        row[lead] = draw(st.sampled_from([1, -1]))
        rows.append(row)
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(unimodular_triangular())
def test_unit_pivots_reach_the_rank_of_a_unimodular_triangular_matrix(rows):
    n = len(linalg.pivots_unit(rows))
    assert n == len(rows)
    assert all(rescan_rank(rows, char) == n for char in (0, 2, 3, 5))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_unit_extended_echelon_is_one_call(rows, data):
    k = data.draw(st.integers(0, len(rows)))
    before = [dict(r) for r in rows]
    first = linalg.pivots_unit(rows[:k])
    extended = linalg.pivots_unit(rows[k:], first)
    assert extended is first
    assert sorted(extended) == sorted(linalg.pivots_unit(rows))
    assert extended == linalg.pivots_unit(rows)
    assert rows == before


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], 0),
        ([{0: 3}], 0),  # a non-unit lead is no pivot
        ([{0: -1, 2: 3}], 0),
        ([{2: -1, 0: 3}], 1),
        ([{2: 1, 0: 1}, {2: 1, 0: 3}], 1),  # reduced to {0: 2}, dropped
        ([{2: 1, 0: 1}, {2: 1, 0: 2}], 2),  # reduced to {0: 1}
        ([{0: 2}, {0: 1}, {0: 2}], 1),
    ],
)
def test_unit_known_pivot_counts(rows, expected):
    assert len(linalg.pivots_unit(rows)) == expected


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
    assert len(linalg.pivots_f2_packed([_pack(row) for row in rows])) == expected
    assert linalg.rank(rows, 2) == expected
    assert rescan_rank(rows, 2) == expected


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
        # each needs its rows combined right: the second row scaled by the
        # pivot entry 2 over Q, and the lead 2 subtracted mod 3
        ([{0: 1, 1: 2}, {0: 3, 1: 3}], 0, 2),
        ([{0: 1, 1: 1}, {0: 1, 1: 2}], 3, 2),
        # the lead 4 met by the pivot entry 2 over Q: the row less twice the
        # pivot row, 4 / gcd(2, 4), vanishes
        ([{1: 2, 0: 1}, {1: 4, 0: 2}], 0, 1),
    ],
)
def test_known_ranks(rows, char, expected):
    assert linalg.rank(rows, char) == expected
    assert rescan_rank(rows, char) == expected
