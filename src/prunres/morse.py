"""Chain complexes on critical cells, the gradient-flow differential, and the
d*d = 0 / exactness / minimality checks.

Homological degree i >= 1 is spanned by the critical (i-1)-dimensional faces;
degree 0 by the empty face.  Differential entries are signed monomials,
(row, col) -> (coefficient, degree-ratio exponents), and each differential
is held column-major (`Differential`): the column starts, the row of each
entry and the entry itself, with no (row, col) key stored.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, count, pairwise, repeat
from math import gcd
from operator import getitem, itemgetter, le, or_, sub
from typing import ClassVar, Iterable, Iterator

from . import linalg
from .monomials import Monomial, MonomialIdeal, monomial_str
from .pruning import Matching, _flow, verify_matching
from .taylor import TaylorComplex, indices_of


class InvalidMatchingError(ValueError):
    """The matching is on another r than the ideal, or failed validation."""


Entry = tuple[int, tuple[int, ...]]  # coefficient, exponent vector of the monomial


class Differential(Mapping):
    """One differential d_i as a read-only mapping (row, col) -> Entry, held
    column-major.  Column col is the slice starts[col]:starts[col + 1] of
    `rows`, the row of each entry, and of `entries`, its Entry; `starts`
    has one item more than there are columns.  The three lists belong to
    the Differential, and nothing changes them once it is built.

    It iterates as its (row, col) keys in column order, and within a column
    in the order the entries were given; `items()` and `values()` read the
    tuples directly.  Equality is that of mappings, so a Differential equals
    a dict with the same entries.  No key is stored: a dict of (row, col)
    tuples costs a slot and a fresh tuple per entry, about 110 bytes, while
    an entry here is two list slots, and the Entry and row objects it
    points to are shared (`morse_differential`).  A lookup `d[row, col]`
    searches the rows of column col alone.

    `Differential(d)` copies a mapping, or an iterable of (key, Entry)
    pairs, grouping its entries by column.  A key that is not a pair of
    ints, or whose column is negative, raises ValueError naming it, since
    there is no place to hold it.  Any other row is stored as given, and so
    is a column beyond the level the differential maps from:
    `ChainComplex`'s contract pass turns those down."""

    __slots__ = ("starts", "rows", "entries")

    def __init__(
        self,
        d: Mapping[tuple[int, int], Entry] | Iterable[tuple[tuple[int, int], Entry]] = (),
    ) -> None:
        by_col: dict[int, list[tuple[int, Entry]]] = {}
        for key, entry in dict(d).items():
            if not (
                isinstance(key, tuple) and len(key) == 2
                and isinstance(key[0], int) and isinstance(key[1], int)
                and key[1] >= 0
            ):
                raise ValueError(
                    f"differential key {key!r} is not a pair (row, col) of"
                    f" ints with col >= 0"
                )
            by_col.setdefault(key[1], []).append((key[0], entry))
        starts, rows, entries = [0], [], []
        for col in range(max(by_col, default=-1) + 1):
            for row, entry in by_col.get(col, ()):
                rows.append(row)
                entries.append(entry)
            starts.append(len(rows))
        self.starts, self.rows, self.entries = starts, rows, entries

    @classmethod
    def _of_columns(
        cls, starts: list[int], rows: list[int], entries: list[Entry]
    ) -> Differential:
        """The differential with these column starts, rows and entries, no
        two rows of one column equal: the lists are taken, not copied, and
        the caller keeps no reference to them."""
        d = object.__new__(cls)
        d.starts, d.rows, d.entries = starts, rows, entries
        return d

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.rows, _entry_cells(self, count()))

    def __getitem__(self, key: tuple[int, int]) -> Entry:
        try:
            row, col = key
            if col >= 0:
                start, stop = self.starts[col], self.starts[col + 1]
                return self.entries[self.rows.index(row, start, stop)]
        except (TypeError, ValueError, IndexError):
            pass  # no pair, no column col, or no such row in it
        raise KeyError(key)

    def items(self) -> _Items:
        return _Items(self)

    def values(self) -> _Values:
        return _Values(self)

    def __repr__(self) -> str:
        return f"Differential({dict(self.items())!r})"


def _entry_cells(d: Differential, cells: Iterable[object]) -> Iterator[object]:
    """For each entry of d, in the order of `d.rows`, the item of `cells` at
    its column: `count()` gives the column itself.  Each item is repeated
    once per entry of its column, all in C, so a consumer reads the entries
    in one flat loop and slices no column; most columns hold a few
    entries."""
    starts = d.starts
    return chain.from_iterable(map(repeat, cells, map(sub, starts[1:], starts)))


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[tuple[int, int], Entry]]:
        d = self._mapping
        return zip(iter(d), d.entries)


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._mapping.entries)


@dataclass(frozen=True)
class ChainComplex:
    """Critical cells per homological degree plus (optionally) differentials.

    The differentials are read-only: each diffs[i] is a `Differential`,
    held column-major.  A Differential handed in is kept as it is, and any
    other mapping is copied once into one, so changing a dict after handing
    it in changes nothing; a key that is not a pair of ints (row, col) with
    col >= 0 raises ValueError.  The other fields are made tuples down to each
    degree vector, so a list handed in is copied and changing it later
    changes nothing; `tuple()` hands a tuple back as it is.  `degrees` has
    one level per level of `cells` and one degree per cell, and `diffs`, when
    set, at least one differential per level above F_0; a complex of any
    other shape raises ValueError naming the counts.  An extra differential
    is kept as it is, and the contract below turns down one with entries.
    The shape is read from the lengths alone, not from any entry.  Since no
    field can change, each answer the checks learn about a complex is stored
    on it once, outside the fields, and a later check of the same complex
    reads it: whether it keeps the contract below (`_homogeneous`), the gcd
    that decides d*d at every characteristic (`_d_squared_gcd`), and the
    strand index of the last ideal it was checked with (`_index`).  Equality,
    repr and digests see the fields alone.

    The complex is multigraded, as a cellular resolution is: every entry of
    d_i has its row in level i - 1 and its column in level i, and its
    monomial `exps` is deg(col) - deg(row), with no negative exponent.
    `check_d_squared`, `check_exactness` and `check_minimal` return False
    on a complex that breaks this contract.  `morse_differential` keeps it
    by construction and presets `_homogeneous`; any other complex is
    checked once, on first use.
    """

    variables: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]
    degrees: tuple[tuple[tuple[int, ...], ...], ...]
    diffs: tuple[Differential, ...] | None = None
    # diffs[i] is d_{i+1}: F_{i+1} -> F_i, so len(diffs) >= len(cells) - 1
    # the strand index of the last ideal `check_exactness` was given, set on
    # the instance by that check
    _index: ClassVar[_StrandIndex | None] = None

    def __post_init__(self) -> None:
        set_field = object.__setattr__
        set_field(self, "variables", tuple(self.variables))
        set_field(self, "cells", tuple(map(tuple, self.cells)))
        set_field(
            self, "degrees",
            tuple(tuple(map(tuple, level)) for level in self.degrees),
        )
        if len(self.degrees) != len(self.cells):
            raise ValueError(
                f"{len(self.cells)} levels of cells but {len(self.degrees)}"
                f" levels of degrees"
            )
        for i, (level, degs) in enumerate(zip(self.cells, self.degrees)):
            if len(level) != len(degs):
                raise ValueError(
                    f"level {i} has {len(level)} cells but {len(degs)} degrees"
                )
        if self.diffs is not None:
            if len(self.diffs) < len(self.cells) - 1:
                raise ValueError(
                    f"{len(self.cells)} levels of cells need"
                    f" {len(self.cells) - 1} differentials, got {len(self.diffs)}"
                )
            set_field(self, "diffs", tuple(
                d if type(d) is Differential else Differential(d) for d in self.diffs
            ))

    @cached_property
    def _homogeneous(self) -> bool:
        """Whether the complex keeps the contract (`_contract_holds`)."""
        return _contract_holds(self)

    @cached_property
    def _d_squared_gcd(self) -> int:
        """The gcd of the row sums of d*d, computed on first use by the
        function `_d_squared_gcd`, on a complex that keeps the contract: d*d
        vanishes over the integers iff it is 0, and mod p iff p divides it."""
        return _d_squared_gcd(self)

    @property
    def length(self) -> int:
        return len(self.cells)

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def diff(self, i: int) -> Differential:
        """d_i: F_i -> F_{i-1}, for 1 <= i < length."""
        if self.diffs is None:
            raise ValueError("differentials not set")
        return self.diffs[i - 1]

    def dump_lines(self) -> list[str]:
        lines = []
        for i, cells in enumerate(self.cells):
            lines.append(f"F{i}: {len(cells)} cells")
            if self.diffs is not None and i >= 1:
                for (row, col), (coeff, exps) in sorted(self.diff(i).items()):
                    mono = monomial_str(Monomial(exps), self.variables)
                    sign = "+" if coeff >= 0 else "-"
                    lines.append(f"d{i}[{row},{col}] = {sign}{abs(coeff)}*{mono}")
        return lines


def critical_complex(
    I: MonomialIdeal, matching: Matching, validate: bool = True
) -> ChainComplex:
    """Basis of the reduced complex: critical cells ordered canonically per
    degree.  InvalidMatchingError for a matching with another r than I,
    whatever `validate` is, and with `validate` for one that
    `verify_matching` rejects.  Without `validate` nothing else is checked:
    a matching whose V-paths close into a cycle still gives its critical
    cells."""
    cells, degrees = _critical_levels(I, matching, validate)[:2]
    return ChainComplex(I.variables, cells, degrees)


def _critical_levels(
    I: MonomialIdeal, matching: Matching, validate: bool
) -> tuple[tuple, tuple, list[list[int]], TaylorComplex, int]:
    """The cells of `critical_complex` and their degrees, level by level,
    the degree bitmask of each cell, one list per level, each degree
    computed once, the table they were read from, and the bitset of the
    cells.  No complex is built here, so each caller builds one."""
    r = I.r
    if matching.r != r:
        raise InvalidMatchingError(
            f"the matching is on {matching.r} generators, the ideal has {r}"
        )
    if validate:
        report = verify_matching(r, matching, I)
        if not report.all_ok:
            raise InvalidMatchingError(f"rejected matching: {report}")
    buckets: dict[int, list[int]] = {}
    critical = matching._critical()
    for mask in indices_of(critical):
        buckets.setdefault(mask.bit_count(), []).append(mask)
    top = max(buckets) if buckets else 0
    cells = tuple(tuple(buckets.get(i, ())) for i in range(top + 1))
    tc = TaylorComplex(I)
    degs = [list(map(tc.degree, level)) for level in cells]
    degrees = tuple(tuple(map(tc.decode, level)) for level in degs)
    return cells, degrees, degs, tc, critical


def morse_differential(
    I: MonomialIdeal, matching: Matching, validate: bool = True
) -> ChainComplex:
    """Reduced differential via gradient-flow accumulation.

    The coefficient of critical sigma' in d(sigma) sums the weights of all
    gradient paths from the facets of sigma down to sigma'.  A gradient path
    is a V-path: cell -> another facet of the cell's match partner, with
    weight -[partner : cell] * [partner : facet].  `pruning._flow` sums
    those weights once per matched-lower cell reachable from the
    matched-lower facets of critical cells, read from the matching's
    bitsets: flow[c] maps each critical cell to the summed weight of the
    V-paths from c down to it.  A cycle among those cells raises
    InvalidMatchingError.  A cycle that no facet of a critical cell reaches
    is never walked, so with `validate` off it goes unnoticed: on the ideal
    (x, x, x), the three edges ({0}, 1), ({1}, 2), ({2}, 0) form one, and
    the complex of the empty face and {0, 1, 2} comes back (ranks 1, 0, 0,
    1).  `validate` rejects every cycle (`verify_matching`).

    A column of d_i never leaves the faces with i - 1 members: the facets of
    its cell sigma have i - 1, and so does every head of a flow arc out of a
    cell c with i - 1 members, its partner c + e_j less another member of
    c.  So its rows are read from one {mask: row} dict of level i - 1, and
    no entry can land in another level.

    Every column is written in one walk over the members of its cell
    sigma, lowest first: the facet is sigma less that member, and the sign,
    +1 for the first member, flips on every member (the `taylor` signs).
    A facet with a row in the level's dict is critical and gets the sign as
    its entry.  Such an entry needs no divisibility test: a facet is a
    subset of sigma, so its lcm divides sigma's.  A facet that is a flow
    node adds the sign times its flow, summed over the column after the
    walk onto the entries of the walk; only these summed entries take the
    divisibility test, and one that sums to zero is dropped.  The column is
    appended to d_i's lists as it is written (`Differential`), so a summed
    entry finds the walk's entry at its row by a search of the column's own
    slice, the last of the lists, and a zero sum is deleted there.  Any other
    facet is matched-upper and absorbs nothing, but its member still flips
    the sign.  A column with no flow node among its facets, as every column
    of a complex whose critical cells are closed under faces
    (Batzies-Welker), is so the simplicial boundary of sigma.
    `check_d_squared` certifies d*d = 0 on these differentials by ∂∂ = 0,
    but reads that they are boundaries from their entries (`_is_boundary`);
    nothing is stored here for it.

    The monomial part of an entry is the exponent difference of its
    endpoints.  Each critical cell's degree bitmask is computed once, in one
    list per level (`_critical_levels`), and an entry reads its row's and
    its column's from those lists.  Once the row's degree divides the
    column's, that difference depends only on the XOR of the two degree
    bitmasks: in the rank-compressed encoding of `taylor`, each variable's
    bits are a prefix of its segment, so the XOR of two nested prefixes is
    the run of bits from the shorter prefix's length to the longer's, and
    the two lengths fix both exponents.  The ratios are memoized by that
    XOR, on a summed entry after the divisibility test: the Lyubeznik
    complex of cycle:15 has 36,447 pairs of degrees but 31 XORs.  The entry
    of a critical facet is ±1 times that ratio, so its whole (coefficient,
    ratio) tuple is memoized too, one memo per sign, and every such entry
    of one sign and XOR is the same tuple object: the 176,128 entries of
    that complex share 59 tuples instead of holding one each.  The rows are
    the ints of the level's {mask: row} dict, shared by every entry at that
    row, so an entry costs two list slots: that complex keeps about 5.7 MB
    where a dict of (row, col) keys kept 19.3 MB.

    So the complex keeps the contract of `ChainComplex` by construction:
    rows come from the level below, every summed entry passes the
    divisibility test and every facet's entry needs none, and its
    monomial is the decoded degree difference.  That is preset on it
    (`_homogeneous`), and the checks skip their contract pass.  The cells
    and degrees come from `_critical_levels`, and the complex is built once,
    with its differentials.
    """
    cells, degrees, cell_degs, tc, critical = _critical_levels(I, matching, validate)
    decode = tc.decode
    flow = _flow(matching._steps(), critical)
    if flow is None:
        raise InvalidMatchingError("cycle detected in gradient flow")

    ratios: dict[int, tuple[int, ...]] = {}
    # the shared (1, ratio) and (-1, ratio) of critical facets, by degree XOR
    plus: dict[int, Entry] = {}
    minus: dict[int, Entry] = {}

    def ratio_of(sig_deg: int, cell_deg: int) -> tuple[int, ...]:
        ratio = ratios.get(sig_deg ^ cell_deg)
        if ratio is None:
            ratio = tuple(map(sub, decode(sig_deg), decode(cell_deg)))
            ratios[sig_deg ^ cell_deg] = ratio
        return ratio

    diffs: list[Differential] = []
    for i in range(1, len(cells)):
        # d_i column-major: the column starts, and the row and entry of each
        # entry, appended column by column
        starts, rows, entries = [0], [], []
        add_row, add_entry = rows.append, entries.append
        row_of = dict(zip(cells[i - 1], count()))
        get_row = row_of.get
        row_deg, col_deg = cell_degs[i - 1], cell_degs[i]
        for col, sigma in enumerate(cells[i]):
            sig_deg = col_deg[col]
            # the sign flips on every member, a matched-upper facet's too,
            # which has no row; a flow node's flow is summed in `patch`
            rest, memo, other, patch = sigma, plus, minus, None
            while rest:
                low = rest & -rest
                rest ^= low
                facet = sigma ^ low
                row = get_row(facet)
                if row is not None:
                    cell_deg = row_deg[row]
                    entry = memo.get(sig_deg ^ cell_deg)
                    if entry is None:
                        sign = 1 if memo is plus else -1
                        entry = (sign, ratio_of(sig_deg, cell_deg))
                        memo[sig_deg ^ cell_deg] = entry
                    add_row(row)
                    add_entry(entry)
                elif (reached := flow.get(facet)) is not None:
                    if patch is None:
                        patch = {}
                    sign = 1 if memo is plus else -1
                    for cell, val in reached.items():
                        patch[cell] = patch.get(cell, 0) + sign * val
                memo, other = other, memo
            if patch is not None:
                # a summed entry adds onto the walk's entry at its row, which
                # only this column's slice, from `start`, can hold
                start = starts[-1]
                for cell, val in patch.items():
                    row = row_of[cell]
                    try:
                        k = rows.index(row, start)
                    except ValueError:
                        k = None
                    else:
                        val += entries[k][0]
                    if not val:
                        if k is not None:
                            del rows[k], entries[k]
                        continue
                    cell_deg = row_deg[row]
                    if cell_deg & ~sig_deg:
                        raise InvalidMatchingError("non-divisible differential entry")
                    entry = (val, ratio_of(sig_deg, cell_deg))
                    if k is None:
                        add_row(row)
                        add_entry(entry)
                    else:
                        entries[k] = entry
            starts.append(len(rows))
        diffs.append(Differential._of_columns(starts, rows, entries))

    C = ChainComplex(I.variables, cells, degrees, tuple(diffs))
    object.__setattr__(C, "_homogeneous", True)
    return C


def check_d_squared(C: ChainComplex) -> bool:
    """Exact polynomial check that consecutive differentials compose to zero
    over the integers.  False for a complex that breaks the contract of
    `ChainComplex`, whatever its products.

    Two consecutive differentials that are both the simplicial boundary of
    their cells (the simplicial and Lyubeznik resolutions are simplicial
    throughout, and the pruned one in its lowest levels) compose to zero
    because ∂∂ = 0, so that pair is not multiplied.  Whether d_i is that
    boundary is read from its entries alone (`_is_boundary`), when every
    cell is an int >= 0: each row's mask is its column's less one member,
    with the sign that `facets` gives, no two cells of level i - 1 share a
    mask, and d_i has one entry per member of each cell of level i.  Then
    each column holds a facet at most once, so the count leaves it the
    whole of ∂σ; and d_{i-1} d_i sends each cell σ to ∂∂σ = 0, carried onto
    the rows of level i - 2 (`_d_squared_gcd`).  Every other pair is
    multiplied term by term.

    What is stored on the complex is no verdict but the gcd of every row sum
    of the multiplied products (`ChainComplex._d_squared_gcd`): d*d vanishes
    over the integers iff it is 0, and mod p iff p divides it.  The
    differentials cannot change, so `check_exactness` of the same complex
    reads it at every characteristic instead of computing d*d again, and a
    second call returns at once."""
    return C._homogeneous and C._d_squared_gcd == 0


def _contract_holds(C: ChainComplex) -> bool:
    """The contract pass: every entry of d_i joins a column in level i to a
    row in level i - 1, and its monomial is deg(col) - deg(row) with no
    negative exponent.  The difference is computed once per pair of
    distinct degrees of the two levels.

    Raises ValueError when the differentials are not set, for a cell degree
    that does not have one exponent per variable, and naming (i, row, col)
    for an entry of d_i whose exponent vector does not."""
    if C.diffs is None:
        raise ValueError("differentials not set")
    n = len(C.variables)
    if {*map(len, chain.from_iterable(C.degrees))} - {n}:
        for i, level in enumerate(C.degrees):
            for k, exps in enumerate(level):
                if len(exps) != n:
                    raise ValueError(
                        f"cell {k} of level {i} has a degree of {len(exps)}"
                        f" exponents for {n} variables"
                    )
    vectors = {exps for d in C.diffs for _, exps in d.values()}
    if {*map(len, vectors)} - {n}:
        for i, d in enumerate(C.diffs, 1):
            for (row, col), (_, exps) in d.items():
                if len(exps) != n:
                    raise ValueError(
                        f"entry (i, row, col) = {(i, row, col)} of d_{i} has "
                        f"{len(exps)} exponents for {n} variables"
                    )
    if min(chain.from_iterable(vectors), default=0) < 0:
        return False
    top = max(C.length - 1, 0)
    if any(C.diffs[top:]):
        return False  # entries above the top level
    for i, d in enumerate(C.diffs[:top], 1):
        below, here = C.degrees[i - 1], C.degrees[i]
        ids: dict[tuple[int, ...], int] = {}
        row_id = [ids.setdefault(a, len(ids)) for a in below]
        col_id = [ids.setdefault(a, len(ids)) for a in here]
        m, n_rows, n_cols = len(ids), len(below), len(here)
        ratios: dict[int, tuple[int, ...]] = {}
        for (row, col), (_, exps) in d.items():
            if not (0 <= row < n_rows and 0 <= col < n_cols):
                return False
            key = col_id[col] * m + row_id[row]
            ratio = ratios.get(key)
            if ratio is None:
                ratio = ratios[key] = tuple(map(sub, here[col], below[row]))
            if exps != ratio:
                return False
    return True


def _d_squared_gcd(C: ChainComplex) -> int:
    """The gcd over the integers of every row sum of every product
    d_{i-1} d_i that is multiplied, on a complex that keeps the contract:
    0 iff d*d = 0 over the integers, and divisible by p iff d*d = 0 mod p.
    So one integer answers d*d at every characteristic.

    Every product term of d_{i-1} d_i at (row, col) then has the monomial
    deg(col) - deg(row), so the terms of one column are summed by row alone
    and no monomial is read.

    A pair whose two differentials are both simplicial boundaries
    (`_is_boundary`) is not multiplied: its product vanishes by ∂∂ = 0.
    The masks of level i - 1 are all different, so φ, from each of them to
    its position, is a map, and each column of d_i is ∂σ for its cell σ
    with every facet f sent to the row φ(f).  The column of d_{i-1} at
    φ(f) is ∂f sent on by the map ψ of level i - 2.  So the coefficients of
    d_{i-1} d_i at the column of σ sum, row by row, to ψ applied to
    sum over f and g of [σ : f][f : g] g = ∂∂σ = 0, and the pair adds
    nothing to the gcd.  On the Lyubeznik complex of cycle:15 this skips
    all 1,171,456 product terms.  The gcd comes from the entries alone,
    never from who built C.

    Every other pair is multiplied, reading the columns of both
    differentials where they are stored (`_product_gcd`)."""
    top = max(C.length - 1, 0)
    if top < 2:
        return 0
    # a cell that is no int >= 0 is no finite set, so no level is tested
    masks = all(type(m) is int and m >= 0 for m in chain.from_iterable(C.cells))
    boundary = [False] + [masks and _is_boundary(C, i) for i in range(1, top + 1)]
    g = 0
    for i in range(2, top + 1):
        if not (boundary[i - 1] and boundary[i]):
            g = gcd(g, _product_gcd(C.diff(i - 1), C.diff(i)))
    return g


def _is_boundary(C: ChainComplex, i: int) -> bool:
    """Whether d_i, on a complex that keeps the contract and whose cells are
    all ints >= 0, is exactly the simplicial boundary of the masks of level
    i onto those of level i - 1.  It is when:
    - row: each entry's row mask is its column's mask less one member;
    - sign: its coefficient is (-1)^t when that member is the (t+1)-th
      smallest, the sign convention of `taylor`;
    - distinct masks: the masks of level i - 1 are all different;
    - count: d_i has as many entries as the members of level i's masks.

    Row and sign make each column a part of ∂σ for its cell σ, and since
    no two rows share a mask, no two of its entries share a facet.  So a
    column has at most |σ| entries, and the count leaves each exactly ∂σ.
    Without the distinct masks, two entries of one column can hold the same
    facet at two rows that share its mask, and the count is met with
    another facet missing.  A negative int would stand for an infinite set,
    with more facets than `int.bit_count` counts."""
    below, here, d = C.cells[i - 1], C.cells[i], C.diffs[i - 1]
    if len({*below}) != len(below) or len(d) != sum(map(int.bit_count, here)):
        return False
    # the contract keeps every entry in a column of `here`
    for sigma, row, (coeff, _) in zip(_entry_cells(d, here), d.rows, d.entries):
        low = sigma ^ below[row]  # the member removed, when it is one
        if low & (low - 1) or not low & sigma:
            return False
        if coeff != (-1 if (sigma & (low - 1)).bit_count() & 1 else 1):
            return False
    return True


def _product_gcd(lower: Differential, upper: Differential) -> int:
    """The gcd over the integers of the row sums of the product of two
    differentials of a complex that keeps the contract, `lower` after
    `upper`: each sum of the terms at one row of one column, over every
    column, so 0 iff the product is zero.  Each column of `upper` is read
    by slice.  The columns of `lower`, each read by many of them, are first
    cut once into lists of (row, coeff); a row of `upper` past the last
    column `lower` stores is an empty column."""
    rows, coeffs = lower.rows, [coeff for coeff, _ in lower.entries]
    columns = [list(zip(rows[a:b], coeffs[a:b])) for a, b in pairwise(lower.starts)]
    stored = len(columns)
    up_rows, up_entries = upper.rows, upper.entries
    g = 0
    for start, stop in pairwise(upper.starts):
        acc: dict[int, int] = {}
        get = acc.get
        for mid, (c1, _) in zip(up_rows[start:stop], up_entries[start:stop]):
            if mid < stored:
                for row, c2 in columns[mid]:
                    acc[row] = get(row, 0) + c1 * c2
        if any(acc.values()):
            g = gcd(g, *acc.values())
    return g


def _threshold_masks(
    cells: list[tuple[int, ...]], values: list[list[int]]
) -> list[list[int]]:
    """masks[k][j]: bitmask of the cells, given by their degrees, whose k-th
    exponent is at most values[k][j], the j-th smallest k-th exponent of the
    lattice.  The masks are sized by the lattice, not by the exponents; a
    cell whose k-th exponent exceeds every lattice value is in none of them.
    The cells that divide x^alpha are then the AND over k of
    masks[k][rank of alpha[k]].

    Each variable's ranks j of the cells, last cell first, are one str of
    code points, and each mask is read from it with one translate to binary
    digits and one int(): setting bits one at a time in an int copies the
    whole mask per cell, and on the 24,576 cells of the Lyubeznik complex of
    cycle:15 that took 3.6 times as long."""
    masks = []
    for k, vals in enumerate(values):
        n = len(vals)
        column = map(itemgetter(k), reversed(cells))
        ranks = "".join(map(chr, map(bisect_left, repeat(vals), column)))
        masks.append([
            int(ranks.translate("1" * j + "0" * (n + 1 - j)) or "0", 2)
            for j in range(1, n + 1)
        ])
    return masks


def check_exactness(I: MonomialIdeal, C: ChainComplex, char: int = 0) -> bool:
    """True iff the complex is a resolution of the quotient over the given field.

    The complex must be over the ring of I and have at least the level F_0
    (`ValueError` otherwise).  It must keep the contract of `ChainComplex`,
    and its differentials must compose to zero over the field: the rank
    counts below read homology only for a complex of multigraded free
    modules, and without these checks a corrupted top differential would
    pass.  The alpha-strand, the cells whose degree divides x^alpha, is
    exact when its homology is zero in degrees >= 1 and its degree-0
    cokernel is 0 or 1 according to whether x^alpha lies in the ideal.

    Strands are checked at the points of the lcm lattice L of I when every
    cell degree lies in L: the strand at any alpha is then the strand at
    the lcm of the generators that divide alpha, a point of L, and x^alpha
    lies in I iff that lcm does.  A cell degree outside L, as in a complex
    built for another ideal, breaks that, so then the strands are checked
    over the lcm closure of L and those degrees, by the same argument with
    the outside degrees counted among the generators (`_strand_degrees`,
    which raises `ValueError` when they would add more than 2^r points to
    L).  The complexes the library builds never have a cell degree outside
    L.

    Each answer is stored once, on the object it describes, and reused by
    later checks of the same complex at any characteristic.  The
    differentials of C are read-only and its fields cannot change, so none
    can go stale:
    - on C, whether it keeps the contract (`_homogeneous`) and the gcd of
      the row sums of d*d (`_d_squared_gcd`, which `check_d_squared` fills
      too): d*d vanishes mod char iff char divides it, 0 over Q;
    - on C, the strand index (`_StrandIndex`), kept for the ideal it was
      built for and rebuilt when a check passes an ideal not equal to it;
    - on the index, one list per certifying pass of the strands that pass
      does not certify (`not_exact`): the lane pass over F_2 for chars 0
      and 2, and the unit pivots over Z for every odd p, each run over
      every strand by the first check that needs it.  Char 2 reads its
      list as the verdict; char 0 ranks over Q, and an odd p over F_p, only
      the strands in theirs.
    Nothing is kept anywhere else: the results die with the complex.

    By the contract, the rows of a column lie in the level below and their
    degrees divide the column's, so a strand holding a column holds all its
    rows, and each strand is a subcomplex: its matrices are whole columns of
    the differentials, and they compose to d*d with every variable set to
    1, which vanishes over the field.  So the homology h_i = n_i - r_i -
    r_{i+1} of the strand is >= 0 in every degree i >= 1, where n_i is the
    size of its level i and r_i the rank of its d_i, and all of it vanishes
    iff the sum does: n - 2R + r_1 = 0, with n the number of strand cells
    above level 0 and R the number of pivots.  The cokernel test reads
    n_0 - r_1.  The rows of a column of d_i all lie in level i - 1, so
    every pivot lead falls in the level whose d_i it ranks, and the rank of
    d_i on the strand is the number of leads in level i - 1.

    Every elimination takes the columns top level first, and leaves out a
    column whose own cell is already the lead of a pivot one level up: it
    would reduce to zero (clearing, as in persistent homology: Chen and
    Kerber, "Persistent homology computation with a twist", EuroCG 2011),
    and the verdict cannot change:
    - a lead j is the top row of a pivot of d_{i+1} on a strand that the
      strand being ranked contains; the pivot is a combination z of columns
      of that strand with top row j, whose rows lie in the strand by the
      contract;
    - d_i z = 0 over the field, by the d*d gate, so column j of d_i lies in
      the span of strand columns of level i with a lower index;
    - by induction on the index, every column left out lies in the span of
      the columns kept, so every level's rank, the number of pivots and the
      summed test are unchanged.
    In the unit pass a column left out can only lose unit pivots, so u_i
    <= r_i still holds and its certificate stays sound; a strand it no
    longer certifies is ranked over F_p.

    Over F_2 the lane pass (`_StrandIndex.lane_pass`) decides every strand
    at once: each quantity in its one elimination over the cells is an int
    whose bit s, lane s, stands for strands[s].  A cell's lanes, the strands
    that contain it, are all lanes less one OR per variable of threshold
    masks over the strand degrees, one mask per exponent that a cell has,
    built as in `_threshold_masks`; a column of d_i is one int with the bits
    of its odd rows.  The cells are taken highest first, so in each lane the
    pass is the column reduction of that strand (`_lane_level`): a column
    enters in its cell's lanes less those where the cell is a lead
    (clearing), becomes the pivot at its top row where that row has none,
    and is reduced only in the lanes left, against the pivots of that row,
    which are groups (lanes, column) disjoint in their lanes
    (`_reduce_lanes`): 8 of 2,649 columns over example-4-1 under the three
    methods.  Clearing keeps pivot columns and leads apart, so the R pivot
    columns and the R - r_1 leads above level 0 are distinct cells, and the
    summed test holds iff every strand cell above level 0 is one of them:
    iff no column reduced to zero in that lane.  The cokernel test holds iff
    level 0 leaves no cell that is not a lead where x^alpha lies in I, and
    one where it does not.  Only the lanes of one level and the leads of the
    level below are held at a time.

    The unit, Q and F_p passes rank one strand at a time, with one pivot
    dict of their kernel (see `linalg`), on {global row: coeff} columns
    over the cells of all levels numbered consecutively (cell k of level i
    is off[i] + k), and find a strand's cells by one AND per variable of
    threshold masks over the cells; the first such pass builds both.
    Strands come in the lex order of their degrees, where a strand often
    contains the one before it or one a few places back, so a pass keeps a
    stack of (cells, size of the dict before their columns went in) for
    nested strands, innermost last.  Before strand P it pops every entry
    whose cells P does not contain and cuts the dict back with `popitem()`
    to the recorded size: the kernels only ever add keys, so that undoes
    exactly the columns the entry added.  The columns P adds then reach the
    kernel top level first (`_uncleared`), each whose own cell is already a
    key left out, and the summed test reads the dict.

    Over Q, the strands are certified over F_2 first.  With d*d = 0 over
    the integers, each strand is an integer subcomplex.  Write q_i and t_i
    for the ranks of its d_i over Q and over F_2.  A minor that is odd is
    nonzero, so t_i <= q_i; and im d_{i+1} lies in ker d_i, so q_i + q_{i+1}
    <= n_i.  When the F_2 ranks pass the strand test, n_i = t_i + t_{i+1}
    for every i >= 1, so (q_i - t_i) + (q_{i+1} - t_{i+1}) <= 0 with both
    terms >= 0: every q_i = t_i, and the Q ranks give the same verdict, the
    cokernel test included.  Only a strand that is not exact over F_2, as
    one with 2-torsion, is ranked again over Q.  The lane pass decides
    every strand, not only those up to the first that is not exact, so that
    its list serves both characteristics.

    At an odd p, the strands are certified by unit pivots over Z first
    (`linalg.pivots_unit`), the unit-pivot cancellation of algebraic
    discrete Morse theory.  Write u_i for the number of unit pivots of d_i
    on a strand and r_i for its rank over F_p.  The pivot rows are integer
    combinations of the columns with distinct leads of entry 1, so they
    stay independent mod p: u_i <= r_i.  The check has already found
    d*d = 0 mod p, so the strand is a subcomplex over F_p and r_i + r_{i+1}
    <= n_i.  When the unit pivots pass the summed test, n_i = u_i + u_{i+1}
    for every i >= 1, so (r_i - u_i) + (r_{i+1} - u_{i+1}) <= 0 with both
    terms >= 0: every r_i = u_i, and the unit pivots give the verdict over
    F_p, the cokernel test included.  Only d*d mod p is needed, not over
    the integers, and nothing in the pass depends on p, so one pass serves
    every odd p; each p ranks over F_p only the strands it does not
    certify, along that list as the Q pass does.  It is not run in lanes:
    a reduced column over Z can differ from lane to lane in its
    coefficients, where over F_2 it is one int shared by its group.
    """
    linalg.check_characteristic(char)
    if I.variables != C.variables:
        raise ValueError(
            f"the complex is over the variables {C.variables}, the ideal over"
            f" {I.variables}"
        )
    if not C.cells:
        raise ValueError("the complex is empty: it has no levels, not even F_0")
    if not C._homogeneous:
        return False
    g = C._d_squared_gcd  # d*d vanishes mod char iff char divides it
    if g % char if char else g:
        return False
    index = C._index
    if index is None or index.ideal != I:
        index = _StrandIndex(I, C)
        object.__setattr__(C, "_index", index)
    # the certifying pass: the lane pass over F_2 (2) for chars 0 and 2,
    # unit pivots over Z (None) for every odd p
    certifier = 2 if char in (0, 2) else None
    uncertified = index.not_exact.get(certifier)
    if uncertified is None:
        if certifier == 2:
            uncertified = index.lane_pass()
        else:
            every = range(len(index.strands))
            uncertified = [
                s for s, exact in enumerate(index.verdicts(certifier, every)) if not exact
            ]
        index.not_exact[certifier] = uncertified
    if char == certifier:
        return not uncertified
    return all(index.verdicts(char, uncertified))


def _strand_degrees(
    I: MonomialIdeal, cells: list[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], bool]]:
    """The degrees alpha whose strands check_exactness tests, ascending,
    each with whether x^alpha lies in I: the lcm lattice L of I, and when
    some cell degree lies outside L, the lcm closure of L and those degrees.

    A point of L lies in I with no generator scanned: a nonzero point is
    the lcm of a nonempty set of generators, each of which divides it, and
    the point 0, the lcm of the empty face, lies in I iff a generator is 1.
    Only a point of the closure outside L is tested against the generators.

    L holds the lcm of the empty face, so adding a degree d to an
    lcm-closed set S gives the lcm-closed set S + {lcm(s, d) : s in S}.  The
    outside degrees are added one at a time, and `ValueError` is raised as
    soon as the closure holds more than 2^r points besides those of L."""
    tc = TaylorComplex(I)
    unit = 0 in tc.gen_degrees
    points = {tc.decode(d): d != 0 or unit for d in tc.lattice()}
    outside = {*cells}.difference(points)
    if outside:
        cap, exps = len(points) + (1 << I.r), [g.exponents for g in I.generators]
        for d in sorted(outside):
            if d in points:
                continue
            for s in list(points):
                alpha = tuple(map(max, s, d))
                if alpha not in points:
                    points[alpha] = any(all(map(le, g, alpha)) for g in exps)
            if len(points) > cap:
                raise ValueError(
                    f"the cell degrees outside the lcm lattice add more than"
                    f" 2^{I.r} degrees to its lcm closure"
                )
    return sorted(points.items())


class _StrandIndex:
    """The strand index of a complex for one ideal (see check_exactness):
    the strand degrees and, per variable, their distinct exponents.
    `not_exact` maps each certifying pass run so far (2: the lane pass over
    F_2, None: unit pivots over Z) to the strands it leaves uncertified.
    Only the unit, Q and F_p passes need the cell side (`_cells`), which
    the first of them builds.  It holds the complex's degrees and
    differentials but not the complex, which holds it."""

    def __init__(self, I: MonomialIdeal, C: ChainComplex) -> None:
        self.ideal = I
        self.strands = _strand_degrees(I, [exps for level in C.degrees for exps in level])
        self.values = [sorted(set(column)) for column in zip(*(a for a, _ in self.strands))]
        self.degrees = C.degrees
        self.diffs = C.diffs
        self.not_exact: dict[int | None, list[int]] = {}
        self.columns: list[dict[int, int]] | None = None  # see _cells

    def lane_pass(self) -> list[int]:
        """The strands not exact over F_2, ascending (the lane pass, see
        check_exactness)."""
        strands, values, degrees = self.strands, self.values, self.degrees
        everything = (1 << len(strands)) - 1
        # lacking[k][e]: the lanes whose k-th exponent is below e, for each
        # k-th exponent e of a cell, read from the ranks of the strands'
        # k-th exponents with one translate, as in `_threshold_masks`
        alphas = [alpha for alpha, _ in strands]
        cells = [exps for level in degrees for exps in level]
        lacking: list[dict[int, int]] = []
        for k, vals in enumerate(values):
            n = len(vals)
            column = map(itemgetter(k), reversed(alphas))
            ranks = "".join(map(chr, map(bisect_left, repeat(vals), column)))
            lack = {}
            for e in {*map(itemgetter(k), cells)}:
                j = bisect_left(vals, e)
                lack[e] = int(ranks.translate("1" * j + "0" * (n + 1 - j)), 2) if j else 0
            lacking.append(lack)
        del alphas, cells

        def lanes_of(level: tuple[tuple[int, ...], ...]) -> list[int]:
            # the lanes lacking none of each cell's exponents, computed once
            # per degree of the level
            lanes = {
                exps: everything & ~reduce(or_, filter(None, map(getitem, lacking, exps)), 0)
                for exps in {*level}
            }
            return list(map(lanes.__getitem__, level))

        top = len(degrees) - 1
        leads = [0] * len(degrees[top])  # no d_{top+1}, so no lead up there
        zero = 0
        for i in range(top, 0, -1):
            columns = [0] * len(degrees[i])
            d = self.diffs[i - 1]
            for col, row, (coeff, _) in zip(_entry_cells(d, count()), d.rows, d.entries):
                if coeff & 1:
                    columns[col] |= 1 << row
            leads, zeroed = _lane_level(columns, lanes_of(degrees[i]), leads, len(degrees[i - 1]))
            zero |= zeroed
        # level 0 leaves one cell uncovered where x^alpha lies outside I, and
        # none where it lies in I
        once = twice = 0
        for lanes, led in zip(lanes_of(degrees[0]), leads):
            uncovered = lanes & ~led
            twice |= once & uncovered
            once |= uncovered
        outside_ideal = sum(1 << s for s, (_, in_ideal) in enumerate(strands) if not in_ideal)
        return indices_of(zero | twice | once ^ outside_ideal)

    def _cells(self) -> None:
        """The cell side of the index: the cells of all levels numbered
        consecutively, one threshold mask per variable over them, and the
        column of every cell as {global row: coeff}."""
        degrees = self.degrees
        self.rank_of = [{v: j for j, v in enumerate(vals)} for vals in self.values]
        cells = [exps for level in degrees for exps in level]
        off = [0]
        for level in degrees:
            off.append(off[-1] + len(level))
        self.off = off
        self.masks = _threshold_masks(cells, self.values)
        self.everything = (1 << len(cells)) - 1
        self.level0 = (1 << off[1]) - 1  # the cells of level 0
        columns: list[dict[int, int]] = [{} for _ in cells]
        for i, d in zip(range(1, len(off) - 1), self.diffs):
            base = off[i - 1]  # the rows of d_i are the cells of level i - 1
            for g, row, (coeff, _) in zip(_entry_cells(d, count(off[i])), d.rows, d.entries):
                columns[g][base + row] = coeff
        self.columns = columns

    def verdicts(
        self, char: int | None, positions: range | list[int]
    ) -> Iterator[bool]:
        """Whether each strand at `positions` (ascending indices into
        `strands`) is exact over the field of characteristic char, for char
        0 or an odd p, and for char None whether its unit pivots over Z pass
        the strand test.

        One pivot dict serves the pass.  `stack` holds, for the nested
        strands the dict is an echelon form of, innermost last, each one's
        cells and the size of the dict before its columns went in.  A strand
        first backs out of every strand it does not contain, popping the
        keys they added, then adds the columns of its cells that the strand
        on top lacks, top level first, leaving out each whose own cell is
        already a key (clearing, see check_exactness)."""
        if not positions:
            return  # and builds no columns
        if self.columns is None:
            self._cells()
        masks, rank_of, level0 = self.masks, self.rank_of, self.level0
        above = self.everything ^ level0
        rows = self.columns
        if char is None:
            kernel = linalg.pivots_unit
        elif char:
            kernel = lambda rows, pivots: linalg.pivots_mod(rows, char, pivots)
        else:
            kernel = linalg.pivots_rational
        keys0 = range(self.off[1])  # the keys of level-0 rows
        pivots: dict = {}
        pop = pivots.popitem
        stack = [(0, 0)]  # (cells, size of pivots before them); 0 is in all
        for s in positions:
            alpha, in_ideal = self.strands[s]
            present = self.everything
            for k_masks, rank, a in zip(masks, rank_of, alpha):
                present &= k_masks[rank[a]]
            while stack[-1][0] & ~present:
                size = stack.pop()[1]
                while len(pivots) > size:
                    pop()
            new = present & above & ~stack[-1][0]
            stack.append((present, len(pivots)))
            if new:
                kernel(_uncleared(rows, new, pivots), pivots)
            r1 = sum(map(pivots.__contains__, keys0))
            yield (present & above).bit_count() - 2 * len(pivots) + r1 == 0 and (
                (present & level0).bit_count() - r1 == (0 if in_ideal else 1)
            )


def _lane_level(
    columns: list[int], lanes: list[int], leads: list[int], n_rows: int
) -> tuple[list[int], int]:
    """One level i of the lane pass (see check_exactness), given the
    columns of d_i, each an int with bit t set when its entry at row t of
    level i - 1 is odd, the lanes of each column's cell, and the lanes
    where each cell is already the lead of a pivot of d_{i+1}.  Returns,
    for each row, the lanes where it is the lead of a pivot of d_i, and the
    lanes where a column reduced to zero.  It sets each item of `lanes` and
    `leads` to 0 once read, so that no lane set outlives its use."""
    pivots = [0] * n_rows
    groups: dict[int, list[tuple[int, int]]] = {}
    zero = 0
    for k in range(len(columns) - 1, -1, -1):
        # let each lane set go once read, and share the int where nothing
        # is taken from it
        lane, led = lanes[k], leads[k]
        lanes[k] = leads[k] = 0
        entering = lane & ~led if led else lane
        if not entering:
            continue
        x = columns[k]
        if not x:
            zero |= entering
            continue
        top = x.bit_length() - 1
        held = pivots[top]
        new = entering & ~held if held else entering
        if new:
            pivots[top] = held | new if held else new
            groups.setdefault(top, []).append((new, x))
        if entering & held:
            zero |= _reduce_lanes(entering & held, x, groups, pivots)
    return pivots, zero


def _reduce_lanes(
    lanes: int, x: int, groups: dict[int, list[tuple[int, int]]], pivots: list[int]
) -> int:
    """Reduce the column x in `lanes`, where its top row already has a
    pivot, and return the lanes where it reduced to zero.  In the lanes it
    shares with each pivot group of its top row it is XORed with that
    group's column, and the result vanishes there, becomes the pivot at its
    new top row where that row has none, or goes on where it has, adding
    to `groups` and `pivots` as `_lane_level` does."""
    zero = 0
    work = [(lanes, x)]
    while work:
        lanes, x = work.pop()
        for held, y in groups[x.bit_length() - 1]:
            part = lanes & held
            if not part:
                continue
            lanes ^= part
            z = x ^ y
            if not z:
                zero |= part
            else:
                top = z.bit_length() - 1
                had = pivots[top]
                if part & ~had:
                    pivots[top] = had | part
                    groups.setdefault(top, []).append((part & ~had, z))
                if part & had:
                    work.append((part & had, z))
            if not lanes:
                break
    return zero


def _uncleared(rows: list, cells: int, pivots: dict) -> Iterator:
    """The columns rows[g] of the cells g in the mask `cells`, highest cell
    first, so top level first, leaving out each column whose cell g is a key
    of `pivots` when its turn comes: clearing, see check_exactness.  It
    reads `pivots` lazily, so it sees the keys that the columns it gave
    before added."""
    while cells:
        g = cells.bit_length() - 1
        cells ^= 1 << g
        if g not in pivots:
            yield rows[g]


def check_minimal(C: ChainComplex, char: int = 0) -> bool:
    """No differential entry is a unit monomial with a coefficient nonzero
    over the field: char 0 counts every nonzero unit entry, char p only
    those not divisible by p.  False for a complex that breaks the contract
    of `ChainComplex`, whose monomials then need not follow from the cell
    degrees."""
    linalg.check_characteristic(char)
    if not C._homogeneous:
        return False
    for d in C.diffs:
        for coeff, exps in d.entries:
            if all(e == 0 for e in exps) and (coeff % char if char else coeff):
                return False
    return True
