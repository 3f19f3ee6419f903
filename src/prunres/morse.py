"""Chain complexes on critical cells, the gradient-flow differential, and the
d*d = 0 / exactness / minimality checks.

Homological degree i >= 1 is spanned by the critical (i-1)-dimensional faces;
degree 0 by the empty face.  Differential entries are signed monomials stored
sparsely as (row, col) -> (coefficient, degree-ratio exponents).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter, le, mul, sub
from types import MappingProxyType
from typing import Iterator, Mapping

from . import linalg
from .monomials import Monomial, MonomialIdeal, monomial_str
from .pruning import Matching, _flow_graph, _topological_order, _verify_matching
from .taylor import TaylorComplex, facets, indices_of


class InvalidMatchingError(ValueError):
    """The matching failed validation (not vertex-disjoint, inhomogeneous or cyclic)."""


Entry = tuple[int, tuple[int, ...]]  # coefficient, exponent vector of the monomial


@dataclass(frozen=True)
class ChainComplex:
    """Critical cells per homological degree plus (optionally) differentials.

    The differentials are read-only: each diffs[i] is a mapping proxy.  A
    plain dict handed in is copied once into one; a mapping proxy is kept as
    it is, so whoever builds one over a dict of their own must not change
    that dict afterwards.  The other fields are made tuples down to each
    degree vector, so a list handed in is copied and changing it later
    changes nothing; `tuple()` hands a tuple back as it is.  Since no field
    can change, the checks store what they learn about a complex on it,
    outside the fields (`_Facts`), and a later check of the same complex
    reuses it.
    """

    variables: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]
    degrees: tuple[tuple[tuple[int, ...], ...], ...]
    diffs: tuple[Mapping[tuple[int, int], Entry], ...] | None = None
    # diffs[i] is d_{i+1}: F_{i+1} -> F_i, so len(diffs) == len(cells) - 1

    def __post_init__(self) -> None:
        set_field = object.__setattr__
        set_field(self, "variables", tuple(self.variables))
        set_field(self, "cells", tuple(map(tuple, self.cells)))
        set_field(
            self, "degrees",
            tuple(tuple(map(tuple, level)) for level in self.degrees),
        )
        if self.diffs is not None:
            set_field(self, "diffs", tuple(map(_read_only, self.diffs)))

    @cached_property
    def _facts(self) -> _Facts:
        """What the checks have stored on this complex, made on first use."""
        return _Facts()

    @property
    def length(self) -> int:
        return len(self.cells)

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def diff(self, i: int) -> Mapping[tuple[int, int], Entry]:
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


def _read_only(d: Mapping[tuple[int, int], Entry]) -> MappingProxyType:
    """d as a mapping proxy: a proxy is kept, anything else copied once."""
    return d if type(d) is MappingProxyType else MappingProxyType(dict(d))


class _Facts:
    """What the checks have learned about one complex: the d*d verdicts and
    the strand index of the last ideal it was checked with.  It lives and
    dies with the complex, and is no field of it, so equality, repr and
    digests do not see it."""

    __slots__ = ("d_squared", "index")

    def __init__(self) -> None:
        # characteristic -> whether d*d vanishes; 0 is over the integers
        self.d_squared: dict[int, bool] = {}
        self.index: _StrandIndex | None = None


def _critical_complex(
    tc: TaylorComplex, matching: Matching, validate: bool
) -> ChainComplex:
    """critical_complex on a degree table built by the caller."""
    I = tc.ideal
    if validate:
        report = _verify_matching(tc, I.r, matching)
        if not report.all_ok:
            raise InvalidMatchingError(f"rejected matching: {report}")
    survivors = sorted(matching.survivors())
    buckets: dict[int, list[int]] = {}
    for mask in survivors:
        buckets.setdefault(mask.bit_count(), []).append(mask)
    top = max(buckets) if buckets else 0
    cells = tuple(tuple(buckets.get(i, ())) for i in range(top + 1))
    degrees = tuple(
        tuple(tc.exponents(m) for m in level) for level in cells
    )
    return ChainComplex(I.variables, cells, degrees)


def critical_complex(
    I: MonomialIdeal, matching: Matching, validate: bool = True
) -> ChainComplex:
    """Basis of the reduced complex: critical cells ordered canonically per degree."""
    return _critical_complex(TaylorComplex(I), matching, validate)


def morse_differential(
    I: MonomialIdeal, matching: Matching, validate: bool = True
) -> ChainComplex:
    """Reduced differential via gradient-flow accumulation.

    The coefficient of critical sigma' in d(sigma) sums the weights of all
    gradient paths from the facets of sigma down to sigma'.  A gradient path
    is a V-path: cell -> another facet of the cell's match partner, with
    weight -[partner : cell] * [partner : facet] (`pruning._flow_graph`).
    The flow graph is built once, on the matched-lower cells reachable from
    the roots, the matched-lower facets of critical cells (`_flow_roots`),
    and sorted topologically; a cycle raises InvalidMatchingError.

    A column of d_i never leaves the faces with i - 1 members: the facets of
    its cell sigma have i - 1, and so does every head of a flow arc out of a
    cell c with i - 1 members, its partner c + e_j less another member of
    c.  So its rows are read from one {mask: row} dict of level i - 1, and
    no entry can land in another level.  A column with no flow node among
    its facets, as every column of a complex whose critical cells are closed
    under faces (Batzies-Welker), is the simplicial boundary: its entries
    are read straight from `facets(sigma)`.  Any other column walks only
    the cells it reaches: an int of pending topological positions within
    the facet dimension, lowest set bit first, so each cell is popped after
    all its predecessors have pushed their coefficient sums into it.

    The monomial part of an entry is the exponent difference of its
    endpoints, and once the row's degree divides the column's, that
    difference depends only on the XOR of the two degree bitmasks: in the
    rank-compressed encoding of `taylor`, each variable's bits are a prefix
    of its segment, so the XOR of two nested prefixes is the run of bits
    from the shorter prefix's length to the longer's, and the two lengths
    fix both exponents.  The ratios are memoized by that XOR, after the
    divisibility test: the Lyubeznik complex of cycle:15 has 36,447 pairs of
    degrees but 31 XORs.
    """
    tc = TaylorComplex(I)
    deg, decode = tc.degree, tc.decode
    base = _critical_complex(tc, matching, validate)

    # lower[k]: the matched-lower faces with k members
    lower: dict[int, list[int]] = {}
    for sigma, j in matching.edges:
        if sigma >> j & 1:
            raise InvalidMatchingError(f"edge {(sigma, j)} is not a facet pair")
        lower.setdefault(sigma.bit_count(), []).append(sigma)
    roots = _flow_roots(base.cells, lower, matching.r)
    succ, weights = _flow_graph(matching.edges, roots, weighted=True)
    order = _topological_order(succ)
    if order is None:
        raise InvalidMatchingError("cycle detected in gradient flow")
    by_dim: dict[int, list[int]] = {}
    for cell in order:
        by_dim.setdefault(cell.bit_count(), []).append(cell)
    pos = {cell: p for cells in by_dim.values() for p, cell in enumerate(cells)}

    ratios: dict[int, tuple[int, ...]] = {}
    diffs: list[Mapping[tuple[int, int], Entry]] = []
    for i in range(1, base.length):
        entries: dict[tuple[int, int], Entry] = {}
        rows = dict(zip(base.cells[i - 1], count()))
        order_i = by_dim.get(i - 1)
        for col, sigma in enumerate(base.cells[i]):
            column = facets(sigma)
            pending = 0
            if order_i:
                for facet, _ in column:
                    p = pos.get(facet)
                    if p is not None:
                        pending |= 1 << p
            if pending:
                coeffs = dict(column)
                while pending:
                    low = pending & -pending
                    pending ^= low
                    c = order_i[low.bit_length() - 1]
                    val = coeffs.pop(c)
                    if not val:
                        continue
                    for nxt, w in zip(succ[c], weights[c]):
                        coeffs[nxt] = coeffs.get(nxt, 0) + val * w
                        p = pos.get(nxt)
                        if p is not None:
                            pending |= 1 << p
                column = coeffs.items()
            sig_deg = deg(sigma)
            for cell, val in column:
                row = rows.get(cell)
                if row is None or not val:
                    continue  # matched-upper cells absorb nothing
                cell_deg = deg(cell)
                if cell_deg & ~sig_deg:
                    raise InvalidMatchingError("non-divisible differential entry")
                ratio = ratios.get(sig_deg ^ cell_deg)
                if ratio is None:
                    ratio = tuple(map(sub, decode(sig_deg), decode(cell_deg)))
                    ratios[sig_deg ^ cell_deg] = ratio
                entries[(row, col)] = (val, ratio)
        diffs.append(MappingProxyType(entries))

    return ChainComplex(base.variables, base.cells, base.degrees, tuple(diffs))


def _flow_roots(
    cells: tuple[tuple[int, ...], ...], lower: dict[int, list[int]], r: int
) -> set[int]:
    """The matched-lower faces that are facets of critical cells, given the
    critical cells by level and the matched-lower faces by size, all faces
    of the simplex on r vertices.

    At each level the roots are found from whichever side lists fewer
    faces: the i facets of each critical cell with i members, or the r - k
    cofaces of each matched-lower face with k = i - 1 members.  A complex
    whose critical cells are closed under faces has no root at all, and
    then the second side is usually the smaller: on the Lyubeznik complex
    of cycle:15 it lists 28,671 cofaces against 176,128 facets."""
    roots: set[int] = set()
    full = (1 << r) - 1
    for i in range(1, len(cells)):
        crit, low = cells[i], lower.get(i - 1)
        if not low:
            continue
        if i * len(crit) <= (r - i + 1) * len(low):
            low_set = set(low)
            roots.update(
                f for sigma in crit for b in indices_of(sigma)
                if (f := sigma ^ 1 << b) in low_set
            )
        else:
            crit_set = set(crit)
            roots.update(
                s for s in low
                if any(s | 1 << b in crit_set for b in indices_of(full & ~s))
            )
    return roots


def check_d_squared(C: ChainComplex) -> bool:
    """Exact polynomial check that consecutive differentials compose to zero
    over the integers.

    The verdict is stored on the complex, whose differentials cannot
    change, so `check_exactness` of the same complex reads it at every
    characteristic instead of computing d*d again, and a second call
    returns it at once."""
    return _d_squared_holds(C, 0)


def _d_squared_holds(C: ChainComplex, char: int) -> bool:
    """d*d = 0 with coefficients read mod char, from the verdicts stored on
    C.  The verdict over the integers is computed first and kept: when it
    holds, it holds mod every p, so only a complex whose d*d is nonzero over
    the integers is checked again mod p (and that verdict kept too)."""
    known = C._facts.d_squared
    if 0 not in known:
        known[0] = _d_squared_vanishes(C, 0)
    if known[0] or not char:
        return known[0]
    if char not in known:
        known[char] = _d_squared_vanishes(C, char)
    return known[char]


def _d_squared_vanishes(C: ChainComplex, char: int) -> bool:
    """d_{i-1} d_i = 0 for every i, with coefficients read mod char (char 0:
    over the integers).

    A product term of d_{i-1} d_i is keyed by its row and the sum of its two
    exponent vectors.  Both go into one int, so each term costs one int
    addition and one dict update.  Once per call, every distinct exponent
    vector e is packed with a fixed field of `width` bits per variable:

        pack(e) = sum((e[k] + bound) << (low + k * width))

    where `bound` is the largest absolute exponent among all entries.  A
    field holds e[k] + bound in [0, 2 * bound], so in the sum of two packed
    vectors it holds e1[k] + e2[k] + 2 * bound in [0, 4 * bound].  `width`
    is the bit length of 4 * bound, so that stays below 2**width and never
    carries into the next field: the fields of a sum read back the exact
    exponent sums, and packing is injective on sums of two vectors.  The low
    `low` bits hold the row of a term of the lower differential, less the
    smallest row, added once per entry, so a product key is
    pack(e1) + (pack(e2) + row).  Two terms share a key exactly when they
    share row and exponent sum, for any entries, homogeneous or not.

    Raises ValueError naming (i, row, col) for an entry of d_i whose
    exponent vector does not have one exponent per variable.
    """
    if C.diffs is None:
        raise ValueError("differentials not set")
    diffs = C.diffs[: max(C.length - 1, 0)]
    n = len(C.variables)
    vectors = {exps for d in diffs for _, exps in d.values()}
    if {*map(len, vectors)} - {n}:
        for i, d in enumerate(diffs, 1):
            for (row, col), (_, exps) in d.items():
                if len(exps) != n:
                    raise ValueError(
                        f"entry (i, row, col) = {(i, row, col)} of d_{i} has "
                        f"{len(exps)} exponents for {n} variables"
                    )
    if len(diffs) < 2:
        return True
    bound = max(map(abs, chain.from_iterable(vectors)), default=0)
    width = (4 * bound).bit_length()
    # rows of the lower differentials, the first of each (row, col) key
    rmin = min(map(itemgetter(0), chain.from_iterable(diffs[:-1])), default=0)
    rmax = max(map(itemgetter(0), chain.from_iterable(diffs[:-1])), default=0)
    low = (rmax - rmin).bit_length()
    weights = [1 << (low + k * width) for k in range(n)]
    offset = bound * sum(weights)
    packed = {e: sum(map(mul, e, weights)) + offset for e in vectors}

    # by_col[col]: (row, coeff, pack, pack + row) for the entries of one
    # column; d_i reads the first three, and d_{i-1} the last two
    lo_by_col: dict[int, list[tuple[int, int, int, int]]] = {}
    for d in diffs:
        by_col: dict[int, list[tuple[int, int, int, int]]] = {}
        for (row, col), (coeff, exps) in d.items():
            p = packed[exps]
            by_col.setdefault(col, []).append((row, coeff, p, p + row - rmin))
        if lo_by_col:
            for terms in by_col.values():
                acc: dict[int, int] = {}
                get = acc.get
                for mid, c1, p1, _ in terms:
                    for _, c2, _, q2 in lo_by_col.get(mid, ()):
                        key = p1 + q2
                        acc[key] = get(key, 0) + c1 * c2
                if char:
                    if any(v % char for v in acc.values()):
                        return False
                elif any(acc.values()):
                    return False
        lo_by_col = by_col
    return True


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
    (`ValueError` otherwise), and its differentials must compose to zero
    over the field: the rank counts below read homology only for a
    complex, and without this check a corrupted top differential would
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

    Three results are stored on C (`_Facts`) and reused by later checks of
    the same complex, at any characteristic.  The differentials of C are
    read-only and its fields cannot change, so they cannot go stale:
    - the d*d verdict over the integers (`_d_squared_holds`, which
      `check_d_squared` fills too); only a complex whose verdict over the
      integers is False is checked again mod p;
    - the strand index (`_StrandIndex`), kept for the ideal it was built
      for and rebuilt when a check passes an ideal not equal to it;
    - for a complex whose columns are all sound, the list of strands that
      are not exact over F_2.  Char 2 reads it, and char 0 ranks over Q
      only the strands in it.
    Nothing is kept anywhere else: the results die with the complex.

    The index numbers the cells of all levels consecutively: cell k of
    level i is cell off[i] + k.  One threshold mask per variable over that
    numbering gives the cells of a strand with one big-int AND per
    variable.  Each column of d_i is read once per index, rows outside
    level i - 1 dropped: over F_2 as one int with the bits of its odd
    entries, packed from off[i - 1] and passed to the kernel with that
    shift, so that it is as wide as level i - 1 and not as all the levels
    below; and as a {global row: coeff} dict once a Q or odd-p kernel first
    runs.  A strand is then one elimination over all its columns.  The rows
    of a column of d_i all lie in level i - 1, so every pivot lead falls in
    the range of the level whose d_i it ranks, no elimination step mixes
    two levels, and the rank of d_i on the strand is the number of leads
    in level i - 1.

    A column is sound when every entry's row is a cell of the level below
    whose degree divides the column's.  A strand holding a sound column
    holds all its rows.  Soundness is read entry by entry, in the same pass
    over the entries that packs the F_2 columns.

    When every column is sound, each strand is a subcomplex: its matrices
    are whole columns of the differentials, and they compose to d*d with
    every variable set to 1, which vanishes over the field.  So the
    homology h_i = n_i - r_i - r_{i+1} of the strand is >= 0 in every degree
    i >= 1, where n_i is the size of its level i and r_i the rank of its
    d_i, and all of it vanishes iff the sum does: n - 2R + r_1 = 0, with n
    the number of strand cells above level 0 and R the number of pivots.
    The cokernel test reads n_0 - r_1.  An unsound column breaks the
    argument: a homology of -1 in one degree can cancel a +1 in the next.
    So a complex with an unsound column has those columns masked to the
    strand, counts its per-level ranks from the sorted leads, and tests the
    strand degree by degree.  The summed test is kept because it is
    cheaper: with the per-level test on every strand, the checks of the
    perfbench strands and corpus workloads ran 14% and 23% slower.

    Strands are visited in the lex order of their degrees, where one
    usually contains the strand before it: prev & ~present == 0, one AND.
    In a sound complex the columns of a strand are whole columns, so then
    its columns are the previous strand's plus those of the cells it adds,
    and the echelon form of the previous strand, extended by those new
    columns alone, is an echelon form of this one.  So one running pivot
    dict is carried along, the summed test reads it, and a strand that does
    not contain the one before starts a new dict.  On example-4-1 under the
    three methods this cuts the rows eliminated per characteristic from
    163,182 to 89,872.  A complex with an unsound column never chains: its
    columns are masked to each strand, so a column of the previous strand
    is not a column of this one.

    Over Q, a complex whose columns are all sound has its strands certified
    over F_2 first.  With d*d = 0 over the integers, each strand is then an
    integer subcomplex.  Write q_i and t_i for the ranks of its d_i over Q
    and over F_2.  A minor that is odd is nonzero, so t_i <= q_i; and
    im d_{i+1} lies in ker d_i, so q_i + q_{i+1} <= n_i.  When the F_2 ranks
    pass the strand test, n_i = t_i + t_{i+1} for every i >= 1, so
    (q_i - t_i) + (q_{i+1} - t_{i+1}) <= 0 with both terms >= 0: every
    q_i = t_i, and the Q ranks give the same verdict, the cokernel test
    included.  Only a strand that is not exact over F_2, as one with
    2-torsion, is ranked again over Q, from scratch.  The F_2 pass runs
    over every strand, past the first that is not exact, so that its list
    serves both characteristics.  A column that is not sound breaks the
    subcomplex argument, so then every strand is ranked over Q only.
    """
    linalg.check_characteristic(char)
    if I.variables != C.variables:
        raise ValueError(
            f"the complex is over the variables {C.variables}, the ideal over"
            f" {I.variables}"
        )
    if not C.cells:
        raise ValueError("the complex is empty: it has no levels, not even F_0")
    if not _d_squared_holds(C, char):
        return False
    facts = C._facts
    index = facts.index
    if index is None or index.ideal != I:
        index = facts.index = _StrandIndex(I, C)
    every = range(len(index.strands))
    if not index.sound or char not in (0, 2):
        return all(index.verdicts(char, every, chained=index.sound))
    if index.not_exact_over_f2 is None:
        index.not_exact_over_f2 = [
            s for s, exact in enumerate(index.verdicts(2, every, chained=True))
            if not exact
        ]
    if char == 2:
        return not index.not_exact_over_f2
    return all(index.verdicts(0, index.not_exact_over_f2, chained=False))


def _strand_degrees(
    I: MonomialIdeal, cells: list[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], bool]]:
    """The degrees alpha whose strands check_exactness tests, ascending,
    each with whether x^alpha lies in I: the lcm lattice L of I, and when
    some cell degree lies outside L, the lcm closure of L and those degrees.

    L holds the lcm of the empty face, so adding a degree d to an
    lcm-closed set S gives the lcm-closed set S + {lcm(s, d) : s in S}.  The
    outside degrees are added one at a time, and `ValueError` is raised as
    soon as the closure holds more than 2^r points besides those of L."""
    tc = TaylorComplex(I)
    gens = tc.gen_degrees
    points = {
        tc.decode(d): any(g & ~d == 0 for g in gens)
        for d in {tc.degree(mask) for mask in tc.faces()}
    }
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
    the strand degrees, one threshold mask per variable over the cells of
    all levels, the packed F_2 columns and their shifts, the unsound
    columns, the dict columns once an odd-p or Q kernel needs them, and the
    strands that are not exact over F_2 once a check has ranked them all.
    A column is marked unsound while its entries are packed: an entry whose
    row is no cell of the level below, or whose row's degree does not
    divide the column's, is enough.  It holds the complex's differentials
    but not the complex, which holds it."""

    def __init__(self, I: MonomialIdeal, C: ChainComplex) -> None:
        n = len(C.variables)
        cells = [exps for level in C.degrees for exps in level]
        if {*map(len, cells)} - {n}:
            i, k = next(
                (i, k) for i, level in enumerate(C.degrees)
                for k, exps in enumerate(level) if len(exps) != n
            )
            raise ValueError(
                f"cell {k} of level {i} has a degree of"
                f" {len(C.degrees[i][k])} exponents for {n} variables"
            )
        self.ideal = I
        self.strands = _strand_degrees(I, cells)
        values = [sorted(set(column)) for column in zip(*(a for a, _ in self.strands))]
        self.rank_of = [{v: j for j, v in enumerate(vals)} for vals in values]
        # cell k of level i is cell off[i] + k
        off = [0]
        for level in C.degrees:
            off.append(off[-1] + len(level))
        self.off = off
        self.masks = _threshold_masks(cells, values)
        self.everything = (1 << len(cells)) - 1
        # shift[g]: the first cell of the level below cell g.  A column is
        # packed from there, so it is as wide as that level, not as the
        # cells below it.
        shift = [0] * off[1]
        for i in range(1, C.length):
            shift += [off[i - 1]] * (off[i + 1] - off[i])
        self.shift = shift
        self.diffs = C.diffs

        # packed[g]: the rows of the odd entries of the column of cell g, as
        # a bitmask from shift[g]
        packed = [0] * len(cells)
        unsound: set[int] = set()
        for g, row, coeff in _column_entries(C.diffs, off):
            if row is None:
                unsound.add(g)
                continue
            if coeff & 1:
                packed[g] |= 1 << row
            if not all(map(le, cells[shift[g] + row], cells[g])):
                unsound.add(g)
        self.packed, self.unsound, self.sound = packed, unsound, not unsound
        self.columns: list[dict[int, int]] | None = None  # for the dict kernels
        # level_bits[i]: the cells of level i
        self.level_bits = [(1 << b) - (1 << a) for a, b in zip(off, off[1:])]
        self.not_exact_over_f2: list[int] | None = None

    def verdicts(
        self, char: int, positions: range | list[int], chained: bool
    ) -> Iterator[bool]:
        """Whether each strand at `positions` (ascending indices into
        `strands`) is exact over the field of characteristic char.  With
        `chained`, a strand that contains the one before it extends that
        strand's echelon form; otherwise each starts from an empty one."""
        masks, rank_of, off, level_bits = (
            self.masks, self.rank_of, self.off, self.level_bits
        )
        sound = self.sound
        above = self.everything ^ level_bits[0]
        # the pivot keys of level-0 rows; over F_2 a key is the bit length
        level0 = range(char == 2, off[1] + (char == 2))
        # running: the echelon form of the columns of the strand `prev`,
        # which the next strand extends when it contains that strand
        prev, running = 0, None
        for s in positions:
            alpha, in_ideal = self.strands[s]
            present = self.everything
            for k_masks, rank, a in zip(masks, rank_of, alpha):
                present &= k_masks[rank[a]]
            if not chained or prev & ~present:
                prev, running = 0, None
            new, prev = present & above & ~prev, present
            pivots = self._pivots(char, indices_of(new), present, running)
            if chained:
                running = pivots
            r1 = sum(map(pivots.__contains__, level0))
            if sound:
                exact = (present & above).bit_count() - 2 * len(pivots) + r1 == 0
            else:
                leads = sorted(pivots)
                cut = [bisect_left(leads, o + (char == 2)) for o in off]
                # ranks[i]: the rank of d_i on the strand, its leads in
                # level i - 1
                ranks = [0, *map(sub, cut[1:], cut)]
                exact = all(
                    (present & level_bits[i]).bit_count() == ranks[i] + ranks[i + 1]
                    for i in range(1, len(level_bits))
                )
            yield exact and (present & level_bits[0]).bit_count() - r1 == (
                0 if in_ideal else 1
            )

    def _pivots(self, char: int, strand: list[int], present: int, base):
        """The echelon form over char of the columns of the cells `strand`,
        unsound ones masked to `present`, extending `base` when given."""
        unsound, shift = self.unsound, self.shift
        if char == 2:
            rows = [self.packed[g] for g in strand]
            if unsound:
                rows = [
                    x & present >> shift[g] if g in unsound else x
                    for g, x in zip(strand, rows)
                ]
            return linalg.pivots_f2_packed(rows, [shift[g] for g in strand], base)
        columns = self.columns
        if columns is None:
            columns = self.columns = [{} for _ in shift]
            for g, row, coeff in _column_entries(self.diffs, self.off):
                if row is not None:
                    columns[g][shift[g] + row] = coeff
        rows = [
            {row: v for row, v in columns[g].items() if present >> row & 1}
            if g in unsound
            else columns[g]
            for g in strand
        ]
        if char:
            return linalg.pivots_mod(rows, char, base)
        return linalg.pivots_rational(rows, base)


def _column_entries(
    diffs: tuple[Mapping[tuple[int, int], Entry], ...], off: list[int]
) -> Iterator[tuple[int, int | None, int]]:
    """(g, row, coeff) for each entry of each d_i = diffs[i - 1] whose column
    is a cell of level i: g is that cell, numbered from `off`, and row the
    entry's row within level i - 1, or None when the row is not a cell of
    that level."""
    for i in range(1, len(off) - 1):
        n_rows, n_cols = off[i] - off[i - 1], off[i + 1] - off[i]
        for (row, col), (coeff, _) in diffs[i - 1].items():
            if 0 <= col < n_cols:
                yield off[i] + col, row if 0 <= row < n_rows else None, coeff


def check_minimal(C: ChainComplex, char: int = 0) -> bool:
    """No differential entry is a unit monomial with a coefficient nonzero
    over the field: char 0 counts every nonzero unit entry, char p only
    those not divisible by p."""
    linalg.check_characteristic(char)
    if C.diffs is None:
        raise ValueError("differentials not set")
    for d in C.diffs:
        for coeff, exps in d.values():
            if all(e == 0 for e in exps) and (coeff % char if char else coeff):
                return False
    return True
