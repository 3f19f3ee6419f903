"""Chain complexes on critical cells, the gradient-flow differential, and the
d*d = 0 / exactness / minimality checks.

Homological degree i >= 1 is spanned by the critical (i-1)-dimensional faces;
degree 0 by the empty face.  Differential entries are signed monomials stored
sparsely as (row, col) -> (coefficient, degree-ratio exponents).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, mul, sub

from . import linalg
from .monomials import Monomial, MonomialIdeal, monomial_str
from .pruning import Matching, _flow_graph, _topological_order, _verify_matching
from .taylor import TaylorComplex, facets, indices_of


class InvalidMatchingError(ValueError):
    """The matching failed validation (not vertex-disjoint, inhomogeneous or cyclic)."""


Entry = tuple[int, tuple[int, ...]]  # coefficient, exponent vector of the monomial


@dataclass(frozen=True)
class ChainComplex:
    """Critical cells per homological degree plus (optionally) differentials."""

    variables: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]
    degrees: tuple[tuple[tuple[int, ...], ...], ...]
    diffs: tuple[dict[tuple[int, int], Entry], ...] | None = None
    # diffs[i] is d_{i+1}: F_{i+1} -> F_i, so len(diffs) == len(cells) - 1

    @property
    def length(self) -> int:
        return len(self.cells)

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def diff(self, i: int) -> dict[tuple[int, int], Entry]:
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
    the facets of critical cells, and sorted topologically; a cycle raises
    InvalidMatchingError.  Each column then walks only the cells it reaches:
    an int of pending topological positions within the facet dimension,
    lowest set bit first, so each cell is popped after all its predecessors
    have pushed their coefficient sums into it.  The monomial part of every
    entry is forced by the degree difference of its endpoints, memoized per
    pair of degrees.
    """
    tc = TaylorComplex(I)
    deg, decode = tc.degree, tc.decode
    base = _critical_complex(tc, matching, validate)

    for sigma, j in matching.edges:
        if sigma >> j & 1:
            raise InvalidMatchingError(f"edge {(sigma, j)} is not a facet pair")
    critical_index: dict[int, tuple[int, int]] = {}
    for i, level in enumerate(base.cells):
        for col, mask in enumerate(level):
            critical_index[mask] = (i, col)

    roots = {f for level in base.cells[1:] for mask in level for f, _ in facets(mask)}
    succ = _flow_graph(matching.edges, roots)
    order = _topological_order(succ)
    if order is None:
        raise InvalidMatchingError("cycle detected in gradient flow")
    by_dim: dict[int, list[int]] = {}
    for cell in order:
        by_dim.setdefault(cell.bit_count(), []).append(cell)
    pos = {cell: p for cells in by_dim.values() for p, cell in enumerate(cells)}

    ratios: dict[int, dict[int, tuple[int, ...]]] = {}
    diffs: list[dict[tuple[int, int], Entry]] = []
    for i in range(1, base.length):
        entries: dict[tuple[int, int], Entry] = {}
        order_i = by_dim.get(i - 1, [])
        for col, sigma in enumerate(base.cells[i]):
            coeffs: dict[int, int] = {}
            pending = 0
            for facet, sign in facets(sigma):
                coeffs[facet] = sign
                p = pos.get(facet)
                if p is not None:
                    pending |= 1 << p
            while pending:
                low = pending & -pending
                pending ^= low
                c = order_i[low.bit_length() - 1]
                val = coeffs.pop(c)
                if not val:
                    continue
                for nxt, w in succ[c]:
                    coeffs[nxt] = coeffs.get(nxt, 0) + val * w
                    p = pos.get(nxt)
                    if p is not None:
                        pending |= 1 << p
            sig_deg = deg(sigma)
            memo = ratios.get(sig_deg)
            if memo is None:
                memo = ratios[sig_deg] = {}
            for cell, val in coeffs.items():
                if not val:
                    continue
                hit = critical_index.get(cell)
                if hit is None:
                    continue  # matched-upper cells absorb nothing
                h, row = hit
                if h != i - 1:
                    raise InvalidMatchingError("flow escaped its dimension")
                cell_deg = deg(cell)
                ratio = memo.get(cell_deg)
                if ratio is None:
                    if cell_deg & ~sig_deg:
                        raise InvalidMatchingError("non-divisible differential entry")
                    ratio = tuple(map(sub, decode(sig_deg), decode(cell_deg)))
                    memo[cell_deg] = ratio
                entries[(row, col)] = (val, ratio)
        diffs.append(entries)

    return ChainComplex(base.variables, base.cells, base.degrees, tuple(diffs))


def check_d_squared(C: ChainComplex) -> bool:
    """Exact polynomial check that consecutive differentials compose to zero."""
    return _d_squared_vanishes(C, 0)


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
    level: tuple[tuple[int, ...], ...], values: list[list[int]]
) -> list[list[int]]:
    """masks[k][j]: bitmask of the cells of one level whose k-th exponent is
    at most values[k][j], the j-th smallest k-th exponent of the lattice.  The
    masks are sized by the lattice, not by the exponents; a cell whose k-th
    exponent exceeds every lattice value is in none of them.  The cells of
    the level that divide x^alpha are then the AND over k of
    masks[k][rank of alpha[k]]."""
    masks = []
    for k, vals in enumerate(values):
        at = [0] * len(vals)
        for idx, exps in enumerate(level):
            j = bisect_left(vals, exps[k])
            if j < len(vals):
                at[j] |= 1 << idx
        acc = 0
        for j, bits in enumerate(at):
            acc |= bits
            at[j] = acc
        masks.append(at)
    return masks


def check_exactness(I: MonomialIdeal, C: ChainComplex, char: int = 0) -> bool:
    """True iff the complex is a resolution of the quotient over the given field.

    The differentials must compose to zero over the field: the rank counts
    below read homology only for a complex, and without this check a
    corrupted top differential would pass.  Strands are checked at every
    distinct lcm-lattice multidegree; between lattice degrees the strands do
    not change.  The alpha-strand is exact when its homology is zero in
    degrees >= 1 and its degree-0 cokernel is 0 or 1 according to whether
    x^alpha lies in the ideal.

    One strand index is built per call: per-variable threshold masks give
    the cells of each strand with a few big-int ANDs, and each differential
    is grouped by column once.  A column is sound when every entry's row is
    a cell of the level below whose degree divides the column's; a strand
    holding a sound column holds all its rows.

    Strands ranked over F_2 use columns packed once per call: column col of
    d_i becomes one int with bit row set for each odd entry, negative rows
    dropped.  A strand's matrix is then one AND per column with the bitmask
    of the level below in the strand, ranked by `linalg.rank_f2_packed`.
    The mask leaves a sound column unchanged and drops the rows of any
    other column that lie outside the strand, so one path serves every
    column.  Over Q and odd p the columns stay {row: coeff} dicts, and only
    columns that are not sound (a corrupted complex) are filtered row by
    row.

    Over Q, a complex whose columns are all sound has its strands certified
    over F_2 first.  With d*d = 0 over the integers, each strand is then an
    integer subcomplex: a sound column's rows all lie in the strand, so the
    strand's matrices of integer coefficients compose to d*d with every
    variable set to 1, which is zero.  Write q_i and t_i for the ranks
    of its d_i over Q and over F_2, and n_i for the size of its level i.  A
    minor that is odd is nonzero, so t_i <= q_i; and im d_{i+1} lies in
    ker d_i, so q_i + q_{i+1} <= n_i.  When the F_2 ranks pass the strand
    test, n_i = t_i + t_{i+1} for every i >= 1, so
    (q_i - t_i) + (q_{i+1} - t_{i+1}) <= 0 with both terms >= 0: every
    q_i = t_i, and the Q ranks give the same verdict, the cokernel test
    included.  Only a strand that the F_2 ranks do not pass, as one with
    2-torsion, is ranked again over Q.  A column that is not sound
    breaks the subcomplex argument, so then every strand is ranked over Q
    only.
    """
    linalg.check_characteristic(char)
    if not _d_squared_vanishes(C, char):
        return False
    tc = TaylorComplex(I)
    lattice = sorted(
        (tc.decode(d), d) for d in {tc.degree(mask) for mask in tc.faces()}
    )
    values = [sorted(set(column)) for column in zip(*(a for a, _ in lattice))]
    rank_of = [{v: j for j, v in enumerate(vals)} for vals in values]
    masks = [_threshold_masks(level, values) for level in C.degrees]

    # columns[i][col]: the entries of d_i in that column as {row: coeff}
    columns: list[list[dict[int, int]]] = [[]]
    for i in range(1, C.length):
        by_col: list[dict[int, int]] = [{} for _ in C.degrees[i]]
        for (row, col), (coeff, _) in C.diff(i).items():
            if 0 <= col < len(by_col):
                by_col[col][row] = coeff
        columns.append(by_col)
    # sound[i][col], needed only where a column is read as a dict
    sound: list[list[bool]] = [[]]
    if char != 2:
        for i in range(1, C.length):
            here, lower = C.degrees[i], C.degrees[i - 1]
            sound.append([
                all(
                    0 <= row < len(lower)
                    and all(e <= c for e, c in zip(lower[row], here[col]))
                    for row in entries
                )
                for col, entries in enumerate(columns[i])
            ])
    chars = (2, 0) if char == 0 and all(map(all, sound)) else (char,)
    # packed[i][col]: the odd entries of a column of d_i as a bitmask of rows
    packed: list[list[int]] = [[]]
    if 2 in chars:
        for by_col in columns[1:]:
            level = []
            for entries in by_col:
                x = 0
                for row, v in entries.items():
                    if v & 1 and row >= 0:
                        x |= 1 << row
                level.append(x)
            packed.append(level)

    sizes = [0] * (C.length + 1)
    ranks = [0] * (C.length + 1)
    for alpha, alpha_deg in lattice:
        at = [rank_of[k][a] for k, a in enumerate(alpha)]
        present = []
        for level, level_masks in zip(C.degrees, masks):
            bits = (1 << len(level)) - 1
            for k_masks, j in zip(level_masks, at):
                bits &= k_masks[j]
            present.append(bits)
        # strand[i]: the columns of d_i on this strand, for i >= 1
        strand = [[], *map(indices_of, present[1:])]
        for i in range(1, C.length):
            sizes[i] = len(strand[i])
        for ch in chars:
            for i in range(1, C.length):
                cols, below = strand[i], present[i - 1]
                if not cols:
                    ranks[i] = 0
                elif ch == 2:
                    level = packed[i]
                    ranks[i] = linalg.rank_f2_packed([level[c] & below for c in cols])
                else:
                    rows = []
                    for col in cols:
                        entries = columns[i][col]
                        if not sound[i][col]:
                            entries = {
                                row: v
                                for row, v in entries.items()
                                if row >= 0 and below >> row & 1
                            }
                        if entries:
                            rows.append(entries)
                    ranks[i] = linalg.rank(rows, ch)
            if not any(
                sizes[i] - ranks[i] - ranks[i + 1] for i in range(1, C.length)
            ):
                break
        else:
            return False
        in_ideal = any(g & ~alpha_deg == 0 for g in tc.gen_degrees)
        if present[0].bit_count() - ranks[1] != (0 if in_ideal else 1):
            return False
    return True


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
