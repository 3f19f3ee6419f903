"""One reference implementation per layer: the simplest correct version of
each, for the differential tests to compare the library with.

Every optimisation of the library ships with a test against the code it
replaces.  That copy is folded into this module, and deleted from the tests,
once the comparison with the reference here covers every input and
characteristic the copy was compared on; a layer keeps one reference, not
one copy per change.  Every mutant of the library that such a test catches
is recorded in `scripts/mutants.py`, which checks that it is still caught.

- `lowest_bits`: the members of a face by the walk by lowest set bit, for
  `taylor.indices_of`'s reads of wide ints.
- `TupleTaylorComplex`: the degree table as exponent tuples built by max
  over zip, and `face_lattice`, the lcm lattice by a walk over all 2^r
  faces.  `PolarizedTupleTable` gives it degree bitmasks in plain
  polarization, for the library code that reads `degree` and `decode`.
- The set-based sweeps on that table: `prune_taylor`, `prune_lyubeznik`,
  `prune_simplicial` and `partial_prune_intersection`, each step testing
  every surviving face through callbacks and listing its edges, handed to
  `Matching.from_edges`; and `lyubeznik_direct`, the Lyubeznik subcomplex
  read off its definition, face by face.
- `verify_matching`, by a topological sort of the modified Hasse diagram
  over all 2^r faces, and `morse_differential`, by the per-dimension flow
  walk over the whole topological order.
- `d_squared`: d_{i-1} d_i with each product term keyed by its row and
  exponent sum, so it needs no homogeneity contract.
- `exactness`: the strand loop, each strand's cells filtered and each of
  its differentials ranked on its own; its parts `strand_degrees`,
  `strand_level_ranks` and `strand_exact` give the ranks of each strand
  to the tests that compare them with the library's.
- `rank`: Gaussian elimination that rescans the remaining rows for the
  shortest one at every pivot, in integers over Q and mod p over F_p.
- `tor_betti` and `hochster_betti`: the Betti oracles that rank each degree
  piece at the asked characteristic alone, and test every subset of
  supp(alpha) for a face.
- `check_pruned_splitting`: the splitting formula on five pruned tables,
  those of I, J, K, the J cap K grid and its minimalization, with J and K
  pruned on their own; I's matching comes from the set-based sweep here.

The strand loop and the oracles rank through `linalg.rank`, whose kernels
are compared with `rank` in `test_linalg.py`.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add, le, sub
from typing import Callable

from prunres import linalg
from prunres.betti import BettiTable, SquarefreeRequiredError, betti_of_complex
from prunres.monomials import MonomialIdeal, minimal_generators
from prunres.morse import ChainComplex, Entry, InvalidMatchingError, critical_complex
from prunres.pruning import Matching, MatchingReport, intersection_generators
from prunres.splitting import (
    SplitReport,
    _pruned_table,
    _refuse_wide_grid,
    classify_regions,
    split_parts,
)
from prunres.taylor import indices_of

# Tables over more generators are filled lazily, face by face.
PRECOMPUTE_CAP = 20


# --- the Taylor complex ------------------------------------------------------


def lowest_bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first, one at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TupleTaylorComplex:
    """Multidegree cache over all 2^r faces of the full simplex: the lcm of
    a face is the max over zip of its members' exponent tuples.

    Degrees are stored fully precomputed for r <= PRECOMPUTE_CAP and memoized
    lazily above that.  Read-only after construction.
    """

    def __init__(self, I: MonomialIdeal):
        self.ideal = I
        self.r = I.r
        self._gen_exps = [g.exponents for g in I.generators]
        self._nvars = I.nvars
        if I.r <= PRECOMPUTE_CAP:
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
            degs[mask] = tuple(map(max, degs[low], self._gen_exps[i]))
        return degs

    def exponents(self, mask: int) -> tuple[int, ...]:
        if self._degrees is not None:
            return self._degrees[mask]
        hit = self._cache.get(mask)
        if hit is None:
            low = mask & (mask - 1)
            i = (mask & -mask).bit_length() - 1
            prev = self.exponents(low)
            hit = tuple(map(max, prev, self._gen_exps[i]))
            self._cache[mask] = hit
        return hit

    def faces(self) -> range:
        return range(1 << self.r)


# the table of an ideal, shared by the reference calls on it in a row
_table = lru_cache(maxsize=4)(TupleTaylorComplex)


def face_lattice(I: MonomialIdeal) -> set[tuple[int, ...]]:
    """The lcm lattice of I: the exponents of every face, the empty one's
    among them."""
    tc = _table(I)
    return {tc.exponents(mask) for mask in tc.faces()}


class PolarizedTupleTable(TupleTaylorComplex):
    """The tuple table with degree bitmasks in plain polarization, one bit
    per unit of exponent read off its tuples: an encoding independent of
    the rank-compressed one, for the code that reads `degree` and `decode`."""

    def __init__(self, I):
        super().__init__(I)
        widths = [
            max((g[k] for g in self._gen_exps), default=0) for k in range(I.nvars)
        ]
        self._offsets = list(accumulate([0] + widths[:-1]))
        self._tuples = {}
        self.gen_degrees = [self.degree(1 << k) for k in range(I.r)]

    def degree(self, mask):
        exps = self.exponents(mask)
        deg = sum(((1 << e) - 1) << off for e, off in zip(exps, self._offsets))
        self._tuples[deg] = exps
        return deg

    def decode(self, deg):
        return self._tuples[deg]

    def face_degrees(self):
        return [self.degree(mask) for mask in self.faces()]


def facets(mask: int) -> list[tuple[int, int]]:
    """(facet, sign) pairs for the simplicial boundary of a face."""
    out = []
    for pos, i in enumerate(indices_of(mask)):
        out.append((mask & ~(1 << i), -1 if pos % 2 else 1))
    return out


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


# --- the pruning sweeps ------------------------------------------------------


def _sweep(
    tc: TupleTaylorComplex,
    alive: set[int],
    eligible: Callable[[int, int], bool] | None,
    condition: Callable[[int, int], bool],
) -> list[tuple[int, int]]:
    """One full r-step sweep on the surviving faces; mutates `alive`.

    Within step j a lower end has bit j clear and an upper end has it set,
    so pruning one edge never removes another candidate's end: the step's
    edges do not depend on the scan order.
    """
    pruned: list[tuple[int, int]] = []
    for j in range(tc.r):
        bit = 1 << j
        lower = []
        for sigma in list(alive):
            if sigma & bit:
                continue
            tau = sigma | bit
            if tau not in alive:
                continue
            if eligible is not None and not eligible(sigma, j):
                continue
            if condition(sigma, tau):
                alive.discard(sigma)
                alive.discard(tau)
                lower.append(sigma)
        pruned += [(sigma, j) for sigma in lower]
    return pruned


def _same_degree(tc: TupleTaylorComplex) -> Callable[[int, int], bool]:
    """The plain pruning condition: both faces have the same lcm degree."""
    return lambda s, t: tc.exponents(s) == tc.exponents(t)


def _prune_with(
    tc: TupleTaylorComplex, eligible: Callable[[int, int], bool] | None
) -> Matching:
    """One pruning sweep; `eligible(sigma, j)` filters candidate edges before
    the homogeneity test, and None gives the plain pruned matching."""
    edges = _sweep(tc, set(tc.faces()), eligible, _same_degree(tc))
    return Matching.from_edges(tc.r, edges, (len(edges),))


def prune_taylor(I: MonomialIdeal) -> Matching:
    """The pruned matching: step j prunes every surviving homogeneous edge
    sigma -> sigma+e_j."""
    return _prune_with(_table(I), None)


def prune_lyubeznik(I: MonomialIdeal) -> Matching:
    """Pruning whose survivors form the Lyubeznik subcomplex: the edge
    sigma -> sigma+e_j is eligible at step j when generator j divides the
    lcm of the members of sigma larger than j."""
    tc = _table(I)
    gens = [g.exponents for g in I.generators]

    def eligible(sigma: int, j: int) -> bool:
        return _divides(gens[j], tc.exponents(sigma & ~((1 << (j + 1)) - 1)))

    return _prune_with(tc, eligible)


def lyubeznik_direct(I: MonomialIdeal) -> frozenset[int]:
    """The Lyubeznik subcomplex from its definition, without a sweep: a face
    {i_0 < ... < i_s} belongs iff for every tail {i_t, ..., i_s} and every
    j < i_t, generator j does not divide the tail's lcm."""
    tc = _table(I)
    gens = [g.exponents for g in I.generators]
    return frozenset(
        mask
        for mask in tc.faces()
        if not any(
            _divides(gens[j], tc.exponents(mask >> i << i))
            for i in indices_of(mask)
            for j in range(i)
        )
    )


def prune_simplicial(I: MonomialIdeal) -> Matching:
    """Pruning filtered so the surviving faces stay closed under subsets.

    Each sweep first computes the plain pruning of the current subcomplex,
    then keeps only those edges (sigma, j) whose live cofaces sigma + e_k,
    k not in sigma and k != j, are all gone by the end of step j + 1,
    counting cells removed by kept edges of this sweep.  The filter is
    shrunk to a self-consistent fixpoint before the sweep is applied, and
    whole sweeps repeat until one prunes nothing.  The docstring of
    `prunres.pruning.prune_simplicial` shows that this coface rule keeps
    the edges of the rule it stands for, with every live strict superface
    of sigma in place of its cofaces.
    """
    tc = _table(I)
    r, full = I.r, (1 << I.r) - 1
    alive = set(tc.faces())
    edges: list[tuple[int, int]] = []
    sweeps: list[int] = []
    for sweep_no in range(1, (1 << r) + 2):
        if sweep_no == (1 << r) + 1:
            raise RuntimeError("simplicial pruning failed to reach a fixpoint")
        kept = _sweep(tc, set(alive), None, _same_degree(tc))
        while True:
            killed_at: dict[int, int] = {}  # cell -> step when it dies this sweep
            for sigma, j in kept:
                killed_at[sigma] = killed_at[sigma | (1 << j)] = j + 1
            ok = [
                (sigma, j)
                for sigma, j in kept
                if all(
                    killed_at.get(up, r + 1) <= j + 1
                    for k in indices_of(full ^ sigma ^ 1 << j)
                    if (up := sigma | 1 << k) in alive
                )
            ]
            if len(ok) == len(kept):
                break
            kept = ok
        if not kept:
            break
        sweeps.append(len(kept))
        for sigma, j in kept:
            alive.discard(sigma)
            alive.discard(sigma | (1 << j))
        edges += kept
    return Matching.from_edges(r, edges, sweeps)


def partial_prune_intersection(J: MonomialIdeal, K: MonomialIdeal) -> Matching:
    """Partial pruning of the pairwise-lcm Taylor complex of the intersection:
    grid vertex q*s+i stands for lcm(m_i, k_q), and the edge sigma ->
    sigma+e_j, j = q*s+i, is pruned when the original generators involved
    in sigma already include both i and the K-side generator q."""
    s, t = J.r, K.r
    if s == 0 or t == 0:
        raise ValueError("both parts of the splitting need at least one generator")
    grid = intersection_generators(J, K)
    tc = _table(grid)
    pair_masks = [(1 << i) | (1 << (s + q)) for q in range(t) for i in range(s)]

    def involved(mask: int) -> int:
        out = 0
        for v in indices_of(mask):
            out |= pair_masks[v]
        return out

    edges = _sweep(
        tc,
        set(tc.faces()),
        lambda sigma, j: involved(sigma) & pair_masks[j] == pair_masks[j],
        lambda sigma, tau: True,
    )
    return Matching.from_edges(grid.r, edges, (len(edges),))


# --- the Morse complex -------------------------------------------------------


def verify_matching(I: MonomialIdeal, matching: Matching) -> MatchingReport:
    """Whether the edges are vertex-disjoint, homogeneous and acyclic: the
    last by a topological sort of the modified Hasse diagram over all 2^r
    faces, every matched edge reversed."""
    r = I.r
    seen: set[int] = set()
    is_matching = True
    for sigma, j in matching.edges:
        tau = sigma | (1 << j)
        if sigma & (1 << j) or sigma in seen or tau in seen:
            is_matching = False
            break
        seen.add(sigma)
        seen.add(tau)

    tc = _table(I)
    is_homogeneous = all(
        tc.exponents(sigma) == tc.exponents(sigma | (1 << j))
        for sigma, j in matching.edges
    )

    reversed_up = {sigma: sigma | (1 << j) for sigma, j in matching.edges}
    n = 1 << r
    indeg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for mask in range(1, n):
        for i in indices_of(mask):
            sub = mask & ~(1 << i)
            if reversed_up.get(sub) == mask:
                adj[sub].append(mask)
                indeg[mask] += 1
            else:
                adj[mask].append(sub)
                indeg[sub] += 1
    queue = [m for m in range(n) if indeg[m] == 0]
    seen_count = 0
    while queue:
        node = queue.pop()
        seen_count += 1
        for nxt in adj[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return MatchingReport(is_matching, is_homogeneous, seen_count == n)


def morse_differential(I: MonomialIdeal, matching: Matching) -> ChainComplex:
    """The Morse complex of a matching of facet pairs: the critical cells by
    size, in integer order, and the coefficient of critical sigma' in
    d(sigma) the sum of the weights of all gradient paths from the facets
    of sigma down to sigma', accumulated per dimension along a topological
    order of all the matched-lower cells it reaches.  InvalidMatchingError
    for a cycle of gradient paths or an entry whose row degree does not
    divide its column's."""
    tc = _table(I)
    survivors = set(matching.survivors())
    by_size: dict[int, list[int]] = {}
    for mask in sorted(survivors):
        by_size.setdefault(mask.bit_count(), []).append(mask)
    top = max(by_size, default=0)
    cells = tuple(tuple(by_size.get(i, ())) for i in range(top + 1))
    degrees = tuple(tuple(map(tc.exponents, level)) for level in cells)

    partner_up = {sigma: sigma | (1 << j) for sigma, j in matching.edges}
    critical_index = {
        mask: (i, col)
        for i, level in enumerate(cells)
        for col, mask in enumerate(level)
    }

    # flow successors within one dimension: cell -> [(next_cell, weight)]
    def flow_out(cell: int) -> list[tuple[int, int]]:
        up = partner_up[cell]
        # -[up : cell]
        sign_up = -dict(facets(up))[cell]
        return [(facet, sign_up * sign) for facet, sign in facets(up) if facet != cell]

    def topological_order(dim_cells: set[int]) -> list[int]:
        nodes = [c for c in dim_cells if c in partner_up]
        indeg = dict.fromkeys(nodes, 0)
        succ: dict[int, list[int]] = {c: [] for c in nodes}
        for c in nodes:
            for nxt, _ in flow_out(c):
                if nxt in indeg:
                    succ[c].append(nxt)
                    indeg[nxt] += 1
        order = []
        stack = [c for c in nodes if indeg[c] == 0]
        while stack:
            c = stack.pop()
            order.append(c)
            for nxt in succ[c]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    stack.append(nxt)
        if len(order) != len(nodes):
            raise InvalidMatchingError("cycle detected in gradient flow")
        return order

    diffs: list[dict[tuple[int, int], Entry]] = []
    for i in range(1, len(cells)):
        entries: dict[tuple[int, int], Entry] = {}
        reached = {facet for mask in cells[i] for facet, _ in facets(mask)}
        stack = [cell for cell in reached if cell in partner_up]
        while stack:
            for nxt, _ in flow_out(stack.pop()):
                if nxt not in reached:
                    reached.add(nxt)
                    if nxt in partner_up:
                        stack.append(nxt)
        order = topological_order(reached)

        for col, sigma in enumerate(cells[i]):
            coeffs: dict[int, int] = {}
            for facet, sign in facets(sigma):
                coeffs[facet] = coeffs.get(facet, 0) + sign
            for c in order:
                val = coeffs.pop(c, 0)
                if val:
                    for nxt, w in flow_out(c):
                        coeffs[nxt] = coeffs.get(nxt, 0) + val * w
            sig_exp = tc.exponents(sigma)
            for cell, val in coeffs.items():
                hit = critical_index.get(cell)
                if not val or hit is None:
                    continue  # matched-upper cells absorb nothing
                h, row = hit
                if h != i - 1:
                    raise InvalidMatchingError("flow escaped its dimension")
                cell_exp = tc.exponents(cell)
                if not _divides(cell_exp, sig_exp):
                    raise InvalidMatchingError("non-divisible differential entry")
                entries[(row, col)] = (val, tuple(map(sub, sig_exp, cell_exp)))
        diffs.append(entries)
    return ChainComplex(I.variables, cells, degrees, tuple(diffs))


# --- d*d and exactness -------------------------------------------------------


def d_squared_sums(lower, upper) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """The product of two differentials, `lower` after `upper`, as the sum of
    its terms per (column, row, exponent sum): a term is keyed by its
    monomial as well as its row, so no homogeneity contract is needed."""
    lo_by_col: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
    for (row, col), (coeff, exps) in lower.items():
        lo_by_col.setdefault(col, []).append((row, coeff, exps))
    acc: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for (mid, col), (c1, e1) in upper.items():
        for row, c2, e2 in lo_by_col.get(mid, ()):
            key = (col, row, tuple(map(add, e1, e2)))
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def d_squared(C: ChainComplex, char: int) -> bool:
    """d_{i-1} d_i = 0 for every i, with coefficients read mod char (char 0:
    over the integers)."""
    return not any(
        v % char if char else v
        for i in range(2, C.length)
        for v in d_squared_sums(C.diff(i - 1), C.diff(i)).values()
    )


def strand_degrees(I: MonomialIdeal, C: ChainComplex) -> list[tuple[tuple[int, ...], bool]]:
    """The degrees alpha whose strands `exactness` tests, ascending, each
    with whether x^alpha lies in I: the lcm lattice of I.  A cell degree
    outside the lattice can make a strand between lattice points differ
    from every strand at one, so the strands are taken over the lcm closure
    of the lattice and the cell degrees."""
    lattice = face_lattice(I)
    for d in {d for level in C.degrees for d in level}:
        if d not in lattice:
            lattice |= {tuple(map(max, a, d)) for a in lattice}
    gens = [g.exponents for g in I.generators]
    return [(alpha, any(_divides(g, alpha) for g in gens)) for alpha in sorted(lattice)]


def strand_columns(C: ChainComplex) -> list[dict[int, list[tuple[int, int]]]]:
    """columns[i][col]: the (row, coeff) entries of the column col of d_i."""
    columns: list[dict[int, list[tuple[int, int]]]] = [{} for _ in C.cells]
    for i in range(1, C.length):
        for (row, col), (coeff, _) in C.diff(i).items():
            columns[i].setdefault(col, []).append((row, coeff))
    return columns


def strand_level_ranks(C, columns, alpha, char) -> tuple[list[int], list[int]]:
    """(sizes, ranks) of the strand of C at alpha, the cells whose degree
    divides x^alpha: sizes[i] cells in level i, and ranks[i] the rank of d_i
    on the strand for 1 <= i < C.length, 0 at i = 0 and i = C.length.
    `columns` is `strand_columns(C)`; each d_i with a cell in the strand is
    ranked by one `linalg.rank` call on its columns in the strand, cut to
    the rows in the strand."""
    index = [
        {k: pos for pos, k in enumerate(
            k for k, exps in enumerate(level) if all(map(le, exps, alpha))
        )}
        for level in C.degrees
    ]
    ranks = [0] * (C.length + 1)
    for i in range(1, C.length):
        if not index[i]:
            continue
        keep_rows = index[i - 1]
        rows = []
        for col in index[i]:
            row = {
                keep_rows[r]: coeff
                for r, coeff in columns[i].get(col, ())
                if r in keep_rows
            }
            if row:
                rows.append(row)
        ranks[i] = linalg.rank(rows, char)
    return [len(level) for level in index], ranks


def strand_exact(sizes: list[int], ranks: list[int], in_ideal: bool) -> bool:
    """Whether a strand with these `strand_level_ranks` is exact: zero
    homology in degrees >= 1 and a cokernel of 0 or 1 in degree 0 as x^alpha
    lies in the ideal or not."""
    for i in range(1, len(sizes)):
        if sizes[i] - ranks[i] - ranks[i + 1] != 0:
            return False
    return sizes[0] - ranks[1] == (0 if in_ideal else 1)


def exactness(I: MonomialIdeal, C: ChainComplex, char: int) -> bool:
    """Whether every strand of C is exact (`strand_exact`), over the strand
    degrees of `strand_degrees`.  Reads neither d*d nor the monomials."""
    columns = strand_columns(C)
    for alpha, in_ideal in strand_degrees(I, C):
        if not strand_exact(*strand_level_ranks(C, columns, alpha, char), in_ideal):
            return False
    return True


# --- rank --------------------------------------------------------------------


def rank(rows: list[dict[int, int]], char: int) -> int:
    """Rank of sparse integer rows ({column: value}) over Q (char 0) or
    F_char: at every pivot, the shortest remaining row is taken, and its
    smallest column c is cleared from each other row r by r <- p*r - e*pivot,
    with p the pivot's entry at c and e the row's, entries read mod char."""
    field = (lambda v: v % char) if char else (lambda v: v)
    work = [{c: x for c, v in row.items() if (x := field(v))} for row in rows]
    work = [row for row in work if row]
    out = 0
    while work:
        pivot = work.pop(min(range(len(work)), key=lambda k: len(work[k])))
        col = min(pivot)
        p = pivot[col]
        out += 1
        rest = []
        for row in work:
            e = row.get(col)
            if e:
                row = {
                    c: x
                    for c in row.keys() | pivot.keys()
                    if (x := field(p * row.get(c, 0) - e * pivot.get(c, 0)))
                }
            if row:
                rest.append(row)
        work = rest
    return out


# --- the Betti oracles -------------------------------------------------------


def homology_ranks(
    levels: dict[int, list[int]], first: int, char: int
) -> dict[int, int]:
    """Homology ranks of the complex spanned by `levels` (faces keyed by
    degree, from `first` up; the simplicial boundary lowers the degree by
    one and keeps only faces present in the level below), per degree, each
    boundary matrix ranked at char.  Sorts each level in place."""
    for level in levels.values():
        level.sort()
    top = max(levels)
    ranks: dict[int, int] = {}
    for h in range(first + 1, top + 1):
        cols = levels.get(h, [])
        row_index = {m: k for k, m in enumerate(levels.get(h - 1, []))}
        if not cols or not row_index:
            continue
        rows: dict[int, dict[int, int]] = {}
        for ci, mask in enumerate(cols):
            for facet, sign in facets(mask):
                if facet in row_index:
                    rows.setdefault(ci, {})[row_index[facet]] = sign
        ranks[h] = linalg.rank(list(rows.values()), char)
    return {
        h: len(levels.get(h, [])) - ranks.get(h, 0) - ranks.get(h + 1, 0)
        for h in range(first, top + 1)
    }


def tor_betti(I: MonomialIdeal, char: int = 0) -> BettiTable:
    """Multigraded Betti numbers over a field of the given characteristic:
    the homology of the faces of the Taylor complex with multidegree exactly
    alpha, under the equal-degree incidences, for every alpha."""
    linalg.check_characteristic(char)
    tc = _table(I)
    classes: dict[tuple[int, ...], list[int]] = {}
    for mask in tc.faces():
        classes.setdefault(tc.exponents(mask), []).append(mask)
    multi: dict[tuple[int, tuple[int, ...]], int] = {}
    for alpha, masks in classes.items():
        by_h: dict[int, list[int]] = {}
        for m in masks:
            by_h.setdefault(m.bit_count(), []).append(m)
        for h, beta in homology_ranks(by_h, 0, char).items():
            if beta:
                multi[(h, alpha)] = beta
    return BettiTable(I.variables, multi)


def hochster_betti(I: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers from reduced homology of induced Stanley-Reisner
    complexes: for each lattice degree alpha, the complex of non-ideal
    squarefree monomials on the support of alpha gives beta_{i,alpha} in
    dimension |alpha|-i-1."""
    linalg.check_characteristic(char)
    if any(not g.is_squarefree for g in I.generators):
        raise SquarefreeRequiredError(
            "hochster_betti needs a squarefree ideal; apply polarize() first"
        )
    gen_masks = [sum(1 << i for i in g.support()) for g in I.generators]
    multi: dict[tuple[int, tuple[int, ...]], int] = {}
    for alpha in sorted(face_lattice(I)):
        support = sum(1 << i for i, e in enumerate(alpha) if e)
        faces_by_dim: dict[int, list[int]] = {}
        sub = support
        while True:
            if not any(gm & ~sub == 0 for gm in gen_masks):
                faces_by_dim.setdefault(sub.bit_count() - 1, []).append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & support
        if not faces_by_dim:
            continue
        for d, h in homology_ranks(faces_by_dim, -1, char).items():
            if h:
                i = support.bit_count() - d - 1
                multi[(i, alpha)] = multi.get((i, alpha), 0) + h
    return BettiTable(I.variables, multi)


# --- splitting ---------------------------------------------------------------


def check_pruned_splitting(
    I: MonomialIdeal, s: int, *, force: bool = False
) -> SplitReport:
    """Label every pruned edge by its endpoint regions; if all edges stay
    inside one region, verify the splitting formula on pruned Betti tables.

    The formula compares, for homological degree h >= 1,
    table(I) against table(J) + table(K) + table(J cap K) shifted up by one
    homological degree (the intersection's empty-face row does not shift).

    A split point out of range, or one whose intersection grid has more
    than GENERATOR_CAP generators, raises `ValueError` before any table is
    built; `force` lifts the grid check.
    """
    r = I.r
    J, K = split_parts(I, s)
    if not force:
        _refuse_wide_grid(r, s)
    matching = prune_taylor(I)
    regions = []
    ok = True
    for sigma, j in matching.edges:
        tau = sigma | (1 << j)
        reg_lo = classify_regions(r, s, sigma)
        reg_hi = classify_regions(r, s, tau)
        regions.append(((sigma, j), reg_lo, reg_hi))
        if reg_lo != reg_hi:
            ok = False

    residuals = None
    grid_matches_minimal = None
    if ok:
        JK = intersection_generators(J, K)
        t_i = betti_of_complex(critical_complex(I, matching, validate=False))
        t_j = _pruned_table(J)
        t_k = _pruned_table(K)
        t_jk = _pruned_table(JK)
        t_jk_min = _pruned_table(minimal_generators(JK))
        grid_matches_minimal = t_jk.same_entries(t_jk_min)

        residuals = {}
        keys = set(t_i.multigraded) | set(t_j.multigraded) | set(t_k.multigraded)
        keys |= {(h + 1, alpha) for (h, alpha) in t_jk.multigraded if h >= 1}
        for h, alpha in keys:
            if h < 1:
                continue
            shifted = t_jk.entry(h - 1, alpha) if h >= 2 else 0
            res = (
                t_i.entry(h, alpha)
                - t_j.entry(h, alpha)
                - t_k.entry(h, alpha)
                - shifted
            )
            if res:
                residuals[(h, alpha)] = res
    return SplitReport(s, ok, tuple(regions), residuals, grid_matches_minimal)
