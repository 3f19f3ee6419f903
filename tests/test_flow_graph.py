"""The matched-lower flow graph against the code it replaced.

`verify_matching` decides acyclicity by sorting the V-path graph on the
matched-lower faces, and `morse_differential` walks the same graph, only
the part reachable from critical facets.  Both are compared with verbatim
copies of the previous code: the topological sort of the full modified
Hasse diagram over all 2^r faces, and the per-dimension flow walk over the
whole topological order, with the facet enumeration it used.
"""
import random
from operator import sub

import pytest

from prunres.ideals import cycle_ideal, parse_ideal, path_ideal, random_corpus
from prunres.monomials import MonomialIdeal
from prunres.morse import (
    ChainComplex,
    Entry,
    InvalidMatchingError,
    critical_complex,
    morse_differential,
)
from prunres.pruning import (
    Matching,
    MatchingReport,
    nu_prune,
    partial_prune_intersection,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
    intersection_generators,
    verify_matching,
)
from prunres.taylor import TaylorComplex, facets, indices_of


# --- verbatim copies of the replaced code -----------------------------------


def old_facets(mask: int) -> list[tuple[int, int]]:
    """(facet, sign) pairs for the simplicial boundary of a face."""
    out = []
    for pos, i in enumerate(indices_of(mask)):
        out.append((mask & ~(1 << i), -1 if pos % 2 else 1))
    return out


def old_verify_matching(tc: TaylorComplex, r: int, matching: Matching) -> MatchingReport:
    seen: set[int] = set()
    is_matching = True
    for sigma, j in matching.edges:
        if sigma & (1 << j):
            is_matching = False
            break
        tau = sigma | (1 << j)
        if sigma in seen or tau in seen:
            is_matching = False
            break
        seen.add(sigma)
        seen.add(tau)

    deg = tc.degree
    is_homogeneous = all(
        deg(sigma) == deg(sigma | (1 << j)) for sigma, j in matching.edges
    )

    reversed_up = {}  # lower cell -> upper cell for matched edges
    for sigma, j in matching.edges:
        reversed_up[sigma] = sigma | (1 << j)

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
    is_acyclic = seen_count == n

    return MatchingReport(is_matching, is_homogeneous, is_acyclic)


def old_morse_differential(
    I: MonomialIdeal, matching: Matching, validate: bool = True
) -> ChainComplex:
    facets = old_facets
    tc = TaylorComplex(I)
    deg = tc.degree
    base = critical_complex(I, matching, validate)

    partner_up: dict[int, int] = {}
    for sigma, j in matching.edges:
        partner_up[sigma] = sigma | (1 << j)
    matched_lower = set(partner_up)
    critical_index: dict[int, tuple[int, int]] = {}
    for i, level in enumerate(base.cells):
        for col, mask in enumerate(level):
            critical_index[mask] = (i, col)

    # Flow successors within one dimension: cell -> [(next_cell, weight)].
    def flow_out(cell: int) -> list[tuple[int, int]]:
        up = partner_up[cell]
        # -[up : cell], where [up : cell] is -1 when an odd number of
        # members of up lie below the removed one (taylor.facets)
        sign_up = 1 if (up & ((up ^ cell) - 1)).bit_count() % 2 else -1
        out = []
        for facet, sign in facets(up):
            if facet != cell:
                out.append((facet, sign_up * sign))
        return out

    # Topological order of matched-lower cells per dimension, shared by all
    # columns of that dimension.
    def topo_for_dim(dim_cells: set[int]) -> list[int]:
        nodes = [c for c in dim_cells if c in matched_lower]
        node_set = set(nodes)
        indeg = {c: 0 for c in nodes}
        succ: dict[int, list[int]] = {c: [] for c in nodes}
        for c in nodes:
            for nxt, _ in flow_out(c):
                if nxt in node_set:
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
    for i in range(1, base.length):
        entries: dict[tuple[int, int], Entry] = {}
        level_dim_cells: set[int] = set()
        for mask in base.cells[i]:
            for facet, _ in facets(mask):
                level_dim_cells.add(facet)
        for cell in list(level_dim_cells):
            if cell in matched_lower:
                stack = [cell]
                while stack:
                    c = stack.pop()
                    for nxt, _ in flow_out(c):
                        if nxt not in level_dim_cells:
                            level_dim_cells.add(nxt)
                            if nxt in matched_lower:
                                stack.append(nxt)
        order = topo_for_dim(level_dim_cells)

        for col, sigma in enumerate(base.cells[i]):
            coeffs: dict[int, int] = {}
            for facet, sign in facets(sigma):
                coeffs[facet] = coeffs.get(facet, 0) + sign
            for c in order:
                val = coeffs.pop(c, 0)
                if not val:
                    continue
                for nxt, w in flow_out(c):
                    coeffs[nxt] = coeffs.get(nxt, 0) + val * w
            sig_deg = deg(sigma)
            sig_exp = tc.decode(sig_deg)
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
                if cell_deg & ~sig_deg:
                    raise InvalidMatchingError("non-divisible differential entry")
                ratio = tuple(map(sub, sig_exp, tc.decode(cell_deg)))
                entries[(row, col)] = (val, ratio)
        diffs.append(entries)

    return ChainComplex(base.variables, base.cells, base.degrees, tuple(diffs))


# --- inputs -----------------------------------------------------------------

SWEEPS = (prune_taylor, prune_simplicial, prune_lyubeznik, nu_prune)


def _split(I, s):
    return (
        MonomialIdeal(I.variables, I.generators[:s]),
        MonomialIdeal(I.variables, I.generators[s:]),
    )


def partial_prunings():
    """The partial prunings of the pruning tests: (grid ideal, matching)."""
    I = parse_ideal("ring a b c d e f g h\ngens a*b, c*d, e*f, g*h")
    splits = [_split(I, 3), _split(I, 2)]
    for I in random_corpus(25, seed=9, max_vars=5, max_gens=6):
        for s in range(1, I.r):
            if s <= 3 and I.r - s <= 3:
                splits.append(_split(I, s))
    return [
        (intersection_generators(J, K), partial_prune_intersection(J, K))
        for J, K in splits
    ]


def random_matchings(I, count, rng):
    """`count` random vertex-disjoint edge sets on the Taylor complex of I,
    homogeneous or not: a random prefix of the shuffled Hasse edges, kept
    greedily while both ends are free."""
    edges = [(s, j) for s in range(1 << I.r) for j in range(I.r) if not s >> j & 1]
    out = []
    for _ in range(count):
        rng.shuffle(edges)
        used: set[int] = set()
        kept = []
        for sigma, j in edges[: rng.randint(1, len(edges))]:
            tau = sigma | (1 << j)
            if sigma not in used and tau not in used:
                used |= {sigma, tau}
                kept.append((sigma, j))
        out.append(Matching(I.r, tuple(kept)))
    return out


def _same_acyclicity(I, matching):
    new = verify_matching(I.r, matching, I)
    old = old_verify_matching(TaylorComplex(I), I.r, matching)
    assert old.is_matching, "the comparison covers vertex-disjoint edge sets"
    assert (new.is_matching, new.is_homogeneous) == (True, old.is_homogeneous)
    assert new.is_acyclic == old.is_acyclic, (I, matching.edges)
    return new.is_acyclic


def _same_differential(I, matching):
    try:
        want = old_morse_differential(I, matching, validate=False)
    except InvalidMatchingError:
        with pytest.raises(InvalidMatchingError):
            morse_differential(I, matching, validate=False)
    else:
        assert morse_differential(I, matching, validate=False) == want


def _check(I, matching):
    _same_acyclicity(I, matching)
    _same_differential(I, matching)


class TestAgainstReplacedCode:
    def test_corpus200_sweeps(self, corpus200):
        for I in corpus200:
            for sweep in SWEEPS:
                _check(I, sweep(I))

    def test_partial_prunings(self):
        for grid, m in partial_prunings():
            _check(grid, m)

    @pytest.mark.parametrize(
        "I",
        [cycle_ideal(n) for n in range(3, 13)] + [path_ideal(n) for n in range(2, 12)],
        ids=[f"cycle:{n}" for n in range(3, 13)] + [f"path:{n}" for n in range(2, 12)],
    )
    def test_cycles_and_paths(self, I):
        for sweep in SWEEPS:
            _check(I, sweep(I))

    @pytest.mark.parametrize("n", [13, 14])
    def test_wide_cycles(self, n):
        # sparse pruned survivors with flow, and a Lyubeznik complex whose
        # critical cells are closed under faces, so it has no flow at all
        I = cycle_ideal(n)
        for sweep in (prune_taylor, prune_lyubeznik):
            _same_differential(I, sweep(I))

    def test_large_distinct_exponents(self):
        # several distinct exponents per variable, up to 2^31 - 1, so the
        # degree bitmasks have segments of several bits, and entry ratios
        # differ between columns that share a row degree
        I = parse_ideal(
            "ring x y z; gens x^2147483647*y, y^2147483646*z, x*z^5, x^3*y^3,"
            " x^7*z^2"
        )
        for sweep in SWEEPS:
            _check(I, sweep(I))

    def test_builtins(self, builtins):
        for I in builtins.values():
            for sweep in SWEEPS:
                _check(I, sweep(I))

    def test_random_matchings(self, corpus200):
        rng = random.Random(20250808)
        cyclic = 0
        for I in corpus200:
            for m in random_matchings(I, 5, rng):
                cyclic += not _same_acyclicity(I, m)
                _same_differential(I, m)
        assert cyclic >= 100


def test_facets_as_before():
    # and the one bit-member walker, which old_facets and the exactness
    # strands read, on masks past the width of a machine word too
    wide = 1 << 70 | 1 << 64 | 1 << 63 | 0b101
    for mask in [*range(1 << 12), wide]:
        assert facets(mask) == old_facets(mask)
        assert indices_of(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert indices_of(wide) == [0, 2, 63, 64, 70]
