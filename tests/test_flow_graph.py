"""The matched-lower flow graph against the reference.

`verify_matching` decides acyclicity by peeling the sinks of the V-path
graph on the matched-lower faces, held as one bitset per step, and
`morse_differential` sums, once per node of the same graph reachable from
critical facets, the weights of its V-paths down to each critical cell.
Both are compared with `reference`: the topological sort of the full
modified Hasse diagram over all 2^r faces, and the per-dimension flow walk
over the whole topological order, on the tuple table.
"""
import random

import pytest

import reference
from prunres.ideals import (
    builtin_ideal,
    cycle_ideal,
    parse_ideal,
    path_ideal,
    random_corpus,
)
from prunres.monomials import MonomialIdeal
from prunres.morse import InvalidMatchingError, morse_differential
from prunres.pruning import (
    Matching,
    MatchingReport,
    partial_prune_intersection,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
    intersection_generators,
    verify_matching,
)
from prunres.taylor import indices_of


# --- inputs -----------------------------------------------------------------

SWEEPS = (prune_taylor, prune_simplicial, prune_lyubeznik)


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
        out.append(Matching.from_edges(I.r, kept))
    return out


def snake(r, k, steps, seed):
    """A seeded random walk of at most `steps` V-path steps through the
    k-faces of the simplex on r vertices, as its edges and its k-faces in
    order.  A step from sigma takes a partner sigma + e_j that no edge has
    yet and none of whose other facets the walk has visited, so every flow
    arc runs forward along the walk and the edges are an acyclic matching.
    """
    rng = random.Random(seed)
    sigma = sum(1 << b for b in rng.sample(range(r), k))
    cells, edges, ups = [sigma], [], set()
    while len(edges) < steps:
        moves = []
        for j in indices_of((1 << r) - 1 ^ sigma):
            heads = [(sigma | 1 << j) ^ 1 << b for b in indices_of(sigma)]
            if sigma | 1 << j not in ups and not any(f in cells for f in heads):
                moves += [(j, f) for f in heads]
        if not moves:
            break
        j, nxt = rng.choice(moves)
        edges.append((sigma, j))
        ups.add(sigma | 1 << j)
        cells.append(sigma := nxt)
    return edges, cells


def _same_acyclicity(I, matching):
    new = verify_matching(I.r, matching, I)
    old = reference.verify_matching(I, matching)
    assert old.is_matching, "the comparison covers vertex-disjoint edge sets"
    assert (new.is_matching, new.is_homogeneous) == (True, old.is_homogeneous)
    assert new.is_acyclic == old.is_acyclic, (I, matching.edges)
    return new.is_acyclic


def _same_differential(I, matching):
    try:
        want = reference.morse_differential(I, matching)
    except InvalidMatchingError:
        with pytest.raises(InvalidMatchingError):
            morse_differential(I, matching, validate=False)
    else:
        assert morse_differential(I, matching, validate=False) == want


def _check(I, matching):
    _same_acyclicity(I, matching)
    _same_differential(I, matching)


class TestAgainstReference:
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

    @pytest.mark.parametrize(
        "spec, shifts",
        [
            ("path:5", ((2, 0), (4, 1), (9, 1), (8, 2))),
            ("path:6", ((2, 0), (18, 0), (4, 1), (9, 1), (25, 1), (8, 2), (16, 3))),
        ],
    )
    def test_degree_shift_matching(self, builtins, spec, shifts):
        # the pruned matching, then a second sweep of edges whose ends differ
        # by one in total degree: acyclic but not homogeneous, so path:6's
        # flow reaches an entry whose row degree does not divide its column's
        I = builtin_ideal(spec)
        first = prune_taylor(I).edges
        m = Matching.from_edges(I.r, first + shifts, (len(first), len(shifts)))
        assert verify_matching(I.r, m, I) == MatchingReport(True, False, True)
        _check(I, m)

    def test_random_matchings(self, corpus200):
        rng = random.Random(20250808)
        cyclic = 0
        for I in corpus200:
            for m in random_matchings(I, 5, rng):
                cyclic += not _same_acyclicity(I, m)
                _same_differential(I, m)
        assert cyclic >= 100


class TestPeel:
    """Deterministic inputs for the sink peel of `verify_matching`, whose
    rounds follow the longest V-path, and for the flow walk of
    `morse_differential` on the same V-paths, run without `validate` so
    that the walk alone must find a cycle."""

    R = 12
    EQUAL = parse_ideal("ring x\ngens " + ", ".join(["x"] * R))

    def _snake(self):
        # every face but the empty one has degree x, so each edge is
        # homogeneous; cut the walk at the last cell adjacent to its first
        edges, cells = snake(self.R, 6, 145, seed=53)
        n = max(
            i
            for i, c in enumerate(cells)
            if (c ^ cells[0]).bit_count() == 2
            and c | cells[0] not in {s | 1 << j for s, j in edges[:i]}
        )
        return edges[:n], cells[: n + 1]

    def _closed(self):
        # one more edge pairs the last cell with the union of it and the
        # first, whose facets include the first: a closed V-path of 141 cells
        edges, cells = self._snake()
        first, last = cells[0], cells[-1]
        j = (first & ~last).bit_length() - 1
        return Matching.from_edges(self.R, (*edges, (last, j)))

    def test_long_snake_is_acyclic(self):
        edges, _ = self._snake()
        assert len(edges) == 140
        m = Matching.from_edges(self.R, edges)
        assert verify_matching(self.R, m, self.EQUAL) == MatchingReport(True, True, True)
        assert _same_acyclicity(self.EQUAL, m)

    def test_snake_closed_into_a_cycle(self):
        m = self._closed()
        assert verify_matching(self.R, m, self.EQUAL) == MatchingReport(True, True, False)
        assert not _same_acyclicity(self.EQUAL, m)

    def test_long_snake_differential(self):
        # the flow of the walk's first cell runs along all 140 of its edges
        edges, _ = self._snake()
        _same_differential(self.EQUAL, Matching.from_edges(self.R, edges))

    def test_closed_snake_differential_raises(self):
        with pytest.raises(
            InvalidMatchingError, match="cycle detected in gradient flow"
        ):
            morse_differential(self.EQUAL, self._closed(), validate=False)

    def test_cycle_reached_from_a_critical_facet(self):
        # {0} -> {0,1}, {1} -> {1,2}, {2} -> {0,2} close a V-path, and the
        # critical cells {0,3}, {1,3}, {2,3} have its cells as facets
        I = parse_ideal("ring x\ngens x, x, x, x")
        m = Matching.from_edges(4, ((0b0001, 1), (0b0010, 2), (0b0100, 0)))
        with pytest.raises(
            InvalidMatchingError, match="cycle detected in gradient flow"
        ):
            morse_differential(I, m, validate=False)
        _same_differential(I, m)

    def test_unreached_cycle_goes_unnoticed(self):
        # the same cycle at r = 3: no critical cell has a facet on it, so
        # without `validate` the flow never walks it
        I = parse_ideal("ring x\ngens x, x, x")
        m = Matching.from_edges(3, ((0b001, 1), (0b010, 2), (0b100, 0)))
        assert morse_differential(I, m, validate=False).ranks() == (1, 0, 0, 1)
        with pytest.raises(InvalidMatchingError, match="rejected matching"):
            morse_differential(I, m)

    def test_duplicated_edge_is_no_matching(self):
        # one sweep's bitset cannot hold an edge twice, so it is refused;
        # the same edge in two sweeps puts both its faces on two edges
        with pytest.raises(ValueError, match="given twice"):
            Matching.from_edges(2, ((0, 0), (0, 0)))
        I = parse_ideal("ring x y\ngens x, y")
        m = Matching.from_edges(2, ((0, 0), (0, 0)), (1, 1))
        assert (m.edges, m.sweeps) == (((0, 0), (0, 0)), (1, 1))
        want = reference.verify_matching(I, m)
        assert not want.is_matching
        got = verify_matching(2, m, I)
        assert (got.is_matching, got.is_homogeneous) == (False, want.is_homogeneous)
        # acyclicity is defined for matchings only
        assert not got.is_acyclic
