"""The matched-lower flow graph against the reference.

`verify_matching` decides acyclicity by sorting the V-path graph on the
matched-lower faces, and `morse_differential` walks the same graph, only
the part reachable from critical facets.  Both are compared with
`reference`: the topological sort of the full modified Hasse diagram over
all 2^r faces, and the per-dimension flow walk over the whole topological
order, on the tuple table.
"""
import random

import pytest

import reference
from prunres.ideals import cycle_ideal, parse_ideal, path_ideal, random_corpus
from prunres.monomials import MonomialIdeal
from prunres.morse import InvalidMatchingError, morse_differential
from prunres.pruning import (
    Matching,
    nu_prune,
    partial_prune_intersection,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
    intersection_generators,
    verify_matching,
)
from prunres.taylor import facets, indices_of


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

    def test_random_matchings(self, corpus200):
        rng = random.Random(20250808)
        cyclic = 0
        for I in corpus200:
            for m in random_matchings(I, 5, rng):
                cyclic += not _same_acyclicity(I, m)
                _same_differential(I, m)
        assert cyclic >= 100


def test_facets_as_the_reference():
    # and the one bit-member walker, which reference.facets and the
    # exactness strands read, on masks past the width of a machine word too
    wide = 1 << 70 | 1 << 64 | 1 << 63 | 0b101
    for mask in [*range(1 << 12), wide]:
        assert facets(mask) == reference.facets(mask)
        assert indices_of(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert indices_of(wide) == [0, 2, 63, 64, 70]
