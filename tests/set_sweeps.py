"""The set-based pruning sweeps that the bitset sweeps of `prunres.pruning`
replaced, kept verbatim as the reference the tests compare against.

Each sweep walks a Python set of the surviving faces at every step and tests
each candidate edge through callbacks.  `TaylorComplex` and `_same_degree`
are module attributes, so a test can run these sweeps on another degree
table.
"""
from __future__ import annotations

from typing import Callable

from prunres.monomials import MonomialIdeal
from prunres.pruning import Matching, intersection_generators
from prunres.taylor import TaylorComplex, indices_of


def _sweep(
    tc: TaylorComplex,
    alive: set[int],
    eligible: Callable[[int, int], bool] | None,
    condition: Callable[[int, int], bool],
) -> list[tuple[int, int]]:
    """One full r-step sweep on the surviving faces; mutates `alive`.

    Within step j a lower end has bit j clear and an upper end has it set,
    so pruning one edge never removes another candidate's end: the step's
    edges do not depend on the scan order, and only they are sorted.
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
        lower.sort()
        pruned += [(sigma, j) for sigma in lower]
    return pruned


def _same_degree(tc: TaylorComplex) -> Callable[[int, int], bool]:
    """The plain pruning condition: both faces have the same lcm degree."""
    deg = tc.degree
    return lambda s, t: deg(s) == deg(t)


def _prune_with(
    tc: TaylorComplex, eligible: Callable[[int, int], bool] | None
) -> Matching:
    """One pruning sweep; `eligible(sigma, j)` filters candidate edges before
    the homogeneity test, and None gives the plain pruned matching."""
    edges = _sweep(tc, set(tc.faces()), eligible, _same_degree(tc))
    return Matching(tc.r, tuple(edges), (len(edges),))


def prune_taylor(I: MonomialIdeal) -> Matching:
    """The pruned matching: step j prunes every surviving homogeneous edge
    sigma -> sigma+e_j."""
    return _prune_with(TaylorComplex(I), None)


def prune_lyubeznik(I: MonomialIdeal) -> Matching:
    """Pruning whose survivors form the Lyubeznik subcomplex.

    The edge sigma -> sigma+e_j is eligible at step j when generator j
    divides the lcm of the members of sigma larger than j.  On faces
    supported entirely above j this is the plain homogeneity condition, and
    it is what pairs every face with an unrooted tail against its partner.
    """
    tc = TaylorComplex(I)
    deg, gens = tc.degree, tc.gen_degrees

    def eligible(sigma: int, j: int) -> bool:
        high = sigma & ~((1 << (j + 1)) - 1)
        return gens[j] & ~deg(high) == 0

    return _prune_with(tc, eligible)


def nu_prune(I: MonomialIdeal) -> Matching:
    """Pruned matching followed by a total-degree-shift pass on the survivors.

    The second pass prunes sigma -> sigma+e_j when the total degrees differ by
    exactly one; it is a degree-shift matching, so the combined result is an
    approximation only and is excluded from exactness claims.  The empty face
    never participates as a lower endpoint.
    """
    tc = TaylorComplex(I)
    alive = set(tc.faces())
    first = _sweep(tc, alive, None, _same_degree(tc))
    total = lambda mask: sum(tc.exponents(mask))
    shift = lambda s, t: s != 0 and total(s) == total(t) - 1
    second = _sweep(tc, alive, None, shift)
    return Matching(I.r, tuple(first + second), (len(first), len(second)))


def prune_simplicial(I: MonomialIdeal) -> Matching:
    """Pruning filtered so the surviving faces stay closed under subsets.

    Each sweep first computes the plain pruning of the current subcomplex,
    then keeps only those edges (sigma, j) whose live cofaces sigma + e_k,
    k not in sigma and k != j, are all gone by the end of step j + 1,
    counting cells removed by kept edges of this sweep.  The filter is
    shrunk to a self-consistent fixpoint before the sweep is applied, and
    whole sweeps repeat until one prunes nothing.

    This coface rule keeps the edges of the superface rule it stands for:
    every live strict superface of sigma other than sigma + e_j is gone by
    step j + 1.  Both filters are monotone, so the fixpoint reached from the
    plain pruning is the largest self-consistent edge set under either rule,
    and the two rules have the same self-consistent sets when the live set
    is closed under subsets.  One way is plain: cofaces are superfaces.  For
    the other, let every kept edge pass the coface rule, and suppose some
    (sigma, j) has a live strict superface tau != sigma + e_j that dies
    after step j + 1 or not at all; take |tau - sigma| least, then j least.
    Some k != j lies in tau - sigma, and by closure sigma + e_k is live, so
    it dies at step j' + 1 <= j + 1 on some kept edge (pi, j'); thus
    tau != sigma + e_k.  If sigma + e_k = pi, then tau is a counterexample
    for (pi, j') at a smaller distance.  If sigma + e_k = pi + e_j', then
    j' != j since j is not in sigma + e_k, so j' < j, and tau is a
    counterexample for (pi, j') at the same distance with a smaller step.
    The live set starts as every face and stays closed under subsets: the
    superfaces of a lower end sigma of a self-consistent edge all die with
    it, and those of its upper end are superfaces of sigma too.
    """
    tc = TaylorComplex(I)
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
    return Matching(r, tuple(edges), tuple(sweeps))


def partial_prune_intersection(J: MonomialIdeal, K: MonomialIdeal) -> Matching:
    """Partial pruning of the pairwise-lcm Taylor complex of the intersection.

    Grid vertex q*s+i stands for lcm(m_i, k_q); the edge sigma -> sigma+e_j,
    j = q*s+i, is pruned when the original generators involved in sigma
    already include both i and the K-side generator q.  Survivors other than
    the empty face are in degree-preserving bijection with the faces of the
    ambient Taylor complex supported on both blocks.
    """
    s, t = J.r, K.r
    if s == 0 or t == 0:
        raise ValueError("both parts of the splitting need at least one generator")
    grid = intersection_generators(J, K)
    tc = TaylorComplex(grid)

    pair_masks = []
    for q in range(t):
        for i in range(s):
            pair_masks.append((1 << i) | (1 << (s + q)))

    def involved(mask: int) -> int:
        out = 0
        for v in indices_of(mask):
            out |= pair_masks[v]
        return out

    alive = set(tc.faces())
    condition = lambda sigma, tau: True
    eligible = lambda sigma, j: involved(sigma) & pair_masks[j] == pair_masks[j]
    edges = _sweep(tc, alive, eligible, condition)
    return Matching(grid.r, tuple(edges), (len(edges),))
