"""Matching-producing pruning sweeps over the Taylor complex, plus validation.

All sweeps share the same skeleton: for step j = 1..r, prune the edge
sigma -> sigma+e_j, sigma_j = 0, when both endpoints are still unmatched and
the step's degree condition holds.  Pruning an edge removes both endpoints
from the survivor pool immediately.  Each step's edges are recorded in
canonical order of sigma.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .monomials import Monomial, MonomialIdeal, lcm, monomial_str
from .taylor import TaylorComplex, indices_of


@dataclass(frozen=True)
class Matching:
    """Pruned edges (sigma, j), sigma -> sigma + e_j, in pruning order: by
    sweep, then by step, then by sigma.  Edge (sigma, j) was pruned at step
    j + 1 of its sweep.

    `sweeps[k]` is how many edges sweep k + 1 pruned, so the edges of one
    sweep are a slice of `edges` and `sum(sweeps) == len(edges)`.
    `prune_simplicial` repeats its sweep until one prunes nothing and lists
    only the sweeps before that one; a hand-built `Matching(r, edges)` has
    no sweeps.
    """

    r: int
    edges: tuple[tuple[int, int], ...]
    sweeps: tuple[int, ...] = ()

    def survivors(self) -> frozenset[int]:
        dead = {sigma for sigma, _ in self.edges}
        dead.update(sigma | (1 << j) for sigma, j in self.edges)
        return frozenset(range(1 << self.r)) - dead


@dataclass(frozen=True)
class MatchingReport:
    is_matching: bool
    is_homogeneous: bool
    is_acyclic: bool

    @property
    def all_ok(self) -> bool:
        return self.is_matching and self.is_homogeneous and self.is_acyclic


def empty_matching(I: MonomialIdeal) -> Matching:
    return Matching(I.r, ())


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


def lyubeznik_direct(I: MonomialIdeal) -> frozenset[int]:
    """Independent construction of the Lyubeznik subcomplex.

    A face {i_0 < ... < i_s} belongs iff for every tail {i_t, ..., i_s} and
    every j < i_t, generator j does not divide the tail's lcm.  Used only as
    an oracle for prune_lyubeznik.
    """
    tc = TaylorComplex(I)
    gens = tc.gen_degrees
    out = set()
    for mask in tc.faces():
        idx = indices_of(mask)
        ok = True
        for t in range(len(idx)):
            tail = 0
            for i in idx[t:]:
                tail |= 1 << i
            tail_deg = tc.degree(tail)
            for j in range(idx[t]):
                if gens[j] & ~tail_deg == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(mask)
    return frozenset(out)


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


def intersection_generators(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    """Pairwise-lcm generating set of J * K's intersection, in grid order:
    lcm(m_1, k_1), ..., lcm(m_s, k_1), lcm(m_1, k_2), ...  Possibly non-minimal."""
    if J.variables != K.variables:
        raise ValueError("J and K must share the ambient variables")
    gens = []
    for k in K.generators:
        for m in J.generators:
            gens.append(lcm(m, k))
    return MonomialIdeal(J.variables, tuple(gens))


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


def verify_matching(r: int, matching: Matching, I: MonomialIdeal) -> MatchingReport:
    """Check that the edges form a homogeneous acyclic matching on the Taylor
    complex of I.

    `is_matching`: every edge (sigma, j) joins a face of the complex to the
    face sigma + e_j, no face lies on two edges, and `matching.r == I.r`.  An
    edge outside the complex (sigma < 0, sigma >= 2^r or j outside
    range(r)) makes all three verdicts False before any degree is read.

    `is_homogeneous`: both ends of every edge have the same lcm degree.

    `is_acyclic`: no closed V-path (Forman; Chari).  A V-path runs from a
    matched-lower face sigma to its partner sigma + e_j and down to another
    facet of that partner, so the matching is acyclic exactly when the flow
    graph of `_flow_graph`, built without weights, has a topological order.
    The test reads no degrees, so it covers degree-shift and partial
    matchings alike.  Acyclicity is defined for matchings only: when the
    edges are not vertex-disjoint, `is_acyclic` is False.

    `r` must equal `I.r` (ValueError otherwise); it is read only for that.
    """
    if r != I.r:
        raise ValueError(f"r = {r} but the ideal has {I.r} generators")
    if any(
        sigma < 0 or sigma >> r or not 0 <= j < r for sigma, j in matching.edges
    ):
        return MatchingReport(False, False, False)

    seen: set[int] = set()
    is_matching = matching.r == r
    for sigma, j in matching.edges:
        tau = sigma | (1 << j)
        if sigma == tau or sigma in seen or tau in seen:
            is_matching = False
        seen.add(sigma)
        seen.add(tau)

    deg = TaylorComplex(I).degree
    is_homogeneous = all(
        deg(sigma) == deg(sigma | (1 << j)) for sigma, j in matching.edges
    )
    is_acyclic = (
        is_matching and _topological_order(_flow_graph(matching.edges)[0]) is not None
    )
    return MatchingReport(is_matching, is_homogeneous, is_acyclic)


def _flow_graph(
    edges: Iterable[tuple[int, int]],
    roots: Iterable[int] | None = None,
    weighted: bool = False,
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """The gradient-flow graph of matched edges (sigma, j): succ maps sigma
    to every facet f != sigma of up = sigma + e_j, in the order of `facets`.
    Its paths are the V-paths of the matching.  With `weighted`, weights
    maps sigma to the weights of those arcs, -[up : sigma] * [up : f] in the
    signs of `facets`; otherwise it is empty.  The head f = up - e_b has
    weight (-1)^m, m the number of members of sigma strictly between b and
    j, so the weights are read in the same walk over sigma as the heads.

    With `roots`, only the matched-lower faces reachable from the roots are
    nodes; otherwise every matched-lower face is.  No edge may have j in
    sigma.
    """
    step = dict(edges)
    succ: dict[int, list[int]] = {}
    weights: dict[int, list[int]] = {}
    if roots is None:
        stack = list(step)
    else:
        stack = [c for c in roots if c in step]
    while stack:
        cell = stack.pop()
        if cell in succ:
            continue
        j = step[cell]
        up = cell | 1 << j
        members = indices_of(cell)
        # up less one member of sigma
        succ[cell] = heads = [up ^ 1 << b for b in members]
        if weighted:
            # members[t] has t members of sigma below it and j has `below`,
            # so below - t - 1 lie between them when t < below, else t - below
            below = (cell & (1 << j) - 1).bit_count()
            weights[cell] = [
                -1 if (below - t - (t < below)) & 1 else 1
                for t in range(len(members))
            ]
        if roots is not None:
            stack += [f for f in heads if f in step and f not in succ]
    return succ, weights


def _topological_order(succ: dict[int, list[int]]) -> list[int] | None:
    """Kahn's sort of the nodes of a flow graph (arcs to non-nodes are
    ignored); None when the graph has a cycle."""
    indeg = dict.fromkeys(succ, 0)
    for heads in succ.values():
        for f in heads:
            if f in indeg:
                indeg[f] += 1
    stack = [c for c, n in indeg.items() if not n]
    order = []
    while stack:
        cell = stack.pop()
        order.append(cell)
        for f in succ[cell]:
            n = indeg.get(f)
            if n is not None:
                indeg[f] = n - 1
                if n == 1:
                    stack.append(f)
    return order if len(order) == len(succ) else None


def render_trace(matching: Matching, I: MonomialIdeal) -> list[str]:
    """Trace lines, one per pruned edge: step, characteristic vector, degree.

    `I` must be the ideal whose Taylor complex the matching lives on (the
    grid ideal for partial prunings).
    """
    tc = TaylorComplex(I)
    lines = []
    for sigma, j in matching.edges:
        vec = f"{sigma:0{matching.r}b}"[::-1]
        deg = monomial_str(Monomial(tc.exponents(sigma)), I.variables)
        lines.append(f"step={j + 1} sigma={vec} j={j + 1} deg={deg}")
    return lines
