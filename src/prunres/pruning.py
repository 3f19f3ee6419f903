"""Matching-producing pruning sweeps over the Taylor complex, plus validation.

All sweeps share the same skeleton: for step j = 1..r, prune the edge
sigma -> sigma+e_j, sigma_j = 0, when both endpoints are still unmatched and
the step's condition holds.  Pruning an edge removes both endpoints
from the survivor pool immediately.  Each step's edges are recorded in
canonical order of sigma.

The pool is a bitset over the 2^r faces, bit sigma being face sigma, and
step j's condition is a mask M_j of lower ends (`_sweep`).  The masks are
read from the generator degrees g_k alone, never from the degree table.
Let has[k] be the faces that hold generator k, and H_b the OR of has[k]
over the k whose g_k has bit b.  The plain rule is M_j = ~has[j] & AND H_b
over the top bits b of g_j: its set bits b with b + 1 not in g_j, or with
some generator holding b + 1 but not b.  Three facts make it the rule.

- m_j divides lcm(sigma) iff deg sigma = deg(sigma + e_j), for j not in
  sigma: the latter is deg sigma | g_j, and the encoding is exact on the
  lcm lattice (`taylor`).  deg sigma is the OR of its members' g_k, so it
  has bit b iff sigma is in H_b.
- A segment's top bit suffices.  When every generator holding b + 1 holds
  b, every lcm degree does too, so H_{b+1} lies inside H_b.  Inside one
  variable's segment that always holds, its set bits being a prefix
  (`taylor`), so of each run of bits of g_j only the top one is tested.
- The Lyubeznik masks read only holders above j.  m_j must divide the lcm
  of the members above j, which has bit b iff one of them has it, so H_b
  is taken over k > j.  That lcm divides lcm(sigma), so the plain test is
  implied.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable

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
        """The faces on no edge.  ValueError for an edge that is no facet
        pair of the simplex on r vertices (sigma < 0, sigma >= 2^r, j
        outside range(r) or j in sigma)."""
        r = self.r
        for sigma, j in self.edges:
            if sigma < 0 or sigma >> r or not 0 <= j < r or sigma >> j & 1:
                raise ValueError(f"edge {(sigma, j)} is not a facet pair")
        return frozenset(self._survivor_list())

    def _survivor_list(self) -> list[int]:
        """The faces on no edge, ascending.  The edges must be facet pairs
        of the simplex on r vertices."""
        _, ends = _lower_ends(self.r, self.edges)
        return indices_of(((1 << (1 << self.r)) - 1) ^ ends)


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


def _holders(r: int) -> list[int]:
    """has[k] for each generator k, by doubling its period of 2^(k+1) faces,
    2^k without k and then 2^k with it."""
    out = []
    for k in range(r):
        bits = ((1 << (1 << k)) - 1) << (1 << k)
        while bits.bit_length() < 1 << r:  # the length is the period
            bits |= bits << bits.bit_length()
        out.append(bits)
    return out


def _step_masks(tc: TaylorComplex, above: bool = False) -> list[int]:
    """M_j for each step j: the faces sigma without j whose lcm is divisible
    by m_j, or with `above` those whose members above j alone have such an
    lcm (the module docstring).  Kept on `tc`, so a sweep and the check of
    its matching build them once."""
    name = "_above_masks" if above else "_plain_masks"
    if (kept := getattr(tc, name, None)) is not None:
        return kept
    gens, r = tc.gen_degrees, tc.r
    has, full = _holders(r), (1 << (1 << r)) - 1
    # bit b: some generator holds b + 1 without b
    unlinked = reduce(or_, [g >> 1 & ~g for g in gens], 0)
    held: dict[int, int] = {}  # bit b -> H_b over the generators read so far

    def read(k: int) -> None:
        for b in indices_of(gens[k]):
            held[b] = held.get(b, 0) | has[k]

    if not above:
        for k in range(r):
            read(k)
    masks = [0] * r
    for j in reversed(range(r)):
        g, mask = gens[j], full ^ has[j]
        for b in indices_of(g & ~(g >> 1 & ~unlinked)):
            mask &= held.get(b, 0)
        masks[j] = mask
        if above:
            read(j)
    setattr(tc, name, masks)
    return masks


def _sweep(masks: list[int], alive: int) -> tuple[list[tuple[int, int]], int]:
    """One sweep of the survivor bitset `alive`, step j pruning the lower
    ends in `masks[j]` whose partner is alive: its edges and the survivors.
    A lower end lacks j and an upper end holds it, so no two candidates of
    a step share an end, and all are pruned at once, in order of sigma."""
    pruned: list[tuple[int, int]] = []
    for j, mask in enumerate(masks):
        w = 1 << j
        cand = alive & alive >> w & mask
        if cand:
            alive ^= cand | cand << w
            pruned += [(sigma, j) for sigma in indices_of(cand)]
    return pruned, alive


def _bitset(faces: Iterable[int], r: int) -> int:
    """The faces as a bitset, set in a byte buffer: setting one bit of an
    int costs its whole width."""
    buf = bytearray(((1 << r) + 7) >> 3)
    for f in faces:
        buf[f >> 3] |= 1 << (f & 7)
    return int.from_bytes(buf, "little")


def _lower_ends(r: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """L_j for each step j, the lower ends sigma of the edges (sigma, j) as
    a bitset, set in one pass over the edges in byte buffers as `_bitset`
    does; and the OR of every L_j and L_j << 2^j, the faces on an edge
    when each edge is a facet pair."""
    bufs = [bytearray(((1 << r) + 7) >> 3) for _ in range(r)]
    for sigma, j in edges:
        bufs[j][sigma >> 3] |= 1 << (sigma & 7)
    ends, lower = 0, [int.from_bytes(buf, "little") for buf in bufs]
    for j, low in enumerate(lower):
        ends |= low | low << (1 << j)
    return lower, ends


def _prune(r: int, masks: list[int]) -> Matching:
    edges, _ = _sweep(masks, (1 << (1 << r)) - 1)
    return Matching(r, tuple(edges), (len(edges),))


def prune_taylor(I: MonomialIdeal) -> Matching:
    """The pruned matching: step j prunes every surviving homogeneous edge
    sigma -> sigma+e_j."""
    return _prune(I.r, _step_masks(TaylorComplex(I)))


def prune_lyubeznik(I: MonomialIdeal) -> Matching:
    """Pruning whose survivors form the Lyubeznik subcomplex.

    The edge sigma -> sigma+e_j is eligible at step j when generator j
    divides the lcm of the members of sigma larger than j.  On faces
    supported entirely above j this is the plain homogeneity condition, and
    it is what pairs every face with an unrooted tail against its partner.
    """
    return _prune(I.r, _step_masks(TaylorComplex(I), above=True))


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
            tail_deg = 0
            for i in idx[t:]:
                tail_deg |= gens[i]
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
    r = I.r
    first, alive = _sweep(_step_masks(tc), (1 << (1 << r)) - 1)
    total = [sum(tc.exponents(f)) for f in tc.faces()]
    lower: list[list[int]] = [[] for _ in range(r)]
    for sigma in range(1, 1 << r):
        for j in indices_of((1 << r) - 1 ^ sigma):
            if total[sigma | 1 << j] == total[sigma] + 1:
                lower[j].append(sigma)
    second, _ = _sweep([_bitset(faces, r) for faces in lower], alive)
    return Matching(r, tuple(first + second), (len(first), len(second)))


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
    r, full = I.r, (1 << I.r) - 1
    masks = _step_masks(TaylorComplex(I))
    alive, dead = (1 << (1 << r)) - 1, set()
    edges: list[tuple[int, int]] = []
    sweeps: list[int] = []
    for sweep_no in range(1, (1 << r) + 2):
        if sweep_no == (1 << r) + 1:
            raise RuntimeError("simplicial pruning failed to reach a fixpoint")
        kept, _ = _sweep(masks, alive)
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
                    if (up := sigma | 1 << k) not in dead
                )
            ]
            if len(ok) == len(kept):
                break
            kept = ok
        if not kept:
            break
        sweeps.append(len(kept))
        ends = [sigma | b for sigma, j in kept for b in (0, 1 << j)]
        alive ^= _bitset(ends, r)
        dead.update(ends)
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
    has, full = _holders(s * t), (1 << (1 << s * t)) - 1
    column = [reduce(or_, has[i::s]) for i in range(s)]  # some lcm(m_i, k_q)
    row = [reduce(or_, has[q * s : (q + 1) * s]) for q in range(t)]
    masks = [(full ^ has[j]) & column[j % s] & row[j // s] for j in range(s * t)]
    return _prune(grid.r, masks)


def verify_matching(r: int, matching: Matching, I: MonomialIdeal) -> MatchingReport:
    """Check that the edges form a homogeneous acyclic matching on the Taylor
    complex of I.  All three verdicts read the bitsets L_j of the lower ends
    of each step j (`_lower_ends`).

    `is_matching`: every edge (sigma, j) joins a face of the complex to the
    face sigma + e_j (no L_j meets has[j], the faces holding j), no face
    lies on two edges (the L_j and L_j << 2^j hold 2 len(edges) faces
    between them), and `matching.r == I.r`.  An edge outside the complex
    (sigma < 0, sigma >= 2^r or j outside range(r)) makes all three
    verdicts False before any degree is read.

    `is_homogeneous`: both ends of every edge have the same lcm degree, read
    as L_j less has[j] lying in the step mask M_j of the module docstring.

    `is_acyclic`: no closed V-path (Forman; Chari).  A V-path runs from a
    matched-lower face sigma to its partner sigma + e_j and down to another
    facet of that partner, so the flow graph on the matched-lower faces has
    an arc from sigma in L_j to sigma + 2^j - 2^b for each member b of
    sigma, and the matching is acyclic exactly when peeling the sinks of
    that graph empties it (`_peel`).  The test reads no degrees, so it
    covers degree-shift and partial matchings alike.  Acyclicity is defined
    for matchings only: when the edges are not vertex-disjoint,
    `is_acyclic` is False.

    The peel takes one round per cell of the longest V-path, plus one, and a
    round costs about r^2 shifts of a 2^r-bit int.  The sweeps' matchings
    have short V-paths: 15 rounds on the pruned matching of cycle:15, 1 on
    its Lyubeznik matching, and at most 4 on example-4-1 and the random
    corpus.  A hand-built matching with a V-path of hundreds of cells costs
    more than a topological sort of a flow-graph dict: one V-path of 140
    edges through the 6-faces at r = 12 takes about 10 ms against 0.8 ms
    for the sort, and one of 459 edges at r = 15 about 250 ms against
    2.5 ms (CPython 3.11, one core).

    `r` must equal `I.r` (ValueError otherwise); it is read only for that.
    """
    if r != I.r:
        raise ValueError(f"r = {r} but the ideal has {I.r} generators")
    if any(
        sigma < 0 or sigma >> r or not 0 <= j < r for sigma, j in matching.edges
    ):
        return MatchingReport(False, False, False)

    lower, ends = _lower_ends(r, matching.edges)
    has = _holders(r)
    is_matching = (
        matching.r == r
        and not any(low & has[j] for j, low in enumerate(lower))
        and ends.bit_count() == 2 * len(matching.edges)
    )
    masks = _step_masks(TaylorComplex(I))
    # less has[j]: an edge with j in sigma fails the matching test alone
    is_homogeneous = not any(
        low & ~(mask | has[j]) for j, (low, mask) in enumerate(zip(lower, masks))
    )
    is_acyclic = is_matching and _peel(lower, has)
    return MatchingReport(is_matching, is_homogeneous, is_acyclic)


def _peel(lower: list[int], has: list[int]) -> bool:
    """Whether the flow graph of a matching, its nodes the lower ends L_j of
    each step j, has no cycle: remove every live node with no live head
    until none is left (acyclic) or a round removes nothing (a cycle).

    Node sigma in L_j has the heads sigma + 2^j - 2^b for the members b of
    sigma, so its arcs to a live head through b are one shift of the live
    set by 2^j - 2^b, masked by has[b]; heads that are no node are never
    live."""
    r = len(lower)
    live = reduce(or_, lower, 0)
    while live:
        keep = 0
        for j, low in enumerate(lower):
            nodes = low & live
            if nodes:
                w, heads = 1 << j, 0
                for b in range(r):
                    if b != j:
                        d = w - (1 << b)
                        heads |= (live >> d if d > 0 else live << -d) & has[b]
                keep |= nodes & heads
        if keep == live:
            return False
        live = keep
    return True


def _flow_graph(
    edges: Iterable[tuple[int, int]], roots: Iterable[int]
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """The gradient-flow graph of matched edges (sigma, j) on the
    matched-lower faces reachable from the roots: succ maps sigma to every
    facet f != sigma of up = sigma + e_j, in the order of `facets`, and
    weights maps sigma to the weights of those arcs, -[up : sigma] *
    [up : f] in the signs of `facets`.  Its paths are the V-paths of the
    matching.  The head f = up - e_b has weight (-1)^m, m the number of
    members of sigma strictly between b and j, so the weights are read in
    the same walk over sigma as the heads.  No edge may have j in sigma.
    """
    step = dict(edges)
    succ: dict[int, list[int]] = {}
    weights: dict[int, list[int]] = {}
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
        # members[t] has t members of sigma below it and j has `below`,
        # so below - t - 1 lie between them when t < below, else t - below
        below = (cell & (1 << j) - 1).bit_count()
        weights[cell] = [
            -1 if (below - t - (t < below)) & 1 else 1 for t in range(len(members))
        ]
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
