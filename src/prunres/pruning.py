"""Matching-producing pruning sweeps over the Taylor complex, plus validation.

All sweeps share the same skeleton: for step j = 1..r, prune the edge
sigma -> sigma+e_j, sigma_j = 0, when both endpoints are still unmatched and
the step's condition holds.  Pruning an edge removes both endpoints
from the survivor pool immediately.

The pool is a bitset over the 2^r faces, bit sigma being face sigma, and
step j's condition is a mask M_j of lower ends (`_sweep`).  What a step
prunes is one bitset too, L_j, its lower ends, and a `Matching` is stored
as those bitsets alone: its edges are read from them on demand.  The masks
are read from the generator degrees g_k alone, never from a face's degree.
Let has[k] be the faces that hold generator k, and H_b the OR of has[k]
over the k whose g_k has bit b.  The plain rule is M_j = ~has[j] & AND H_b
over the set bits b of g_j.  Two facts make it the rule.

- m_j divides lcm(sigma) iff deg sigma = deg(sigma + e_j), for j not in
  sigma: the latter is deg sigma | g_j, and the encoding is exact on the
  lcm lattice (`taylor`).  deg sigma is the OR of its members' g_k, so it
  has bit b iff sigma is in H_b.
- The Lyubeznik masks read only holders above j.  m_j must divide the lcm
  of the members above j, which has bit b iff one of them has it, so H_b
  is taken over k > j.  That lcm divides lcm(sigma), so the plain test is
  implied.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Iterable

from .monomials import Monomial, MonomialIdeal, lcm, monomial_str
from .taylor import TaylorComplex, indices_of


@dataclass(frozen=True)
class Matching:
    """A set of edges sigma -> sigma + e_j on the Taylor complex of r
    generators, held as the bitsets of their lower ends: `lower[k][j]` is
    L_j of sweep k + 1, bit sigma set when the sweep pruned (sigma, j) at
    step j + 1.  `prune_simplicial` repeats its sweep until one prunes
    nothing and lists only the sweeps before that one.

    Every sweep has r bitsets, and every L_j holds faces of the simplex
    without j, so each bit is a facet pair; anything else raises ValueError
    here, the one place that checks it.  A hand-built matching is given by
    its edges through `from_edges`.  Its edges may share faces, which
    `verify_matching` reports.
    """

    r: int
    lower: tuple[tuple[int, ...], ...] = ()

    def __repr__(self) -> str:
        # the bitsets of r >= 14 have more digits than str(int) allows
        return f"Matching(r={self.r}, sweeps={self.sweeps})"

    def __post_init__(self) -> None:
        lower = tuple(map(tuple, self.lower))
        object.__setattr__(self, "lower", lower)
        if not lower:
            return
        has, width = _holders(self.r), 1 << self.r
        for sweep in lower:
            if len(sweep) != self.r:
                raise ValueError(
                    f"a sweep of {len(sweep)} steps on {self.r} generators"
                )
            for j, low in enumerate(sweep):
                if low < 0 or low >> width:
                    raise ValueError(f"step {j + 1} holds a face outside the simplex")
                if wrong := low & has[j]:
                    sigma = (wrong & -wrong).bit_length() - 1
                    raise ValueError(f"edge {(sigma, j)} is not a facet pair")

    @classmethod
    def from_edges(
        cls, r: int, edges: Iterable[tuple[int, int]], sweeps: Iterable[int] = ()
    ) -> Matching:
        """The edges (sigma, j), sigma -> sigma + e_j, as a matching:
        `sweeps[k]` edges of `edges` after those of the sweeps before it
        belong to sweep k + 1, and with no `sweeps` all of them belong to
        one (none when there is no edge).  Within a sweep they may come in
        any order.  ValueError for counts that do not add up to the edges,
        an edge outside the simplex (sigma < 0, sigma >= 2^r or j outside
        range(r)), before its bit is set, and an edge given twice in one
        sweep, which its bitset cannot tell from one copy."""
        edges, sweeps = list(edges), list(sweeps)
        if not sweeps and edges:
            sweeps = [len(edges)]
        if sum(sweeps) != len(edges) or min(sweeps, default=0) < 0:
            raise ValueError(f"sweeps of {sweeps} edges for {len(edges)} edges")
        lower, start, size = [], 0, ((1 << r) + 7) >> 3
        for n in sweeps:
            bufs = [bytearray(size) for _ in range(r)]
            for sigma, j in edges[start : start + n]:
                if sigma < 0 or sigma >> r or not 0 <= j < r:
                    raise ValueError(f"edge {(sigma, j)} is not a facet pair")
                at, bit = sigma >> 3, 1 << (sigma & 7)
                if bufs[j][at] & bit:
                    raise ValueError(f"edge {(sigma, j)} is given twice in a sweep")
                bufs[j][at] |= bit
            lower.append([int.from_bytes(buf, "little") for buf in bufs])
            start += n
        return cls(r, tuple(lower))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (sigma, j), in pruning order: by sweep, then by step,
        then by sigma.  Built from `lower` on first read."""
        return tuple(
            (sigma, j)
            for sweep in self.lower
            for j, low in enumerate(sweep)
            for sigma in indices_of(low)
        )

    @property
    def sweeps(self) -> tuple[int, ...]:
        """How many edges each sweep pruned, so the edges of one sweep are a
        slice of `edges`."""
        return tuple(sum(map(int.bit_count, sweep)) for sweep in self.lower)

    def survivors(self) -> frozenset[int]:
        """The faces on no edge."""
        return frozenset(indices_of(self._critical()))

    def _critical(self) -> int:
        """The faces on no edge as a bitset: all 2^r faces less every L_j
        and L_j << 2^j."""
        ends = 0
        for sweep in self.lower:
            for j, low in enumerate(sweep):
                ends |= low | low << (1 << j)
        return ((1 << (1 << self.r)) - 1) ^ ends

    def _steps(self) -> tuple[int, ...]:
        """L_j of each step j over all sweeps."""
        if len(self.lower) == 1:
            return self.lower[0]
        return tuple(reduce(or_, col, 0) for col in zip(*self.lower, [0] * self.r))


@dataclass(frozen=True)
class MatchingReport:
    is_matching: bool
    is_homogeneous: bool
    is_acyclic: bool

    @property
    def all_ok(self) -> bool:
        return self.is_matching and self.is_homogeneous and self.is_acyclic


def empty_matching(I: MonomialIdeal) -> Matching:
    return Matching(I.r)


@lru_cache(maxsize=4)
def _holders(r: int) -> tuple[int, ...]:
    """has[k] for each generator k, by doubling its period of 2^(k+1) faces,
    2^k without k and then 2^k with it."""
    out = []
    for k in range(r):
        bits = ((1 << (1 << k)) - 1) << (1 << k)
        while bits.bit_length() < 1 << r:  # the length is the period
            bits |= bits << bits.bit_length()
        out.append(bits)
    return tuple(out)


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
        for b in indices_of(g):
            mask &= held.get(b, 0)
        masks[j] = mask
        if above:
            read(j)
    setattr(tc, name, masks)
    return masks


def _sweep(masks: list[int], alive: int) -> list[int]:
    """One sweep of the survivor bitset `alive`, step j pruning the lower
    ends in `masks[j]` whose partner is alive: the lower ends L_j of each
    step.  A lower end lacks j and an upper end holds it, so no two
    candidates of a step share an end, and all are pruned at once."""
    lower = []
    for j, mask in enumerate(masks):
        w = 1 << j
        cand = alive & alive >> w & mask
        if cand:
            alive ^= cand | cand << w
        lower.append(cand)
    return lower


def _prune(r: int, masks: list[int]) -> Matching:
    return Matching(r, (_sweep(masks, (1 << (1 << r)) - 1),))


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


def prune_simplicial(I: MonomialIdeal) -> Matching:
    """Pruning filtered so the surviving faces stay closed under subsets.

    Each sweep first computes the plain pruning of the current subcomplex,
    then keeps only those edges (sigma, j) whose live cofaces sigma + e_k,
    k not in sigma and k != j, are all gone by the end of step j + 1,
    counting cells removed by kept edges of this sweep.  The filter is
    shrunk to a self-consistent fixpoint before the sweep is applied, and
    whole sweeps repeat until one prunes nothing.  A sweep that keeps an
    edge removes at least its two live ends, so that takes at most
    2^(r-1) + 1 sweeps.

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

    The filter runs on the step bitsets.  Let B_j be the faces still live
    after step j + 1, those alive when the sweep began less both ends of
    each edge kept at steps up to j + 1.  A lower end sigma of step j has a
    live coface sigma + e_k, k not in sigma, iff sigma lies in the OR over
    k of (B_j & has[k]) >> 2^k; k = j adds nothing, sigma + e_j being
    gone with its edge.
    """
    r = I.r
    masks, has = _step_masks(TaylorComplex(I)), _holders(I.r)
    alive, lower = (1 << (1 << r)) - 1, []
    while True:
        kept = _sweep(masks, alive)
        while True:
            live, ok = alive, []
            for j, low in enumerate(kept):
                live ^= low | low << (1 << j)
                if low:
                    cofaces = [(live & has[k]) >> (1 << k) for k in range(r)]
                    low &= ~reduce(or_, cofaces)
                ok.append(low)
            if ok == kept:
                break
            kept = ok
        if not any(kept):
            break
        lower.append(kept)
        alive ^= reduce(or_, [low | low << (1 << j) for j, low in enumerate(kept)])
    return Matching(r, tuple(lower))


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
    of each step j, whose edges are facet pairs (`Matching`).

    `is_matching`: no face lies on two edges (the L_j and L_j << 2^j of
    every sweep hold twice as many faces between them as there are edges,
    so 2^r less that many are on none), and `matching.r == I.r`.  A
    matching on another r makes all three verdicts False before any degree
    is read.

    `is_homogeneous`: both ends of every edge have the same lcm degree, read
    as each L_j lying in the step mask M_j of the module docstring.

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
    more than one walk over the nodes of its flow graph: one V-path of 140
    edges through the 6-faces at r = 12 takes about 10 ms, where Kahn's
    sort of the graph held as dicts took 0.8 ms, and one of 459 edges at
    r = 15 about 250 ms against 2.5 ms (CPython 3.11, one core).

    `r` must equal `I.r` (ValueError otherwise); it is read only for that.
    """
    if r != I.r:
        raise ValueError(f"r = {r} but the ideal has {I.r} generators")
    if matching.r != r:
        return MatchingReport(False, False, False)
    edges = sum(matching.sweeps)
    is_matching = matching._critical().bit_count() == (1 << r) - 2 * edges
    masks = _step_masks(TaylorComplex(I))
    is_homogeneous = not any(
        low & ~mask for sweep in matching.lower for low, mask in zip(sweep, masks)
    )
    is_acyclic = is_matching and _peel(matching._steps(), _holders(r))
    return MatchingReport(is_matching, is_homogeneous, is_acyclic)


def _peel(lower: tuple[int, ...], has: tuple[int, ...]) -> bool:
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


def _flow(steps: tuple[int, ...], critical: int) -> dict[int, dict[int, int]] | None:
    """The gradient flow of a matching, given the lower ends L_j of each
    step j and the critical cells as bitsets: flow[c] maps each critical
    cell to the summed weight of the V-paths from c down to it, for every
    matched-lower face c reachable from a facet of a critical cell.  None
    when those V-paths close into a cycle.

    A V-path steps from sigma in L_j to a facet f != sigma of its partner
    up = sigma + e_j, with weight -[up : sigma] * [up : f] in the signs of
    `taylor`.  The head f = up - e_b has weight (-1)^m, m the number of
    members of sigma strictly between b and j, so the weights are read in
    the same walk over sigma as the heads.  A critical head ends the path,
    a head in some L_j carries on along its own flow, and any other head,
    matched-upper, absorbs it.

    The roots, the matched-lower facets of critical cells, are one bitset:
    the faces of some L_j in the OR over b of (critical & has[b]) >> 2^b.
    A complex whose critical cells are closed under faces has none, and
    then the flow is empty.  The walk reads the bitsets as bytes: a head is
    a node when its bit is set in the OR of the L_j, and a node's step j
    is the first whose L_j has its bit.

    The flow is summed in one post-order walk from the roots, on a stack
    rather than by recursion, since a V-path can be longer than the
    recursion limit.  A node's arcs are built on its first visit, which
    opens it, and its flow is summed once each node among its heads has
    one.  Every entry above an open node on the stack was pushed from one
    of its descendants, so a head that is open but has no flow closes a
    V-path."""
    r = len(steps)
    has = _holders(r)
    nodes = reduce(or_, steps, 0)
    roots = nodes & reduce(or_, [(critical & has[b]) >> (1 << b) for b in range(r)], 0)
    flow: dict[int, dict[int, int]] = {}
    if not roots:
        return flow
    size = ((1 << r) + 7) >> 3
    is_node = nodes.to_bytes(size, "little")
    is_critical = critical.to_bytes(size, "little")
    step_bytes = [low.to_bytes(size, "little") for low in steps]
    arcs: dict[int, list[tuple[int, int]]] = {}  # (head, weight) of the open nodes
    stack = indices_of(roots)
    while stack:
        cell = stack[-1]
        if cell in flow:
            stack.pop()
        elif cell in arcs:
            stack.pop()
            total: dict[int, int] = {}
            for f, w in arcs.pop(cell):
                reached = flow.get(f)
                if reached is not None:
                    for c, v in reached.items():
                        total[c] = total.get(c, 0) + w * v
                elif is_critical[f >> 3] >> (f & 7) & 1:
                    total[f] = total.get(f, 0) + w
            flow[cell] = total
        else:
            at, bit, j = cell >> 3, 1 << (cell & 7), 0
            while not step_bytes[j][at] & bit:
                j += 1
            up = cell | 1 << j
            # up less the t-th member b of sigma: t members of sigma lie
            # below b and `below` below j, so below - t - 1 lie between them
            # when t < below, else t - below
            below = (cell & (1 << j) - 1).bit_count()
            arcs[cell] = out = [
                (up ^ 1 << b, -1 if (below - t - (t < below)) & 1 else 1)
                for t, b in enumerate(indices_of(cell))
            ]
            for f, _ in out:
                if is_node[f >> 3] >> (f & 7) & 1 and f not in flow:
                    if f in arcs:
                        return None
                    stack.append(f)
    return flow


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
