"""Betti splittings via pruning: region decomposition, the intersection ideal,
the same-region sufficiency check, and the last-generator shortcut.

A split point s cuts I = J + K, J on the first s generators and K on the
rest.  A face of the Taylor complex of I lies in X_J when it holds no
generator of K, in X_K when it holds none of J, and in X' when it meets
both.  When no pruned edge of I crosses between these regions, the pruned
matching of I restricted to X_J is that of J, and restricted to X_K that of
K (`check_pruned_splitting` proves it), so the splitting formula reduces to
I's critical cells in X' against the pruned table of J cap K, and J and K
are never pruned on their own."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

from .betti import BettiTable, betti_of_complex
from .monomials import MonomialIdeal, minimal_generators
from .morse import critical_complex
from .pruning import Matching, intersection_generators, prune_taylor
from .taylor import GENERATOR_CAP, TaylorComplex, indices_of

X_J = "X_J"
X_K = "X_K"
X_PRIME = "X'"


def classify_regions(r: int, s: int, sigma: int) -> str:
    """Region of a face for the split J = first s generators, K = the rest.

    The empty face counts as X_J; it is never a pruned-edge endpoint, so the
    convention is inert.
    """
    if not 1 <= s <= r - 1:
        raise ValueError(f"split point {s} out of range for {r} generators")
    j_mask = (1 << s) - 1
    return _region(j_mask, ((1 << r) - 1) ^ j_mask, sigma)


def _region(j_mask: int, k_mask: int, sigma: int) -> str:
    if sigma & k_mask == 0:
        return X_J
    if sigma & j_mask == 0:
        return X_K
    return X_PRIME


def split_parts(I: MonomialIdeal, s: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    if not 1 <= s <= I.r - 1:
        raise ValueError(f"split point {s} out of range for {I.r} generators")
    J = MonomialIdeal(I.variables, I.generators[:s])
    K = MonomialIdeal(I.variables, I.generators[s:])
    return J, K


def _pruned_table(I: MonomialIdeal) -> BettiTable:
    return betti_of_complex(critical_complex(I, prune_taylor(I), validate=False))


@dataclass(frozen=True)
class SplitReport:
    s: int
    is_pruned_splitting: bool
    edge_regions: tuple[tuple[tuple[int, int], str, str], ...]
    residuals: dict[tuple[int, tuple[int, ...]], int] | None
    grid_matches_minimal: bool | None

    @property
    def residuals_zero(self) -> bool:
        return self.residuals is not None and not any(self.residuals.values())


def _refuse_wide_grid(r: int, s: int) -> None:
    """ValueError when J cap K, for the split of r generators at s, has
    more than GENERATOR_CAP generators: it is generated by the s * (r - s)
    pairwise lcms, and its Taylor complex is built in full."""
    grid = s * (r - s)
    if grid > GENERATOR_CAP:
        raise ValueError(
            f"refusing split point s={s}: the intersection grid has {grid}"
            f" generators (2^{grid} faces); pass --force (force=True) to override"
        )


def check_pruned_splitting(
    I: MonomialIdeal, s: int, *, force: bool = False
) -> SplitReport:
    """Label every pruned edge of I by its endpoint regions; if all edges
    stay inside one region, verify the splitting formula on pruned Betti
    tables.  `_check_splittings` at the one point s.

    The formula compares, for homological degree h >= 1,
    table(I) against table(J) + table(K) + table(J cap K) shifted up by one
    homological degree (the intersection's empty-face row does not shift).
    When no edge crosses, I's critical cells in X_J are J's, and those in
    X_K are K's, shifted by s bits with the same degrees.  So the residual
    of the formula is I's critical cells in X', counted by (|sigma|,
    degree), less the shifted table of the J cap K grid, and only the grid
    and its minimalization are pruned.

    Step j of the sweep of I prunes edges sigma -> sigma + e_j, j not in
    sigma, and the empty face is on no edge.  An upper end holds j, so:

    - A step j < s, a step of J, meets X_J only on edges with both ends
      in X_J; an edge from X_K at such a step crosses into X'.  These
      steps all run before any step that could cross out of X_J.
    - A step j >= s, a step of K, meets X_K only on edges with both ends
      in X_K; an edge from X_J at such a step crosses into X'.  So before
      step s, a face of X_K can lose its partner only through a crossing
      edge.
    - Whether a step prunes an edge depends on the degrees of its ends,
      which are the same in I, J and K, and on both ends being alive.
      With no crossing edge, by induction over the steps, the faces of
      X_J alive at each step are those alive in J's sweep, and the faces
      of X_K, all alive when step s begins, are those alive in K's sweep,
      so both prune the same edges there.

    A split point out of range, or one whose intersection grid has more
    than GENERATOR_CAP generators, raises `ValueError` before any table is
    built; `force` lifts the grid check.
    """
    return _check_splittings(I, [s], force=force)[0]


def _check_splittings(
    I: MonomialIdeal, points: list[int], *, force: bool = False
) -> list[SplitReport]:
    """`check_pruned_splitting` at each split point of `points`, in order.
    Every point is refused, as out of range or, without `force`, for a
    grid over the cap, before any work, so a scan reports no point first.
    Then I is swept once, and its matching serves every point."""
    parts = [split_parts(I, s) for s in points]
    if not force:
        for s in points:
            _refuse_wide_grid(I.r, s)
    matching = prune_taylor(I)
    return [
        _split_report(I, s, J, K, matching) for s, (J, K) in zip(points, parts)
    ]


def _split_report(
    I: MonomialIdeal, s: int, J: MonomialIdeal, K: MonomialIdeal, matching: Matching
) -> SplitReport:
    """The report of `check_pruned_splitting` at s, for I = J + K, read from
    the pruned matching of I."""
    j_mask = (1 << s) - 1
    k_mask = ((1 << I.r) - 1) ^ j_mask
    region = partial(_region, j_mask, k_mask)
    regions = tuple(
        ((sigma, j), region(sigma), region(sigma | 1 << j))
        for sigma, j in matching.edges
    )
    if any(lo != hi for _, lo, hi in regions):
        return SplitReport(s, False, regions, None, None)
    tc = TaylorComplex(I)
    cells = Counter(
        (sigma.bit_count(), tc.exponents(sigma))
        for sigma in indices_of(matching._critical())
        if sigma & j_mask and sigma & k_mask
    )
    JK = intersection_generators(J, K)
    t_jk = _pruned_table(JK)
    for (h, alpha), n in t_jk.multigraded.items():
        if h:
            cells[h + 1, alpha] -= n
    residuals = {key: n for key, n in cells.items() if n}
    # a grid that is its own minimalization is not pruned a second time
    minimal = minimal_generators(JK)
    grid_matches_minimal = minimal == JK or t_jk.same_entries(_pruned_table(minimal))
    return SplitReport(s, True, regions, residuals, grid_matches_minimal)


def check_last_generator(I: MonomialIdeal) -> bool:
    """True iff the pruned matching never prunes at the final step, its last
    bitset of lower ends being empty; this is the sufficient condition for
    splitting off the last generator."""
    if I.r < 2:
        raise ValueError("need at least two generators")
    return not any(sweep[-1] for sweep in prune_taylor(I).lower)
