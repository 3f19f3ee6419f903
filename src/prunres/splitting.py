"""Betti splittings via pruning: region decomposition, the intersection ideal,
the same-region sufficiency check, and the last-generator shortcut."""
from __future__ import annotations

from dataclasses import dataclass

from .betti import BettiTable, betti_of_complex
from .monomials import MonomialIdeal, minimal_generators
from .morse import critical_complex
from .pruning import intersection_generators, prune_taylor

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
    k_mask = ((1 << r) - 1) & ~j_mask
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


def check_pruned_splitting(I: MonomialIdeal, s: int) -> SplitReport:
    """Label every pruned edge by its endpoint regions; if all edges stay
    inside one region, verify the splitting formula on pruned Betti tables.

    The formula compares, for homological degree h >= 1,
    table(I) against table(J) + table(K) + table(J cap K) shifted up by one
    homological degree (the intersection's empty-face row does not shift).
    """
    r = I.r
    J, K = split_parts(I, s)
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


def check_last_generator(I: MonomialIdeal) -> bool:
    """True iff the pruned matching never prunes at the final step; this is
    the sufficient condition for splitting off the last generator."""
    if I.r < 2:
        raise ValueError("need at least two generators")
    return all(j != I.r - 1 for _, j in prune_taylor(I).edges)
