"""Cellular free resolutions of monomial ideals by pruning the Taylor complex."""

from .betti import (
    BettiTable,
    betti_of_complex,
    hochster_betti,
    render_betti,
    tor_betti,
)
from .ideals import (
    builtin_ideal,
    cycle_ideal,
    edge_ideal,
    example_4_1_ideal,
    parse_ideal,
    path_ideal,
    rp2_ideal,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    divides,
    lcm,
    minimal_generators,
    polarize,
)
from .morse import (
    ChainComplex,
    check_d_squared,
    check_exactness,
    check_minimal,
    critical_complex,
    morse_differential,
)
from .pruning import (
    Matching,
    empty_matching,
    partial_prune_intersection,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
    verify_matching,
)
from .splitting import (
    check_last_generator,
    check_pruned_splitting,
    classify_regions,
)
from .taylor import TaylorComplex

__all__ = [
    "BettiTable",
    "ChainComplex",
    "Matching",
    "Monomial",
    "MonomialIdeal",
    "TaylorComplex",
    "betti_of_complex",
    "builtin_ideal",
    "check_d_squared",
    "check_exactness",
    "check_last_generator",
    "check_minimal",
    "check_pruned_splitting",
    "classify_regions",
    "critical_complex",
    "cycle_ideal",
    "divides",
    "edge_ideal",
    "empty_matching",
    "example_4_1_ideal",
    "hochster_betti",
    "lcm",
    "minimal_generators",
    "morse_differential",
    "parse_ideal",
    "partial_prune_intersection",
    "path_ideal",
    "polarize",
    "prune_lyubeznik",
    "prune_simplicial",
    "prune_taylor",
    "render_betti",
    "rp2_ideal",
    "tor_betti",
    "verify_matching",
]
