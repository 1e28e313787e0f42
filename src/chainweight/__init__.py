"""Exact chain-weight bounds and ell-chain optimization over the Boolean lattice."""

from .binom import binomial, binomial_row, chain_weight
from .chaincount import (
    ChainCountResult,
    SearchBudgetExceeded,
    best_window_for_chains,
    count_chains_levels,
    optimal_levels_for_chains,
    window_chain_count,
)
from .conditions import (
    Antichain,
    Condition,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    allowed_levels,
    forbidden_pair,
    is_chain_dependent,
    level_conflicts,
    load_custom_condition,
)
from .families import (
    FamilyMask,
    count_chains_family,
    family_satisfies,
    max_chains_family,
    max_family,
)
from .levelbounds import (
    BoundResult,
    best_ratio_window,
    erdos_bound,
    integer_ratio_levels,
    katona_bound,
    ratio_window_weight,
    residue_class_weights,
    size_bound,
    sperner_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Antichain",
    "BoundResult",
    "ChainCountResult",
    "Condition",
    "CustomPairwise",
    "ErdosWindow",
    "FamilyMask",
    "IntegerRatio",
    "KatonaGap",
    "RatioLambda",
    "SearchBudgetExceeded",
    "allowed_levels",
    "best_ratio_window",
    "best_window_for_chains",
    "binomial",
    "binomial_row",
    "chain_weight",
    "count_chains_family",
    "count_chains_levels",
    "erdos_bound",
    "family_satisfies",
    "forbidden_pair",
    "integer_ratio_levels",
    "is_chain_dependent",
    "katona_bound",
    "level_conflicts",
    "load_custom_condition",
    "max_chains_family",
    "max_family",
    "optimal_levels_for_chains",
    "ratio_window_weight",
    "residue_class_weights",
    "size_bound",
    "sperner_bound",
    "window_chain_count",
]
