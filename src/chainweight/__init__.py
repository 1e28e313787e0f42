"""Exact chain-weight bounds and ell-chain optimization over the Boolean lattice.

Public names load on first use (PEP 562): `import chainweight` compiles no
submodule, and `chainweight.X` imports only the submodule that defines X.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule with the public names it defines.
_EXPORTS = {
    "binom": ("binomial", "binomial_row", "chain_weight"),
    "chaincount": (
        "ChainCountResult",
        "best_window_for_chains",
        "count_chains_levels",
        "optimal_levels_for_chains",
        "window_chain_count",
    ),
    "conditions": (
        "Antichain",
        "Condition",
        "CustomPairwise",
        "ErdosWindow",
        "IntegerRatio",
        "KatonaGap",
        "RatioLambda",
        "allowed_levels",
        "forbidden_pair",
        "is_chain_dependent",
        "level_conflicts",
        "load_custom_condition",
    ),
    "families": (
        "FamilyMask",
        "count_chains_family",
        "family_satisfies",
        "max_chains_family",
        "max_family",
    ),
    "levelbounds": (
        "BoundResult",
        "SearchBudgetExceeded",
        "best_ratio_window",
        "erdos_bound",
        "integer_ratio_levels",
        "katona_bound",
        "ratio_window_weight",
        "residue_class_weights",
        "size_bound",
        "sperner_bound",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
