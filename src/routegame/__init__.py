"""Atomic selfish routing with bulk-discount edge pricing.

The package's names resolve on first use: `import routegame` imports no
submodule, and reading a name imports only the module that defines it.
"""

from importlib import import_module

# Each public name, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "braess": "BraessReport build_classic_braess build_priced_braess"
        " edge_addition_experiment rho_formula",
        "engine": "DynamicsConfig DynamicsResult ProfileCosts StrategyProfile"
        " run_best_response_dynamics",
        "model": "Commodity EdgeSpec GameInstance PathEnumerationError ScenarioError"
        " enumerate_paths parse_scenario prepare profile_count serialize_scenario"
        " validate_instance",
        "oracle": "POA_BOUND PoAReport price_of_anarchy",
        "pricing": "PRICE_FAMILIES PriceSpec eval_F eval_u",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(
    "braess cli engine model oracle pricing random_instances search".split()
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)
