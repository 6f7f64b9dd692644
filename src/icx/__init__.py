"""Index coding toolkit: instances, linear schemes, feasibility, bounds, oracles.

Each public name is imported from its submodule on first use (PEP 562), so
``import icx`` is cheap and ``from icx import X`` loads only what X needs.
"""

import importlib

_EXPORTS = {
    "alignment": (
        "AlignmentPartition",
        "FeasibilityVerdict",
        "build_rate_half_vector_scheme",
        "build_scalar_scheme",
        "check_feasibility",
        "partition",
    ),
    "bounds": ("BoundCertificate", "chain_bounds", "simple_bounds", "symmetric_capacity"),
    "galois": (
        "BinaryField",
        "Matrix",
        "PrimeField",
        "Subspace",
        "mds_vector_family",
        "spread_family",
    ),
    "model": (
        "Destination",
        "FamilyTag",
        "Instance",
        "RateVector",
        "gen_neighboring_antidotes",
        "gen_neighboring_interference",
        "gen_x_network",
        "load_instance",
        "normalize",
        "parse_instance",
        "save_instance",
        "serialize_instance",
        "validate",
    ),
    "oracle": ("OracleResult", "best_scalar_scheme", "minrank_gf2"),
    "scheme": (
        "DimensionAudit",
        "LinearScheme",
        "VerificationReport",
        "dimension_audit",
        "load_scheme",
        "parse_scheme",
        "save_scheme",
        "serialize_scheme",
        "simulate_exhaustive",
        "simulate_sampled",
        "synthesize_decoders",
        "verify",
    ),
    "symmetric": (
        "BuiltinExample",
        "build_antidote_scheme",
        "build_interference_scheme",
        "build_x_scheme",
        "builtin_example",
    ),
    "unicast": (
        "UnicastMap",
        "groupcast_rank_chain",
        "scheme_to_groupcast",
        "scheme_to_unicast",
        "to_unicast",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return list(__all__)
