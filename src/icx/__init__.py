"""Index coding toolkit: instances, linear schemes, feasibility, bounds, oracles."""

from .alignment import (
    AlignmentPartition,
    FeasibilityVerdict,
    build_rate_half_vector_scheme,
    build_scalar_scheme,
    check_feasibility,
    partition,
)
from .bounds import BoundCertificate, chain_bounds, simple_bounds, symmetric_capacity
from .galois import (
    BinaryField,
    Matrix,
    PrimeField,
    Subspace,
    mds_vector_family,
    spread_family,
)
from .model import (
    Destination,
    FamilyTag,
    Instance,
    RateVector,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
    load_instance,
    normalize,
    parse_instance,
    save_instance,
    serialize_instance,
    validate,
)
from .oracle import OracleResult, best_scalar_scheme, minrank_gf2
from .scheme import (
    DimensionAudit,
    LinearScheme,
    VerificationReport,
    dimension_audit,
    load_scheme,
    parse_scheme,
    save_scheme,
    serialize_scheme,
    simulate_exhaustive,
    simulate_sampled,
    synthesize_decoders,
    verify,
)
from .symmetric import (
    BuiltinExample,
    build_antidote_scheme,
    build_interference_scheme,
    build_x_scheme,
    builtin_example,
)
from .unicast import (
    UnicastMap,
    groupcast_rank_chain,
    scheme_to_groupcast,
    scheme_to_unicast,
    to_unicast,
)

__version__ = "0.1.0"
