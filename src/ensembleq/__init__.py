"""Quantumness measures for ensembles of quantum states.

The package quantifies how non-classical an ensemble is by how much any
symmetric multi-site extension with pinned marginals must inflate ensemble
distinguishability measures: commuting ensembles extend for free, while
non-commuting ones always pay a strictly positive premium.  Supporting tools
cover density-matrix numerics, quantum channels with the canonical recovery
map, a qubit pair-transformation feasibility test, and accessible-information
optimization.
"""

from .densmat import (
    DensityMatrix,
    DimensionProfile,
    eig_hermitian,
    embed_at_site,
    fidelity,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    partial_trace,
    relative_entropy,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from .ensemble import (
    BroadcastReport,
    Ensemble,
    build_flagged_state,
    classical_broadcast,
    holevo,
    is_broadcastable,
    shannon_entropy,
)
from .errors import (
    EnsembleQError,
    InvalidInput,
    NumericalFailure,
    PreconditionViolated,
    ResourceLimit,
)
from .extopt import (
    ExtensionSet,
    QuantumnessReport,
    chi_gradient,
    chi_objective,
    chi_q,
    chi_q_infinite_pure,
    fidelity_q,
    project_feasible,
)
from .recovery import (
    AuReport,
    Channel,
    ExampleStates,
    apply_channel,
    au_feasible,
    identity_channel,
    orthogonal_pair_example,
    partial_trace_channel,
    petz_map,
)
from .accinfo import (
    AccInfoReport,
    OptimizerConfig,
    Povm,
    PureLimitReport,
    accessible_information,
    fuchs_quantumness,
    mutual_information,
    pure_limit_identities,
)
from .rand import (
    random_commuting_states,
    random_density_matrix,
    random_hermitian,
    random_kraus,
    random_probabilities,
    random_pure_state,
    random_unitary,
    rng_from,
)

__version__ = "0.1.0"

__all__ = [
    "AccInfoReport",
    "AuReport",
    "BroadcastReport",
    "Channel",
    "DensityMatrix",
    "DimensionProfile",
    "Ensemble",
    "EnsembleQError",
    "ExampleStates",
    "ExtensionSet",
    "InvalidInput",
    "NumericalFailure",
    "OptimizerConfig",
    "Povm",
    "PreconditionViolated",
    "PureLimitReport",
    "QuantumnessReport",
    "ResourceLimit",
    "accessible_information",
    "apply_channel",
    "au_feasible",
    "build_flagged_state",
    "chi_gradient",
    "chi_objective",
    "chi_q",
    "chi_q_infinite_pure",
    "classical_broadcast",
    "eig_hermitian",
    "embed_at_site",
    "fidelity",
    "fidelity_q",
    "fuchs_quantumness",
    "holevo",
    "identity_channel",
    "is_broadcastable",
    "matrix_from_json",
    "matrix_function",
    "matrix_to_json",
    "mutual_information",
    "orthogonal_pair_example",
    "partial_trace",
    "partial_trace_channel",
    "petz_map",
    "project_feasible",
    "pure_limit_identities",
    "random_commuting_states",
    "random_density_matrix",
    "random_hermitian",
    "random_kraus",
    "random_probabilities",
    "random_pure_state",
    "random_unitary",
    "relative_entropy",
    "rng_from",
    "shannon_entropy",
    "tensor",
    "trace_norm",
    "von_neumann_entropy",
]
