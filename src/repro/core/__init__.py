"""Core model and algorithms of the paper.

Everything in Sections II–V lives here: the matching-network model, the
constraint/violation engine, probability computation (exact and sampled),
uncertainty reduction, and instantiation.
"""

from .constraints import (
    Constraint,
    ConstraintCompilationWarning,
    MutualExclusionConstraint,
    ConstraintEngine,
    CycleConstraint,
    OneToOneConstraint,
    Violation,
    default_constraints,
)
from .correspondence import CandidateSet, Correspondence, correspondence
from .delta import DeltaResult, NetworkDelta, apply_network_delta
from .feedback import Feedback, MajorityOracle, NoisyOracle, Oracle
from .graphs import (
    InteractionGraph,
    complete_graph,
    erdos_renyi_graph,
    path_graph,
    ring_graph,
    star_graph,
)
from .instances import (
    InconsistentFeedbackError,
    count_instances,
    enumerate_instances,
    exact_probabilities,
    is_matching_instance,
)
from .instantiation import (
    exact_instantiate,
    instantiate,
    log_likelihood,
    repair_distance,
)
from .network import MatchingNetwork
from .probability import (
    ExactEstimator,
    ProbabilisticNetwork,
    ProbabilityEstimator,
    SampledEstimator,
)
from .reconciliation import (
    ReconciliationSession,
    ReconciliationStep,
    ReconciliationTrace,
    resolve_conflicting_approval,
)
from .repair import (
    UnrepairableError,
    greedy_maximalize,
    greedy_maximalize_mask,
    repair,
    repair_mask,
    wave_maximalize_rows,
)
from .sampling import InstanceSampler, SampleStore, symmetric_difference_size
from .schema import Attribute, Schema, validate_disjoint
from .selection import (
    ConfidenceSelection,
    rank_by_information_gain,
    EntropySelection,
    InformationGainSelection,
    LikelihoodSelection,
    RandomSelection,
    SelectionStrategy,
)
from .uncertainty import (
    binary_entropy,
    binary_entropy_cached,
    conditional_uncertainty,
    information_gain,
    information_gain_array,
    information_gains,
    network_uncertainty,
    network_uncertainty_vector,
    probabilities_from_samples,
    sample_matrix,
)

__all__ = [
    "Attribute",
    "CandidateSet",
    "ConfidenceSelection",
    "Constraint",
    "ConstraintCompilationWarning",
    "ConstraintEngine",
    "Correspondence",
    "CycleConstraint",
    "DeltaResult",
    "EntropySelection",
    "ExactEstimator",
    "Feedback",
    "InconsistentFeedbackError",
    "InformationGainSelection",
    "InstanceSampler",
    "InteractionGraph",
    "LikelihoodSelection",
    "MajorityOracle",
    "MatchingNetwork",
    "MutualExclusionConstraint",
    "NetworkDelta",
    "NoisyOracle",
    "OneToOneConstraint",
    "Oracle",
    "ProbabilisticNetwork",
    "ProbabilityEstimator",
    "RandomSelection",
    "ReconciliationSession",
    "ReconciliationStep",
    "ReconciliationTrace",
    "SampleStore",
    "SampledEstimator",
    "Schema",
    "SelectionStrategy",
    "UnrepairableError",
    "Violation",
    "apply_network_delta",
    "binary_entropy",
    "binary_entropy_cached",
    "complete_graph",
    "conditional_uncertainty",
    "correspondence",
    "count_instances",
    "default_constraints",
    "enumerate_instances",
    "erdos_renyi_graph",
    "exact_instantiate",
    "exact_probabilities",
    "greedy_maximalize",
    "greedy_maximalize_mask",
    "information_gain",
    "information_gain_array",
    "information_gains",
    "instantiate",
    "is_matching_instance",
    "log_likelihood",
    "network_uncertainty",
    "network_uncertainty_vector",
    "path_graph",
    "probabilities_from_samples",
    "rank_by_information_gain",
    "repair",
    "resolve_conflicting_approval",
    "repair_distance",
    "repair_mask",
    "ring_graph",
    "sample_matrix",
    "star_graph",
    "symmetric_difference_size",
    "validate_disjoint",
    "wave_maximalize_rows",
]
