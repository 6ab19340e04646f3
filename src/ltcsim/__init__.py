"""Liquid time-constant network simulation, approximation and verification."""

from .approx import (
    ApproximationReport,
    AugmentedSystem,
    FeedForwardApprox,
    PipelineConfig,
    VectorField,
    approximate_trajectory,
    assemble_augmented_system,
    augmented_rhs,
    check_tau_conditions,
    estimate_gtilde_lipschitz,
    estimate_lipschitz,
    feedforward_eval,
    fit_feedforward,
    realize_as_ltc,
)
from .errors import (
    ConditionsViolatedError,
    DimensionMismatchError,
    DomainError,
    ExprError,
    FormatError,
    IntegrationDivergedError,
    LtcError,
    RankDeficiencyError,
    RealizationError,
    TopologyError,
    UnsupportedTopologyError,
)
from .expr import compile_expression, parse_expression, parse_field
from .io import (
    parse_network,
    read_network,
    read_trajectory,
    serialize_network,
    trajectory_from_csv,
    trajectory_to_csv,
    write_network,
    write_trajectory,
)
from .model import (
    ChemicalSynapse,
    GapJunction,
    LtcNetwork,
    NeuronParams,
    chemical_current,
    effective_time_constant,
    gap_current,
    network_derivative,
    neuron_derivative,
    sigmoid_activation,
    validate_state,
)
from .solver import (
    Method,
    SolverConfig,
    Trajectory,
    integrate_field,
    simulate,
)
from .verify import (
    StateBox,
    TauInterval,
    Violation,
    ViolationKind,
    ViolationReport,
    conservation_check,
    monitor_trajectory,
    random_network,
    state_bounds,
    tau_bounds,
)

__version__ = "0.1.0"
