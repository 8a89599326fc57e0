"""Key rates and finite-size analysis for relay-based CV QKD.

Asymptotic and finite-size secret-key rates for continuous-variable
measurement-device-independent QKD under two-mode Gaussian attacks, plus a
Monte Carlo validation of the channel-parameter estimators.
"""

from .channel import (
    ChannelParams,
    db_to_transmissivity,
    eve_cm,
    NoiseVars,
    noise_from_attack,
    optimal_two_mode_attack,
)
from .errors import (
    ConfigurationError,
    CVMDIError,
    DatasetError,
    DomainError,
    NumericalDegeneracyError,
    PhysicalityError,
)
from .estimation import (
    BlockMoments,
    estimate_channel,
    estimate_covariances,
    estimate_excess_noise,
    estimate_transmissivities,
    EstimationReport,
    QuadratureDataset,
    report_from_parameters,
    transmissivities_per_quadrature,
)
from .finite_size import (
    finite_size_key_rate,
    finite_size_penalty,
    finite_size_rate,
    FiniteSizeParams,
    FiniteSizeRate,
    projected_key_rate,
)
from .gaussian import (
    entropy_term,
    is_physical,
    symplectic_eigenvalues,
    symplectic_form,
    tmsv_cm,
    von_neumann_entropy,
)
from .keyrate import (
    asymptotic_key_rate,
    ConditionalState,
    conditional_cms,
    holevo_bound,
    key_rate_breakdown,
    mutual_information,
    ProtocolParams,
    RateBreakdown,
)
from .optimizer import (
    default_r_grid,
    default_v_m_grid,
    optimize_asymptotic,
    optimize_key_rate,
    optimize_lockstep,
    OptimizationResult,
    OptimizationSpec,
)
from .simulator import (
    run_trials,
    sample_dataset,
    sample_moments,
    SimulationSpec,
    TrialStatistics,
)

__version__ = "0.1.0"

__all__ = [
    "asymptotic_key_rate",
    "BlockMoments",
    "ChannelParams",
    "conditional_cms",
    "ConditionalState",
    "ConfigurationError",
    "CVMDIError",
    "DatasetError",
    "db_to_transmissivity",
    "default_r_grid",
    "default_v_m_grid",
    "DomainError",
    "entropy_term",
    "estimate_channel",
    "estimate_covariances",
    "estimate_excess_noise",
    "estimate_transmissivities",
    "EstimationReport",
    "eve_cm",
    "finite_size_key_rate",
    "finite_size_penalty",
    "finite_size_rate",
    "FiniteSizeParams",
    "FiniteSizeRate",
    "holevo_bound",
    "is_physical",
    "key_rate_breakdown",
    "mutual_information",
    "NoiseVars",
    "noise_from_attack",
    "NumericalDegeneracyError",
    "optimal_two_mode_attack",
    "OptimizationResult",
    "OptimizationSpec",
    "optimize_asymptotic",
    "optimize_key_rate",
    "optimize_lockstep",
    "PhysicalityError",
    "projected_key_rate",
    "ProtocolParams",
    "QuadratureDataset",
    "RateBreakdown",
    "report_from_parameters",
    "run_trials",
    "sample_dataset",
    "sample_moments",
    "SimulationSpec",
    "symplectic_eigenvalues",
    "symplectic_form",
    "tmsv_cm",
    "transmissivities_per_quadrature",
    "TrialStatistics",
    "von_neumann_entropy",
]
