"""Exponential stabilization of QND measurement eigenstates by noise-assisted feedback.

Simulation and verification toolkit for continuous quantum measurement with
a Brownian-modulated control Hamiltonian: trajectory integration (open loop
and noise-assisted closed loop), state estimators (full observer, reduced
filter, population filter), Lyapunov machinery (graph-Laplacian alpha
weights, generator decomposition, sampled decay certification), and
ensemble campaigns with deterministic seeding.
"""

from .core import (
    SpectralDecomposition,
    UnrecoverableStateError,
    dissipator,
    hermitian_part,
    innovation_superop,
    populations,
    project_to_physical,
    random_density_matrix,
    random_hermitian,
    random_simplex,
    spectral_decomposition,
    trace,
    unitary_conjugate,
    validate_density_matrix,
    validate_hermitian,
)
from .dynamics import (
    SATURATIONS,
    ControlSetup,
    MeasurementSetup,
    StepInput,
    StepOutput,
    closed_loop_step,
    control_setup,
    feedback_gain,
    measurement_setup,
    open_loop_step,
)
from .ensemble import (
    DEFAULT_SEED,
    ESTIMATORS,
    CampaignConfig,
    DelayedGainBuffer,
    EnsembleResult,
    FitDomainError,
    TrajectoryTrace,
    estimate_rate,
    noise_generator,
    read_series_csv,
    read_summary_csv,
    resolve_setups,
    run_ensemble,
    run_trajectory,
    write_series_csv,
    write_summary_csv,
)
from .filters import (
    full_observer_step,
    graph_connected,
    laplacian_matrix,
    population_filter_step,
    reduced_filter_step,
)
from .lyapunov import (
    AlphaWeights,
    CertificateReport,
    CertificationImpossibleError,
    EvaluatedAtTargetError,
    GeneratorTerms,
    StratumResult,
    XiDriftReport,
    certificate_to_csv,
    certify_decay,
    default_beta,
    equivalence_constants,
    generator_terms,
    open_loop_rate,
    solve_alpha,
    v_alpha,
    v_open,
    xi_dynamics_check,
)
from .spin import DEFAULT_EFFICIENCY, SpinModel, build_spin_model, spin2_preset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "SpectralDecomposition",
    "UnrecoverableStateError",
    "dissipator",
    "hermitian_part",
    "innovation_superop",
    "populations",
    "project_to_physical",
    "random_density_matrix",
    "random_hermitian",
    "random_simplex",
    "spectral_decomposition",
    "trace",
    "unitary_conjugate",
    "validate_density_matrix",
    "validate_hermitian",
    # dynamics
    "SATURATIONS",
    "ControlSetup",
    "MeasurementSetup",
    "StepInput",
    "StepOutput",
    "closed_loop_step",
    "control_setup",
    "feedback_gain",
    "measurement_setup",
    "open_loop_step",
    # filters
    "full_observer_step",
    "graph_connected",
    "laplacian_matrix",
    "population_filter_step",
    "reduced_filter_step",
    # lyapunov
    "AlphaWeights",
    "CertificateReport",
    "CertificationImpossibleError",
    "EvaluatedAtTargetError",
    "GeneratorTerms",
    "StratumResult",
    "XiDriftReport",
    "certificate_to_csv",
    "certify_decay",
    "default_beta",
    "equivalence_constants",
    "generator_terms",
    "open_loop_rate",
    "solve_alpha",
    "v_alpha",
    "v_open",
    "xi_dynamics_check",
    # spin
    "DEFAULT_EFFICIENCY",
    "SpinModel",
    "build_spin_model",
    "spin2_preset",
    # ensemble
    "DEFAULT_SEED",
    "ESTIMATORS",
    "CampaignConfig",
    "DelayedGainBuffer",
    "EnsembleResult",
    "FitDomainError",
    "TrajectoryTrace",
    "estimate_rate",
    "noise_generator",
    "read_series_csv",
    "read_summary_csv",
    "resolve_setups",
    "run_ensemble",
    "run_trajectory",
    "write_series_csv",
    "write_summary_csv",
]
