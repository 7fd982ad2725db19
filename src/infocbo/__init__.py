"""Consensus-based optimization with an evolving per-agent information rate.

Each agent carries a position and an information level lambda in [0, 1] that
interpolates its drift between the ensemble mean (lambda = 0) and the
Gibbs-weighted consensus point (lambda = 1); lambda itself relaxes under a
population-coupled rate law. The package simulates the interacting particle
system, measures it, and checks the behavior the theory promises: mean decay,
second-moment ceilings, persistence of information, mass floors near the
minimizer, and the mean-field weak-form residual.
"""

__version__ = "0.1.0"

from .gibbs import (
    ConsensusParams,
    cutoff_eta,
    drift,
    weighted_consensus,
)
from .infokernel import (
    KernelSpec,
    PopulationSummary,
    check_kernel_contract,
    eval_kernel,
    logistic_closed_form,
)
from .measures import (
    EmpiricalMeasure,
    mean_point,
    phi_r_expectation,
)
from .objectives import (
    ObjectiveSpec,
    ObservableMap,
    custom_objective,
    quadratic,
    rastrigin_like,
    verify_growth,
)
from .sde import (
    ConfigError,
    Ensemble,
    InitialLaw,
    SimConfig,
    SimulationError,
    em_step,
    simulate,
)
from .trajectory import TrajectoryRecord
from .diagnostics import (
    DiagnosticsError,
    Parts,
    TestFunction,
    concentration_sweep,
    g_phi_replica_residuals,
    g_phi_residual,
    g_phi_scaling_study,
    gaussian_bump,
    lambda_persistence_check,
    mass_bound_fit,
    mean_decay_check,
    second_moment_bound_check,
    second_moment_constant,
)
