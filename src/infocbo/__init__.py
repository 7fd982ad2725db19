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
    DriftParams,
    cutoff_eta,
    cutoff_phi_measure,
    drift,
    gibbs_weights,
    truncated_drift,
    weighted_consensus,
)
from .infokernel import (
    KernelSpec,
    PopulationSummary,
    check_kernel_contract,
    eval_kernel,
    logistic_closed_form,
    max_stable_step,
)
from .measures import (
    EmpiricalMeasure,
    alpha_r,
    mass_in_ball,
    mean_point,
    moment_p,
    phi_r_expectation,
    w1_exact,
    w1_sliced,
)
from .objectives import (
    ObjectiveSpec,
    ObservableMap,
    custom_objective,
    eval_objective,
    eval_observable,
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
    simulate_pair_coupled,
)
from .trajectory import Snapshot, TrajectoryRecord
from .diagnostics import (
    DiagnosticsError,
    TestFunction,
    concentration_sweep,
    constant_test_function,
    coordinate_window,
    g_phi_residual,
    g_phi_scaling_study,
    gaussian_bump,
    lambda_persistence_check,
    mass_bound_fit,
    mean_decay_check,
    second_moment_bound_check,
    second_moment_constant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
