"""Committed validation suites behind `infocbo validate <suite>`.

Every check runs fixed configurations (parameters and seeds committed here,
once) and states its pass condition once, in the function that returns its
outcomes. A suite is a list of such functions, and tests/test_acceptance.py
asserts what the same functions return, so the two gates read one verdict.
Each heavy run is computed once and cached as (result, seconds): what it
returns and the wall seconds it took.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cache, wraps

import numpy as np

from .diagnostics import (
    CEILING_SLACK,
    concentration_sweep,
    g_phi_scaling_study,
    gaussian_bump,
    mass_bound_fit,
    mean_decay_check,
    second_moment_bound_check,
    second_moment_constant,
    second_moment_envelope_check,
)
from .gibbs import ConsensusParams, consensus_from_energies, weighted_consensus
from .infokernel import KernelSpec, check_kernel_contract, logistic_closed_form
from .measures import EmpiricalMeasure, mean_point
from .objectives import ObservableMap, custom_objective, quadratic, rastrigin_like, verify_growth
from .sde import InitialLaw, SimConfig, simulate
from .util import rng_from_seed

# one committed master seed per suite family; never reused across families
SEED_CONSTRAINT = 0x1C0FFEE
SEED_DECAY = 0x2D0C5
SEED_CONCENTRATION = 0x3BEB1
SEED_MEANFIELD = 0x4FEED
SEED_ORACLE = 0x5ACE

CI_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def _committed(**fields) -> SimConfig:
    """A committed SimConfig: the choices every committed run shares, updated
    by fields, which state what sets the run apart. Built per call, so that
    importing the module does no work."""
    shared = dict(
        d=2,
        objective=quadratic(2),
        observable=ObservableMap(),
        kernel=KernelSpec("logistic", a=1.0, b=1.0),
        init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.2),
        noise_strength=0.5,
        mode="full",
    )
    return SimConfig(**{**shared, **fields})


def constraint_config() -> SimConfig:
    """Long full-mode run at the largest admissible lambda step (dt = theta/2)."""
    return _committed(n_particles=500, dt=0.25, t_end=2500.0, seed=SEED_CONSTRAINT,
                      sharpness=8.0)


def decay_config() -> SimConfig:
    """Large consensus-free ensemble for the mean decay law (sigma^2 d = 0.5)."""
    return _committed(
        n_particles=10_000, dt=1e-2, t_end=5.0, seed=SEED_DECAY,
        init=InitialLaw.gaussian(center=(2.0, 2.0), sigma=1.0, lambda_lo=0.0),
        mode="auxiliary",
    )


def concentration_config() -> SimConfig:
    """Full-system base for the sharpness sweep; sigma^2 d = 0.5, lambda_0 = 0.2.

    The kernel here saturates fast (b = 0, so lambda -> 1 with time constant
    1/16): once information is full the drift follows the weighted consensus
    alone, which is what lets the sharp sweep end concentrate near the
    minimizer. A symmetric kernel stalls near lambda = 1/2 and leaves half the
    drift pointed at the crowd mean.
    """
    return _committed(n_particles=2000, dt=1e-2, t_end=10.0, seed=SEED_CONCENTRATION,
                      kernel=KernelSpec("logistic", a=16.0, b=0.0))


def meanfield_config() -> SimConfig:
    """Base for the weak-form residual study; N is swept by the study itself.

    The kernel is deliberately slow (a = b = 1/4). The residual mean must sit
    inside its own confidence band, and the dominant Euler bias at this step
    size enters through the rate term's quadratic variation against the test
    function's lambda curvature; a slow rate keeps that bias far below the
    replica noise floor while every term of the generator stays exercised.
    """
    return _committed(n_particles=250, dt=1e-2, t_end=2.0, seed=SEED_MEANFIELD,
                      kernel=KernelSpec("logistic", a=0.25, b=0.25), sharpness=4.0,
                      noise_strength=math.sqrt(0.5))


def truncation_config() -> SimConfig:
    """Truncated full-mode run with a saturated observable, for the Gronwall envelope."""
    return _committed(
        n_particles=400, dt=1e-2, t_end=2.0, seed=SEED_DECAY + 1,
        observable=ObservableMap("saturated", m_g=2.0),
        init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.3),
        sharpness=4.0, truncation_radius=3.0,
    )


MEANFIELD_SIZES = (250, 1000)
MEANFIELD_REPLICAS = 200
MEANFIELD_BUMP_SCALE = 2.0
CONCENTRATION_SHARPNESS = (1.0, 4.0, 16.0, 64.0)
MASS_RADIUS = 0.5
DECAY_TOLERANCE = 0.05  # criterion 2: max relative error of the mean decay law


def _timed(run):
    """run, computed once and cached with the wall seconds it took."""
    @cache
    @wraps(run)
    def timed():
        start = time.perf_counter()
        return run(), time.perf_counter() - start
    return timed


@_timed
def constraint_record():
    return simulate(constraint_config(), record_stride=1)


@_timed
def decay_record():
    return simulate(decay_config(), record_stride=1)


@_timed
def concentration_table():
    return concentration_sweep(concentration_config(), CONCENTRATION_SHARPNESS)


@_timed
def concentration_record_sharp():
    """The sweep's sharpest run, re-recorded with mass series and snapshots."""
    cfg = replace(concentration_config(), sharpness=CONCENTRATION_SHARPNESS[-1])
    return simulate(cfg, record_stride=5, snapshot_stride=cfg.n_steps, ball_radii=(MASS_RADIUS,))


@_timed
def meanfield_stats():
    return g_phi_scaling_study(meanfield_config(), MEANFIELD_SIZES, MEANFIELD_REPLICAS,
                               gaussian_bump(MEANFIELD_BUMP_SCALE), snapshot_stride=1)


@_timed
def truncation_record():
    return simulate(truncation_config(), record_stride=1)


# ---------------------------------------------------------------------------
# outcomes


@dataclass(frozen=True)
class CheckOutcome:
    """A verdict: name, passed and detail. seconds is the wall time of the
    cached run it judged (None if it judged none); == leaves it out, so two
    runs' verdicts compare equal."""

    name: str
    passed: bool
    detail: str
    seconds: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.passed))

    def line(self) -> str:
        took = "" if self.seconds is None else f" ({self.seconds:.1f}s)"
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}{took}"


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    outcomes: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def lines(self) -> list[str]:
        return [o.line() for o in self.outcomes]


def kernel_contract_outcomes() -> list[CheckOutcome]:
    logistic = check_kernel_contract(KernelSpec("logistic", a=1.0, b=1.0), rng_seed=SEED_ORACLE)
    crowd = check_kernel_contract(
        KernelSpec("crowd-coupled", a=1.0, b=1.0), rng_seed=SEED_ORACLE + 1
    )
    return [
        CheckOutcome(
            "logistic kernel contract",
            logistic.ok and logistic.t1_lipschitz_estimate <= 2.0 + 1e-9,
            f"T1 estimate {logistic.t1_lipschitz_estimate:.4f} (analytic 2), "
            f"T2/T3 violations {logistic.t2_violations}/{logistic.t3_violations}",
        ),
        CheckOutcome(
            "crowd-coupled kernel contract",
            crowd.ok and math.isfinite(crowd.t1_lipschitz_estimate),
            f"T1 estimate {crowd.t1_lipschitz_estimate:.4f}, "
            f"T2/T3 violations {crowd.t2_violations}/{crowd.t3_violations}",
        ),
    ]


def growth_outcomes() -> list[CheckOutcome]:
    outcomes = []
    for spec in (quadratic(3), rastrigin_like(3)):
        report = verify_growth(spec, sample_count=4000, radius=8.0, rng_seed=SEED_ORACLE)
        outcomes.append(
            CheckOutcome(
                f"growth envelope: {spec.name}",
                report.ok,
                f"{report.sample_count} samples in radius {report.radius:g}, "
                f"{len(report.violations)} violations",
            )
        )
    lying = custom_objective(
        "overclaimed_quadratic", 2, lambda p: np.sum(p * p, axis=-1),
        c2=2.0, c3=1.0, growth_exponent=2.0, vectorized=True,
    )
    report = verify_growth(lying, sample_count=500, radius=4.0, rng_seed=SEED_ORACLE)
    outcomes.append(
        CheckOutcome(
            "growth envelope audit catches a false claim",
            not report.ok,
            f"{len(report.violations)} violations flagged for c2 = 2 on ||x||^2",
        )
    )
    return outcomes


def lambda_range_outcomes() -> list[CheckOutcome]:
    record, elapsed = constraint_record()
    return [
        CheckOutcome(
            "lambda range preserved at dt = theta/2",
            record.clamp_events == 0
            and record.lambda_min >= 0.0
            and record.lambda_max <= 1.0,
            f"{len(record.times) - 1} steps, clamp events {record.clamp_events}, "
            f"lambda in [{record.lambda_min:.3g}, {record.lambda_max:.3g}]", elapsed,
        )
    ]


def mean_decay_outcomes() -> list[CheckOutcome]:
    record, elapsed = decay_record()
    report = mean_decay_check(record)
    return [
        CheckOutcome(
            "mean decay tracks exp(-integral of mean lambda)",
            report.max_rel_error <= DECAY_TOLERANCE,
            f"max rel error {report.max_rel_error:.3%} (tolerance {DECAY_TOLERANCE:.0%}), "
            f"final ||mean|| {report.actual_final:.4f} vs predicted "
            f"{report.predicted_final:.4f}", elapsed,
        )
    ]


def second_moment_outcomes() -> list[CheckOutcome]:
    c_zero = second_moment_constant(0.0, 3)
    c_unit = second_moment_constant(1.0, 1)
    record, elapsed = decay_record()
    report = second_moment_bound_check(record, decay_config())
    return [
        CheckOutcome(
            "ceiling constant endpoints",
            abs(c_zero - 2.0) < 1e-14 and abs(c_unit - 3.0) < 1e-14,
            f"C(sigma=0) = {c_zero:g}, C(sigma^2 d = 1) = {c_unit:g}",
        ),
        CheckOutcome(
            f"second moment under {CEILING_SLACK:g} * C * m2_sq(0)",
            report.ok,
            f"peak ratio {report.peak_ratio:.3f} vs ceiling "
            f"{report.slack * report.ceiling_constant:.3f}", elapsed,
        ),
    ]


def concentration_outcomes() -> list[CheckOutcome]:
    table, elapsed = concentration_table()
    values = [table[n] for n in CONCENTRATION_SHARPNESS]
    return [
        CheckOutcome(
            "terminal spread non-increasing in sharpness",
            all(a >= b for a, b in zip(values, values[1:])),
            ", ".join(f"n={n:g}: {table[n]:.3g}" for n in CONCENTRATION_SHARPNESS), elapsed,
        ),
        CheckOutcome(
            "terminal spread small at the sharpest setting",
            values[-1] <= 1e-2,
            f"m2_sq(T) = {values[-1]:.3g} <= 1e-2 at n = {CONCENTRATION_SHARPNESS[-1]:g}",
            elapsed,
        ),
    ]


def meanfield_outcomes() -> list[CheckOutcome]:
    stats, elapsed = meanfield_stats()
    outcomes = []
    for size in MEANFIELD_SIZES:
        s = stats[size]
        half_width = CI_Z_99 * s.stderr
        outcomes.append(
            CheckOutcome(
                f"residual mean compatible with 0 at N = {size}",
                abs(s.mean) <= half_width,
                f"mean {s.mean:+.2e}, 99% CI half-width {half_width:.2e}, "
                f"{s.replicas} replicas", elapsed,
            )
        )
    ratio = stats[MEANFIELD_SIZES[0]].variance / stats[MEANFIELD_SIZES[1]].variance
    outcomes.append(
        CheckOutcome(
            "residual variance scales like 1/N",
            2.5 <= ratio <= 6.5,
            f"Var({MEANFIELD_SIZES[0]}) / Var({MEANFIELD_SIZES[1]}) = {ratio:.2f} "
            "(expect about 4)", elapsed,
        )
    )
    return outcomes


def mass_floor_outcomes() -> list[CheckOutcome]:
    record, elapsed = concentration_record_sharp()
    fit = mass_bound_fit(record, MASS_RADIUS)
    floor = fit.initial_smoothed_mass * np.exp(-fit.fitted_rate * record.times)
    series = record.mass_ball[MASS_RADIUS]
    return [
        CheckOutcome(
            "mass near the minimizer stays positive with an exponential floor",
            fit.floor_ok
            and not fit.vacuous
            and fit.initial_smoothed_mass > 0
            and math.isfinite(fit.fitted_rate)
            and np.all(series >= floor - 1e-12),
            f"min mass {series.min():.3g}, smoothed initial "
            f"{fit.initial_smoothed_mass:.3g}, fitted rate {fit.fitted_rate:.3g}", elapsed,
        )
    ]


def euler_outcomes() -> list[CheckOutcome]:
    """The rate relaxation of one noiseless agent against the logistic
    closed form, where criterion 7 allows an Euler error of 2 dt."""
    dt = 0.05
    cfg = _committed(d=1, n_particles=1, dt=dt, t_end=5.0, seed=SEED_ORACLE,
                     objective=quadratic(1), init=InitialLaw.point(center=(0.0,), lambda_lo=0.0),
                     noise_strength=0.0, mode="auxiliary")
    record = simulate(cfg, record_stride=1)
    exact = logistic_closed_form(cfg.kernel, 0.0, record.times)
    max_error = float(np.abs(record.mean_lambda - exact).max())
    return [
        CheckOutcome(
            "logistic relaxation matches closed form to O(dt)",
            max_error <= 2.0 * dt,
            f"max |lambda - exact| = {max_error:.2e} <= 2 dt = {2 * dt:.2e}",
        )
    ]


def gibbs_algebra_outcomes() -> list[CheckOutcome]:
    rng = rng_from_seed(SEED_ORACLE + 2)
    atoms = rng.normal(size=(40, 2))
    measure = EmpiricalMeasure.uniform(atoms)
    base = quadratic(2)
    identity = ObservableMap()

    # a shifted objective cannot pass the E(0) = 0 constructor, so the shift
    # invariance is probed at the energy level where it actually matters
    shift_worst = 0.0
    for offset in (1.0, math.e, 100.0):
        for sharpness in (0.5, 1.0, 5.0):
            params = ConsensusParams(sharpness, base, identity)
            ref = weighted_consensus(params, measure)
            energies = np.sum(atoms * atoms, axis=-1) + offset
            moved = consensus_from_energies(params, atoms, measure.masses, energies)
            shift_worst = max(
                shift_worst,
                float(np.linalg.norm(moved - ref) / max(np.linalg.norm(ref), 1e-30)),
            )

    single = EmpiricalMeasure.uniform(np.array([[0.7, -1.3]]))
    dirac_exact = np.array_equal(
        weighted_consensus(ConsensusParams(3.0, base, identity), single),
        single.atoms[0],
    )

    flat = weighted_consensus(ConsensusParams(0.0, base, identity), measure)
    flat_err = float(np.linalg.norm(flat - mean_point(measure)))

    five = EmpiricalMeasure.uniform(
        np.array([[0.1, 0.2], [1.0, -0.4], [-0.8, 0.9], [0.5, 0.5], [-1.2, -1.1]])
    )
    energies = np.sum(five.atoms * five.atoms, axis=1)
    best = five.atoms[int(np.argmin(energies))]
    laplace = weighted_consensus(ConsensusParams(1000.0, base, identity), five)
    laplace_err = float(np.linalg.norm(laplace - best))

    return [
        CheckOutcome(
            "consensus invariant under energy shifts",
            shift_worst <= 1e-12,
            f"worst relative drift {shift_worst:.1e} over shifts up to 100",
        ),
        CheckOutcome(
            "consensus of a single atom returns it exactly",
            dirac_exact,
            "bitwise equality on a one-atom measure",
        ),
        CheckOutcome(
            "sharpness 0 reduces to the plain mean",
            flat_err <= 1e-14,
            f"||f_0 - mean|| = {flat_err:.1e}",
        ),
        CheckOutcome(
            "large sharpness selects the best atom",
            laplace_err <= 1e-6,
            f"||f_1000 - argmin atom|| = {laplace_err:.1e}",
        ),
    ]


def gronwall_outcomes() -> list[CheckOutcome]:
    record, elapsed = truncation_record()
    report = second_moment_envelope_check(record, truncation_config())
    return [
        CheckOutcome(
            "Gronwall envelope on a truncated run",
            report.ok,
            f"A = {report.a_constant:.2f}, peak m2_sq / envelope {report.peak_ratio:.3f}, "
            "no crossing"
            if report.ok
            else f"violated at t = {report.violated_at}", elapsed,
        )
    ]


# ---------------------------------------------------------------------------
# suites: each is the outcomes of its checks, in order

SUITES = {
    "contracts": (
        kernel_contract_outcomes,
        growth_outcomes,
        lambda_range_outcomes,
        euler_outcomes,
        gibbs_algebra_outcomes,
    ),
    "decay": (mean_decay_outcomes,),
    "bounds": (second_moment_outcomes, gronwall_outcomes),
    "meanfield": (meanfield_outcomes,),
    "concentration": (concentration_outcomes, mass_floor_outcomes),
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SuiteResult(name, tuple(o for check in SUITES[name] for o in check()))
