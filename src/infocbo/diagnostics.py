"""Checks that tie simulation output back to what the theory promises.

Each check consumes a TrajectoryRecord (and where needed the SimConfig that
produced it), verifies its own hypotheses first, and returns a small report
dataclass. Nothing here mutates the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .gibbs import drift
from .infokernel import eval_kernel
from .measures import EmpiricalMeasure, phi_r_expectation
from .sde import SimConfig, simulate
from .trajectory import Snapshot, TrajectoryRecord
from .util import derive_seed

MIN_STUDY_REPLICAS = 30


class DiagnosticsError(ValueError):
    """Check invoked outside its hypotheses or on unsuitable data."""


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Smooth bounded observable phi(x, lambda) with analytic derivatives.

    All callables are vectorized: value and laplacian_x map ((N, d), (N,)) to
    (N,), grad_x to (N, d), grad_lambda to (N,).
    """

    name: str
    value: Callable
    grad_x: Callable
    grad_lambda: Callable
    laplacian_x: Callable


def constant_test_function() -> TestFunction:
    """phi = 1. Every weak-form residual vanishes identically on it."""
    return TestFunction(
        name="constant",
        value=lambda x, lam: np.ones(x.shape[0]),
        grad_x=lambda x, lam: np.zeros_like(x),
        grad_lambda=lambda x, lam: np.zeros(x.shape[0]),
        laplacian_x=lambda x, lam: np.zeros(x.shape[0]),
    )


def gaussian_bump(scale: float = 1.0) -> TestFunction:
    """phi(x, lam) = exp(-||x||^2 / (2 s^2)) * (1 + cos(pi lam)) / 2.

    The lambda factor has vanishing slope at both endpoints, so the clamped
    boundary dynamics cannot excite it.
    """
    if scale <= 0:
        raise DiagnosticsError("bump scale must be positive")
    s2 = scale * scale

    def radial(x):
        return np.exp(-np.sum(x * x, axis=1) / (2.0 * s2))

    def lam_factor(lam):
        return 0.5 * (1.0 + np.cos(np.pi * lam))

    return TestFunction(
        name=f"gaussian_bump(scale={scale:g})",
        value=lambda x, lam: radial(x) * lam_factor(lam),
        grad_x=lambda x, lam: (-(radial(x) * lam_factor(lam)) / s2)[:, None] * x,
        grad_lambda=lambda x, lam: radial(x) * (-0.5 * np.pi * np.sin(np.pi * lam)),
        laplacian_x=lambda x, lam: radial(x)
        * lam_factor(lam)
        * (np.sum(x * x, axis=1) / (s2 * s2) - x.shape[1] / s2),
    )


def coordinate_window() -> TestFunction:
    """phi(x) = prod_k 1 / (1 + x_k^2), independent of lambda.

    w = 1/(1+t^2) has w'/w = -2t/(1+t^2) and w''/w = (6t^2 - 2)/(1+t^2)^2,
    all bounded, which is what the product derivatives below use.
    """

    def value(x, lam):
        return np.prod(1.0 / (1.0 + x * x), axis=1)

    return TestFunction(
        name="coordinate_window",
        value=value,
        grad_x=lambda x, lam: value(x, lam)[:, None] * (-2.0 * x / (1.0 + x * x)),
        grad_lambda=lambda x, lam: np.zeros(x.shape[0]),
        laplacian_x=lambda x, lam: value(x, lam)
        * np.sum((6.0 * x * x - 2.0) / (1.0 + x * x) ** 2, axis=1),
    )


# ---------------------------------------------------------------------------
# moment and decay checks


def second_moment_constant(noise_strength: float, d: int) -> float:
    """Ceiling constant C with sup_t m2^2(t) <= C * m2^2(0) for the
    consensus-free system; requires noise_strength^2 * d < 2.

    C(0, d) = 2 and C = 3 when noise_strength^2 * d = 1.
    """
    s2d = noise_strength**2 * d
    margin = 2.0 - s2d
    if margin <= 0:
        raise DiagnosticsError(
            f"contraction hypothesis noise_strength^2 * d < 2 violated ({s2d:g} >= 2)"
        )
    return 1.0 + (4.0 * abs(1.0 - s2d) + 2.0 * s2d * margin) / (margin * margin)


@dataclass(frozen=True)
class MeanDecayReport:
    max_rel_error: float
    worst_time: float
    predicted_final: float
    actual_final: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.max_rel_error)


def mean_decay_check(record: TrajectoryRecord) -> MeanDecayReport:
    """Compare ||mean_x(t)|| with ||mean_x(0)|| * exp(-int_0^t mean_lambda).

    Only meaningful for auxiliary-mode records: with the consensus term
    present the mean obeys no closed decay law, so full-mode input raises.
    The integral uses trapezoids on the recorded grid.
    """
    if record.mode != "auxiliary":
        raise DiagnosticsError("mean decay law applies to auxiliary-mode records only")
    t = record.times
    lam = record.mean_lambda
    increments = 0.5 * (lam[1:] + lam[:-1]) * np.diff(t)
    integral = np.concatenate([[0.0], np.cumsum(increments)])
    start = float(np.linalg.norm(record.mean_x[0]))
    predicted = start * np.exp(-integral)
    actual = np.linalg.norm(record.mean_x, axis=1)
    floor = 1e-15 * max(1.0, start)
    rel = np.abs(actual - predicted) / np.maximum(predicted, floor)
    worst = int(np.argmax(rel))
    return MeanDecayReport(
        max_rel_error=float(rel[worst]),
        worst_time=float(t[worst]),
        predicted_final=float(predicted[-1]),
        actual_final=float(actual[-1]),
    )


@dataclass(frozen=True)
class SecondMomentReport:
    ceiling_constant: float
    slack: float
    peak_ratio: float
    violated_at: float | None

    @property
    def ok(self) -> bool:
        return self.violated_at is None


def second_moment_bound_check(
    record: TrajectoryRecord, config: SimConfig, slack: float = 1.1
) -> SecondMomentReport:
    """Assert m2_sq(t) <= slack * C * m2_sq(0) on an auxiliary-mode record."""
    if record.mode != "auxiliary":
        raise DiagnosticsError(
            "second-moment ceiling is proved for the consensus-free system; "
            "pass an auxiliary-mode record"
        )
    ceiling = second_moment_constant(config.noise_strength, config.d)
    base = float(record.m2_sq[0])
    if base <= 0:
        raise DiagnosticsError("initial second moment must be positive")
    ratios = record.m2_sq / base
    bad = np.flatnonzero(ratios > slack * ceiling)
    return SecondMomentReport(
        ceiling_constant=ceiling,
        slack=slack,
        peak_ratio=float(ratios.max()),
        violated_at=float(record.times[bad[0]]) if bad.size else None,
    )


@dataclass(frozen=True)
class LambdaPersistenceReport:
    min_mean_lambda: float
    integral_mean_lambda: float

    @property
    def ok(self) -> bool:
        return self.min_mean_lambda > 0.0


def lambda_persistence_check(record: TrajectoryRecord) -> LambdaPersistenceReport:
    """Mean information level stays strictly positive; also reports its
    running time integral, whose growth is the engine of concentration.

    The floor is taken over positive times only: a run may legitimately
    start at zero information, and the kernel's activation at lambda = 0
    is exactly what lifts it off that value.
    """
    t = record.times
    lam = record.mean_lambda
    integral = float(np.trapezoid(lam, t)) if len(t) > 1 else 0.0
    positive = lam[t > 0]
    floor = float(positive.min()) if positive.size else float(lam.min())
    return LambdaPersistenceReport(min_mean_lambda=floor, integral_mean_lambda=integral)


@dataclass(frozen=True)
class MassBoundReport:
    radius: float
    initial_smoothed_mass: float
    fitted_rate: float
    floor_ok: bool
    vacuous: bool

    @property
    def ok(self) -> bool:
        return self.vacuous or (self.floor_ok and math.isfinite(self.fitted_rate))


def mass_bound_fit(record: TrajectoryRecord, radius: float) -> MassBoundReport:
    """Fit the smallest rate q with mass(t) >= E[phi_r(initial)] * exp(-q t).

    Needs the mass series at `radius` and a snapshot at t = 0 for the
    smoothed initial mass. A zero smoothed initial mass makes the floor
    vacuous; a zero empirical mass at a later time makes the fitted rate
    infinite and floor_ok False.
    """
    key = None
    for r in record.mass_ball:
        if abs(r - radius) <= 1e-12:
            key = r
            break
    if key is None:
        raise DiagnosticsError(
            f"record has no mass series at radius {radius:g}; configure ball_radii"
        )
    if not record.snapshots or record.snapshots[0].ensemble.time != 0.0:
        raise DiagnosticsError("mass bound fit needs a snapshot at t = 0")
    initial = record.snapshots[0].ensemble.spatial_measure()
    smoothed = phi_r_expectation(radius, initial)
    series = record.mass_ball[key]
    floor_ok = bool(np.all(series > 0.0))
    if smoothed == 0.0:
        return MassBoundReport(radius, 0.0, 0.0, floor_ok, vacuous=True)
    t = record.times
    positive = t > 0
    with np.errstate(divide="ignore"):
        rates = np.log(smoothed / series[positive]) / t[positive]
    fitted = float(max(0.0, rates.max())) if rates.size else 0.0
    return MassBoundReport(radius, float(smoothed), fitted, floor_ok, vacuous=False)


def gronwall_envelope_constant(
    drift_gain: float, noise_strength: float, d: int, m_f: float
) -> float:
    """Growth constant A of the a-priori envelope for the truncated system:
    m2^2(t) <= (m2^2(0) + A t) exp(A t), with m_f the linear-growth constant
    of the consensus map (its bound for the saturated observable)."""
    return 4.0 * drift_gain * (m_f + 1.0) + noise_strength**2 * d * (
        6.0 + 6.0 * m_f * m_f
    )


@dataclass(frozen=True)
class EnvelopeReport:
    a_constant: float
    violated_at: float | None

    @property
    def ok(self) -> bool:
        return self.violated_at is None


def second_moment_envelope_check(
    record: TrajectoryRecord, config: SimConfig, m_f: float
) -> EnvelopeReport:
    """Ceiling diagnostic: recorded m2_sq under the Gronwall envelope."""
    if config.truncation_radius is None:
        raise DiagnosticsError("the envelope is proved for truncated dynamics only")
    a_const = gronwall_envelope_constant(
        config.drift_gain, config.noise_strength, config.d, m_f
    )
    base = float(record.m2_sq[0])
    envelope = (base + a_const * record.times) * np.exp(a_const * record.times)
    bad = np.flatnonzero(record.m2_sq > envelope)
    return EnvelopeReport(
        a_constant=a_const,
        violated_at=float(record.times[bad[0]]) if bad.size else None,
    )


# ---------------------------------------------------------------------------
# weak-form residual


def g_phi_residual(
    snapshots: Sequence[Snapshot], config: SimConfig, phi: TestFunction
) -> float:
    """Ito-consistent weak-form residual of one run.

    G = <phi>(T) - <phi>(0) - int [ nu v . grad_x phi + T d_lam phi
        + (sigma^2 / 2) ||v||^2 lap_x phi ] dt

    with ensemble averages inside and the trapezoid rule over the snapshot
    grid. For the exact dynamics G is the terminal value of a mean-zero
    martingale whose variance shrinks like 1/N; discretization adds an O(dt)
    bias. Constant phi gives exactly zero.
    """
    if len(snapshots) < 2:
        raise DiagnosticsError("need at least two snapshots for the residual")
    times = np.array([s.ensemble.time for s in snapshots])
    gaps = np.diff(times)
    if np.any(gaps <= 0) or np.any(np.abs(gaps - gaps[0]) > 1e-9 * gaps[0]):
        raise DiagnosticsError("snapshots must sit on a uniform time grid")
    sigma_sq = config.noise_strength**2

    def generator_average(snap: Snapshot) -> float:
        ens = snap.ensemble
        x, lam = ens.x, ens.lam
        v = drift(x, lam, snap.f_val, snap.e_val)
        rate = eval_kernel(config.kernel, ens.summary(), x, lam)
        terms = config.drift_gain * np.sum(v * phi.grad_x(x, lam), axis=1)
        terms += rate * phi.grad_lambda(x, lam)
        terms += 0.5 * sigma_sq * np.sum(v * v, axis=1) * phi.laplacian_x(x, lam)
        return float(terms.mean())

    def phi_average(snap: Snapshot) -> float:
        return float(phi.value(snap.ensemble.x, snap.ensemble.lam).mean())

    generator = np.array([generator_average(s) for s in snapshots])
    integral = float(np.trapezoid(generator, times))
    return phi_average(snapshots[-1]) - phi_average(snapshots[0]) - integral


@dataclass(frozen=True)
class GPhiStats:
    n_particles: int
    replicas: int
    mean: float
    variance: float
    stderr: float


def g_phi_scaling_study(
    config: SimConfig,
    n_list: Sequence[int],
    replica_count: int,
    phi: TestFunction,
    snapshot_stride: int = 1,
) -> dict[int, GPhiStats]:
    """Residual statistics across independent replicas at each ensemble size.

    Replica seeds derive from (config.seed, size index, replica index), so
    every (N, replica) pair opens its own stream. stderr is the standard
    error of the replica mean. Fewer than MIN_STUDY_REPLICAS replicas is a
    refusal, not a warning: variance ratios on less are noise.
    """
    if replica_count < MIN_STUDY_REPLICAS:
        raise DiagnosticsError(
            f"need at least {MIN_STUDY_REPLICAS} replicas, got {replica_count}"
        )
    out: dict[int, GPhiStats] = {}
    for idx, n_particles in enumerate(n_list):
        size_seed = derive_seed(config.seed, idx)
        values = np.empty(replica_count)
        for rep in range(replica_count):
            cfg = replace(
                config,
                n_particles=int(n_particles),
                seed=derive_seed(size_seed, rep),
            )
            record = simulate(
                cfg,
                record_stride=snapshot_stride,
                snapshot_stride=snapshot_stride,
            )
            values[rep] = g_phi_residual(record.snapshots, cfg, phi)
        variance = float(values.var(ddof=1))
        out[int(n_particles)] = GPhiStats(
            n_particles=int(n_particles),
            replicas=replica_count,
            mean=float(values.mean()),
            variance=variance,
            stderr=math.sqrt(variance / replica_count),
        )
    return out


# ---------------------------------------------------------------------------
# concentration sweep


def _require_concentration_hypotheses(config: SimConfig) -> None:
    if config.mode != "full":
        raise DiagnosticsError("concentration sweep drives the full system")
    if config.init.mean_lambda() <= 0.0:
        raise DiagnosticsError(
            "hypothesis violated: initial information level must have positive "
            "mean, E[lambda_0] > 0"
        )
    if not config.init.charges_origin_balls():
        raise DiagnosticsError(
            "hypothesis violated: initial spatial law must charge every ball "
            "around the origin"
        )
    if config.drift_params.contraction_margin(config.d) <= 0:
        raise DiagnosticsError(
            "contraction hypothesis noise_strength^2 * d < 2 violated"
        )


def concentration_sweep(
    base_config: SimConfig,
    sharpness_list: Sequence[float],
    record_stride: int = 1,
) -> dict[float, float]:
    """Terminal m2_sq per sharpness value, all runs on the same seed.

    Sharing the seed couples the sweep: differences across sharpness are not
    confounded by the noise realization.
    """
    _require_concentration_hypotheses(base_config)
    table: dict[float, float] = {}
    for sharpness in sharpness_list:
        cfg = replace(base_config, sharpness=float(sharpness))
        record = simulate(cfg, record_stride=record_stride)
        table[float(sharpness)] = float(record.m2_sq[-1])
    return table
