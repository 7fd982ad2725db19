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

from .measures import EmpiricalMeasure, phi_r_expectation
from .sde import (
    Ensemble,
    SimConfig,
    SimulationError,
    _check_stride,
    _trajectory,
    drift_and_rate,
    simulate,
)
from .trajectory import Snapshot, TrajectoryRecord
from .util import derive_seed, row_sum

MIN_STUDY_REPLICAS = 30


class DiagnosticsError(ValueError):
    """Check invoked outside its hypotheses or on unsuitable data."""


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Smooth bounded observable phi(x, lambda) with analytic derivatives.

    parts(x, lam) is vectorized over agents (x: (N, d), lam: (N,)) and
    returns (value, grad_x, grad_lambda, laplacian_x) with shapes (N,),
    (N, d), (N,) and (N,), sharing the factors the four have in common.
    """

    name: str
    parts: Callable


def constant_test_function() -> TestFunction:
    """phi = 1. Every weak-form residual vanishes identically on it."""

    def parts(x, lam):
        n = x.shape[0]
        return np.ones(n), np.zeros_like(x), np.zeros(n), np.zeros(n)

    return TestFunction(name="constant", parts=parts)


def gaussian_bump(scale: float = 1.0) -> TestFunction:
    """phi(x, lam) = exp(-||x||^2 / (2 s^2)) * (1 + cos(pi lam)) / 2.

    The lambda factor has vanishing slope at both endpoints, so the clamped
    boundary dynamics cannot excite it.
    """
    if scale <= 0:
        raise DiagnosticsError("bump scale must be positive")
    s2 = scale * scale

    def parts(x, lam):
        norm_sq = row_sum(x * x)
        radial = np.exp(-norm_sq / (2.0 * s2))
        value = radial * (0.5 * (1.0 + np.cos(np.pi * lam)))
        return (
            value,
            (-value / s2)[:, None] * x,
            radial * (-0.5 * np.pi * np.sin(np.pi * lam)),
            value * (norm_sq / (s2 * s2) - x.shape[1] / s2),
        )

    return TestFunction(name=f"gaussian_bump(scale={scale:g})", parts=parts)


def coordinate_window() -> TestFunction:
    """phi(x) = prod_k 1 / (1 + x_k^2), independent of lambda.

    w = 1/(1+t^2) has w'/w = -2t/(1+t^2) and w''/w = (6t^2 - 2)/(1+t^2)^2,
    all bounded, which is what the product derivatives below use.
    """

    def parts(x, lam):
        w_inv = 1.0 + x * x
        value = np.prod(1.0 / w_inv, axis=1)
        return (
            value,
            value[:, None] * (-2.0 * x / w_inv),
            np.zeros(x.shape[0]),
            value * np.sum((6.0 * x * x - 2.0) / w_inv**2, axis=1),
        )

    return TestFunction(name="coordinate_window", parts=parts)


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


def _replica_means(ensemble: Ensemble, values: np.ndarray) -> np.ndarray:
    return values.reshape(ensemble.replicas, -1).mean(axis=1)


def _phi_average(ensemble: Ensemble, phi: TestFunction) -> np.ndarray:
    """<phi> per replica, shape (R,)."""
    return _replica_means(ensemble, phi.parts(ensemble.x, ensemble.lam)[0])


def _generator_average(
    ensemble: Ensemble, fields, config: SimConfig, phi: TestFunction
) -> np.ndarray:
    """<nu v . grad_x phi + T d_lam phi + (sigma^2 / 2) ||v||^2 lap_x phi>
    per replica, shape (R,), under the consensus fields in force."""
    v, rate = drift_and_rate(ensemble, config, fields)
    _, grad_x, grad_lambda, laplacian_x = phi.parts(ensemble.x, ensemble.lam)
    terms = config.drift_gain * row_sum(v * grad_x)
    terms += rate * grad_lambda
    terms += 0.5 * config.noise_strength**2 * row_sum(v * v) * laplacian_x
    return _replica_means(ensemble, terms)


def _residual(times, phi_start, phi_end, generator) -> np.ndarray:
    """G per replica from <phi> at both ends and one (R,) generator average
    per recorded time (at least two), integrated by the trapezoid rule."""
    times = np.asarray(times)
    gaps = np.diff(times)
    if np.any(gaps <= 0) or np.any(np.abs(gaps - gaps[0]) > 1e-9 * gaps[0]):
        raise DiagnosticsError("snapshots must sit on a uniform time grid")
    integral = np.trapezoid(np.stack(generator, axis=-1), times, axis=-1)
    return phi_end - phi_start - integral


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
    residual = _residual(
        [s.ensemble.time for s in snapshots],
        _phi_average(snapshots[0].ensemble, phi),
        _phi_average(snapshots[-1].ensemble, phi),
        [_generator_average(s.ensemble, (s.f_val, s.e_val), config, phi) for s in snapshots],
    )
    return float(residual[0])


def g_phi_replica_residuals(
    config: SimConfig, seeds: Sequence[int], phi: TestFunction, snapshot_stride: int = 1
) -> np.ndarray:
    """Residual of one replica per seed, all stepped as one batch.

    Replica r equals, bit for bit, g_phi_residual of
    simulate(replace(config, seed=seeds[r]), record_stride=snapshot_stride,
    snapshot_stride=snapshot_stride): the generator average of each recorded
    state is taken while the batch steps, so no snapshot is kept.
    """
    _check_stride("snapshot_stride", snapshot_stride, config.n_steps)
    if config.n_steps == 0:
        raise DiagnosticsError("need at least one step for the residual")
    times, generator = [], []
    try:
        for k, ens, fields, _, _ in _trajectory(config, snapshot_stride, seeds):
            if k == 0:
                phi_start = _phi_average(ens, phi)
            times.append(ens.time)
            generator.append(_generator_average(ens, fields, config, phi))
    except SimulationError as exc:
        raise SimulationError(f"N = {config.n_particles}: {exc}") from exc
    return _residual(times, phi_start, _phi_average(ens, phi), generator)


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
    every (N, replica) pair opens its own stream; the replicas of one size
    step as one batch. stderr is the standard error of the replica mean.
    Fewer than MIN_STUDY_REPLICAS replicas is a refusal, not a warning:
    variance ratios on less are noise.
    """
    if replica_count < MIN_STUDY_REPLICAS:
        raise DiagnosticsError(
            f"need at least {MIN_STUDY_REPLICAS} replicas, got {replica_count}"
        )
    out: dict[int, GPhiStats] = {}
    for idx, n_particles in enumerate(n_list):
        size_seed = derive_seed(config.seed, idx)
        values = g_phi_replica_residuals(
            replace(config, n_particles=int(n_particles)),
            [derive_seed(size_seed, rep) for rep in range(replica_count)],
            phi,
            snapshot_stride,
        )
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
    # the ceiling's contraction hypothesis noise_strength^2 * d < 2; raises
    second_moment_constant(config.noise_strength, config.d)


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
