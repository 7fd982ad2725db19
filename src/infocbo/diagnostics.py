"""Checks that tie simulation output back to what the theory promises.

Each check consumes a TrajectoryRecord (and where needed the SimConfig that
produced it), verifies its own hypotheses first, and returns a small report
dataclass. Nothing here mutates the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .measures import EmpiricalMeasure, phi_r_expectation
from .sde import (
    Ensemble,
    SimConfig,
    SimulationError,
    _observer_radii,
    _trajectory,
    consensus_fields,
    drift_and_rate,
    simulate,
)
from .trajectory import TrajectoryRecord
from .util import derive_seed, is_real, is_whole, require_finite, row_sum, scale_rows

MIN_STUDY_REPLICAS = 30

# the one allowance of the consensus-free ceiling: m2_sq(t) <= CEILING_SLACK * C * m2_sq(0)
CEILING_SLACK = 1.1


class DiagnosticsError(ValueError):
    """Check invoked outside its hypotheses or on unsuitable data."""


# ---------------------------------------------------------------------------
# test functions


class Parts(NamedTuple):
    """A test function's value, grad_x, grad_lambda and laplacian_x at rows
    agents in d dimensions: (rows,), (rows, d), (rows,) and (rows,) arrays."""

    value: np.ndarray
    grad_x: np.ndarray
    grad_lambda: np.ndarray
    laplacian_x: np.ndarray

    @classmethod
    def empty(cls, rows: int, d: int) -> "Parts":
        """Fresh C-contiguous float64 buffers, their values unset."""
        return cls(np.empty(rows), np.empty((rows, d)), np.empty(rows), np.empty(rows))


@dataclass(frozen=True)
class TestFunction:
    """Smooth bounded observable phi(x, lambda) with analytic derivatives.

    parts(x, lam, out) is vectorized over agents: x is (N, d) C-contiguous
    float64 rows, as an Ensemble holds them, and lam (N,) float64. out is a
    Parts of C-contiguous float64 buffers of shapes (N,), (N, d), (N,) and
    (N,). parts writes every entry of the four and returns out. It may use
    any of the buffers as scratch before it writes its part there, and it
    reads nothing they held before the call, so a caller may hand the same
    buffers to every call.
    """

    name: str
    parts: Callable[[np.ndarray, np.ndarray, Parts], Parts]


def gaussian_bump(scale: float = 1.0) -> TestFunction:
    """phi(x, lam) = exp(-||x||^2 / (2 s^2)) * (1 + cos(pi lam)) / 2.

    The lambda factor has vanishing slope at both endpoints, so the clamped
    boundary dynamics cannot excite it. Its parts allocate no array of N
    entries and negate nothing: x / -y has the bits of -x / y.
    """
    require_finite(DiagnosticsError, scale=scale)
    if scale <= 0:
        raise DiagnosticsError("bump scale must be positive")
    s2 = scale * scale

    def parts(x, lam, out):
        # the operations of
        #   radial = exp(-||x||^2 / (2 s2))
        #   value = radial * (0.5 * (1 + cos(pi lam)))
        #   grad_x = scale_rows(-value / s2, x)
        #   grad_lambda = radial * (-0.5 pi sin(pi lam))
        #   laplacian_x = value * (||x||^2 / (s2 s2) - d / s2)
        # in out's buffers; grad_x holds the scratch until it is written last
        value, grad_x, grad_lambda, laplacian_x = out
        norm_sq = row_sum(np.multiply(x, x, out=grad_x), out=laplacian_x)  # sq_norm(x)
        radial = np.divide(norm_sq, -2.0 * s2, out=grad_lambda)
        np.exp(radial, out=radial)
        bits = lam.view(f"i{lam.itemsize}")  # bit patterns, so +0.0 is not -0.0
        if bits.size and bits.min() == bits.max():  # one lam for all: trig once
            lam = lam[:1]
        trig = grad_x.reshape(-1)[:lam.size]  # the cos factor, then the sin factor
        np.multiply(np.pi, lam, out=trig)
        np.cos(trig, out=trig)
        np.add(1.0, trig, out=trig)
        np.multiply(0.5, trig, out=trig)
        np.multiply(radial, trig, out=value)
        np.multiply(np.pi, lam, out=trig)
        np.sin(trig, out=trig)
        np.multiply(-0.5 * np.pi, trig, out=trig)
        np.multiply(radial, trig, out=grad_lambda)
        # -value / s2 (the bits of value / -s2) into grad_x's last column
        row_factor = np.divide(value, -s2, out=grad_x[:, -1])
        scale_rows(row_factor, x, out=grad_x)
        norm_sq /= s2 * s2
        norm_sq -= x.shape[1] / s2
        np.multiply(value, norm_sq, out=laplacian_x)
        return out

    return TestFunction(name=f"gaussian_bump(scale={scale:g})", parts=parts)


# ---------------------------------------------------------------------------
# moment and decay checks


def require_consensus_free(mode: str) -> None:
    """The hypothesis of the mean decay law and the second-moment ceiling:
    both are proved for the consensus-free (auxiliary-mode) flow only."""
    if mode != "auxiliary":
        raise DiagnosticsError('needs sim.mode "auxiliary"; its law holds for the '
                               "consensus-free flow only")


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

    With the consensus term present the mean obeys no closed decay law, so
    a record outside require_consensus_free raises. The integral uses
    trapezoids on the recorded grid.
    """
    require_consensus_free(record.mode)
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


def second_moment_bound_check(record: TrajectoryRecord, config: SimConfig) -> SecondMomentReport:
    """Assert m2_sq(t) <= CEILING_SLACK * C * m2_sq(0) on an auxiliary-mode record."""
    require_consensus_free(record.mode)
    ceiling = second_moment_constant(config.noise_strength, config.d)
    base = float(record.m2_sq[0])
    if base <= 0:
        raise DiagnosticsError("initial second moment must be positive")
    ratios = record.m2_sq / base
    bad = np.flatnonzero(ratios > CEILING_SLACK * ceiling)
    return SecondMomentReport(
        ceiling_constant=ceiling,
        slack=CEILING_SLACK,
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
    if not is_real(radius):  # '1' would fail the message's :g
        raise DiagnosticsError(f"radius must be a real number, got {radius!r}")
    if radius not in record.mass_ball:  # its keys are the configured radii
        raise DiagnosticsError(
            f"record has no mass series at radius {radius:g}; configure ball_radii"
        )
    if not record.snapshots or record.snapshots[0].time != 0.0:
        raise DiagnosticsError("mass bound fit needs a snapshot at t = 0")
    initial = EmpiricalMeasure.uniform(record.snapshots[0].x)
    smoothed = phi_r_expectation(radius, initial)
    series = record.mass_ball[radius]
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
    peak_ratio: float  # max of m2_sq / envelope over t > 0: how far from binding
    violated_at: float | None

    @property
    def ok(self) -> bool:
        return self.violated_at is None


def second_moment_envelope_check(record: TrajectoryRecord, config: SimConfig) -> EnvelopeReport:
    """Ceiling diagnostic: recorded m2_sq under the Gronwall envelope, whose
    m_f is the saturated observable's bound m_g."""
    if config.truncation_radius is None:
        raise DiagnosticsError("the envelope is proved for truncated dynamics only")
    if config.observable.variant != "saturated":
        raise DiagnosticsError("the envelope's m_f is the bound m_g of a saturated observable")
    a_const = gronwall_envelope_constant(
        config.drift_gain, config.noise_strength, config.d, config.observable.m_g
    )
    base = float(record.m2_sq[0])
    envelope = (base + a_const * record.times) * np.exp(a_const * record.times)
    bad = np.flatnonzero(record.m2_sq > envelope)
    return EnvelopeReport(
        a_constant=a_const,
        peak_ratio=float(np.max(record.m2_sq[1:] / envelope[1:], initial=0.0)),
        violated_at=float(record.times[bad[0]]) if bad.size else None,
    )


# ---------------------------------------------------------------------------
# weak-form residual


def _replica_means(ensemble: Ensemble, values: np.ndarray) -> np.ndarray:
    return np.add.reduce(values.reshape(ensemble.replicas, -1), axis=1) / ensemble.n_agents


def _generator_average(
    ensemble: Ensemble, motion, config: SimConfig, phi: TestFunction, out: Parts
) -> tuple[np.ndarray, np.ndarray]:
    """<phi> and <nu v . grad_x phi + T d_lam phi + (sigma^2 / 2) ||v||^2 lap_x phi>
    per replica, each of shape (R,), from the state's (v, T) as drift_and_rate
    returns it. out is a workspace of the ensemble's shapes (Parts.empty),
    spent by the call: the parts are written there and each buffer takes a
    term once its part is read, with the operations, in their order, of

        terms = nu * row_sum(v * grad_x)
        terms += T * grad_lambda
        terms += sigma^2 / 2 * sq_norm(v) * laplacian_x

    (sq_norm(v) as row_sum(v * v), its bits). The returned means are new
    arrays, so nothing of the workspace is kept."""
    v, rate = motion
    value, grad_x, grad_lambda, laplacian_x = phi.parts(ensemble.x, ensemble.lam, out)
    phi_mean = _replica_means(ensemble, value)
    terms = row_sum(np.multiply(v, grad_x, out=grad_x), out=value)
    np.multiply(config.drift_gain, terms, out=terms)
    terms += np.multiply(rate, grad_lambda, out=grad_lambda)
    diffusion = row_sum(np.multiply(v, v, out=grad_x), out=grad_lambda)
    np.multiply(0.5 * config.noise_strength**2, diffusion, out=diffusion)
    terms += np.multiply(diffusion, laplacian_x, out=laplacian_x)
    return phi_mean, _replica_means(ensemble, terms)


def _residual(times, averages) -> np.ndarray:
    """G per replica from the (<phi>, generator average) pair of each recorded
    time (at least two), integrated by the trapezoid rule."""
    times = np.asarray(times)
    gaps = np.diff(times)
    if np.any(gaps <= 0) or np.any(np.abs(gaps - gaps[0]) > 1e-9 * gaps[0]):
        raise DiagnosticsError("snapshots must sit on a uniform time grid")
    phi, generator = zip(*averages)
    integral = np.trapezoid(np.stack(generator, axis=-1), times, axis=-1)
    return phi[-1] - phi[0] - integral


def g_phi_residual(
    snapshots: Sequence[Ensemble], config: SimConfig, phi: TestFunction
) -> float:
    """Ito-consistent weak-form residual of one run.

    G = <phi>(T) - <phi>(0) - int [ nu v . grad_x phi + T d_lam phi
        + (sigma^2 / 2) ||v||^2 lap_x phi ] dt

    with ensemble averages inside and the trapezoid rule over the snapshot
    grid, each snapshot's consensus fields computed again from it. For the
    exact dynamics G is the terminal value of a mean-zero martingale whose
    variance shrinks like 1/N; discretization adds an O(dt) bias. Constant
    phi gives exactly zero.
    """
    if len(snapshots) < 2:
        raise DiagnosticsError("need at least two snapshots for the residual")
    shape = snapshots[0].x.shape
    if any(s.x.shape != shape for s in snapshots):  # they share one workspace
        raise DiagnosticsError("snapshots must hold the same agents in the same dimension")
    out = Parts.empty(*shape)
    averages = []
    for s in snapshots:
        motion = drift_and_rate(s, config, consensus_fields(s, config))
        averages.append(_generator_average(s, motion, config, phi, out))
    return float(_residual([s.time for s in snapshots], averages)[0])


def g_phi_replica_residuals(
    config: SimConfig, seeds: Sequence[int], phi: TestFunction, snapshot_stride: int = 1
) -> np.ndarray:
    """Residual of one replica per seed, all stepped as one batch.

    Replica r equals, bit for bit, g_phi_residual of
    simulate(replace(config, seed=seeds[r]), record_stride=snapshot_stride,
    snapshot_stride=snapshot_stride): the generator average of each recorded
    state is taken while the batch steps, so no snapshot is kept. The (v, T)
    it computes goes back to the step leaving that state, so each state is
    evaluated once.
    """
    _observer_radii(config.n_steps, snapshot_stride, names=("snapshot_stride",))
    if config.n_steps == 0:
        raise DiagnosticsError("need at least one step for the residual")
    states = _trajectory(config, snapshot_stride, seeds)
    out = Parts.empty(len(seeds) * config.n_particles, config.d)  # the batch's workspace
    times, averages, motion = [], [], None
    try:
        while True:
            _, ens, fields = states.send(motion)
            motion = None  # an off-stride state is only stepped
            if fields is not None:
                motion = drift_and_rate(ens, config, fields)
                times.append(ens.time)
                averages.append(_generator_average(ens, motion, config, phi, out))
    except StopIteration:
        pass
    except SimulationError as exc:
        raise SimulationError(f"N = {config.n_particles}: {exc}") from exc
    return _residual(times, averages)


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
    if not is_whole(replica_count):
        raise DiagnosticsError(f"replica count {replica_count!r} is not a whole number")
    if replica_count < MIN_STUDY_REPLICAS:
        raise DiagnosticsError(
            f"need at least {MIN_STUDY_REPLICAS} replicas, got {replica_count}"
        )
    replica_count = int(replica_count)
    for n in n_list:  # int() would run 6.7 as N = 6 and report it under 6
        if not (is_whole(n) and n >= 1):
            raise DiagnosticsError(f"ensemble size N = {n!r} is not a whole number >= 1")
    sizes = [int(n) for n in n_list]
    if len(set(sizes)) < len(sizes):  # one result per size
        raise DiagnosticsError(f"ensemble size N = {max(sizes, key=sizes.count)} is given twice")
    out: dict[int, GPhiStats] = {}
    for idx, n_particles in enumerate(sizes):
        size_seed = derive_seed(config.seed, idx)
        values = g_phi_replica_residuals(
            replace(config, n_particles=n_particles),
            [derive_seed(size_seed, rep) for rep in range(replica_count)],
            phi,
            snapshot_stride,
        )
        variance = float(values.var(ddof=1))
        out[n_particles] = GPhiStats(
            n_particles=n_particles,
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
            "mean, E[lambda_0] > 0 (every admissible kernel is positive at "
            "lambda = 0, contract T3, so one step from lambda_0 = 0 meets it)"
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
) -> dict[float, float]:
    """Terminal m2_sq per sharpness value, all runs on the same seed; each
    run records only its endpoints.

    Sharing the seed couples the sweep: differences across sharpness are not
    confounded by the noise realization. Every point is built, and a
    sharpness given twice is refused, before any run starts.
    """
    _require_concentration_hypotheses(base_config)
    configs: dict[float, SimConfig] = {}
    for sharpness in sharpness_list:  # float() would run '2' and True as 2.0 and 1.0
        if not is_real(sharpness):
            raise DiagnosticsError(f"sharpness {sharpness!r} is not a real number")
        sharpness = float(sharpness)
        if sharpness in configs:  # one result per sharpness
            raise DiagnosticsError(f"sharpness {sharpness!r} is given twice")
        configs[sharpness] = replace(base_config, sharpness=sharpness)
    return {sharpness: float(simulate(cfg, record_stride=cfg.n_steps or 1).m2_sq[-1])
            for sharpness, cfg in configs.items()}
