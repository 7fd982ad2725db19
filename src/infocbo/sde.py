"""Euler-Maruyama integration of the interacting particle system.

State per agent: position x in R^d and information level lambda in [0, 1].
One step, with v the drift field built from the Gibbs consensus f and the
ensemble mean e evaluated on the pre-step ensemble:

    x'      = x + nu * v dt + sigma * ||v|| sqrt(dt) * xi      (xi ~ N(0, I_d))
    lambda' = clamp(lambda + T(x, lambda; ensemble) dt, 0, 1)

With dt <= theta the lambda update is a convex combination of admissible
values, so the clamp never fires; the counter exists to prove that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gibbs import (
    ConsensusParams,
    DriftParams,
    GibbsError,
    consensus_from_energies,
    cutoff_eta,
    drift,
)
from .infokernel import KernelSpec, PopulationSummary, eval_kernel
from .measures import EmpiricalMeasure
from .objectives import (
    ObjectiveSpec,
    ObservableMap,
    eval_objective_batch,
)
from .trajectory import Snapshot, TrajectoryRecord
from .util import require_finite, rng_from_seed

MODES = ("full", "auxiliary")

Observer = Callable[[int, "Ensemble", np.ndarray | None, np.ndarray], None]


class ConfigError(ValueError):
    """Rejected simulation configuration."""


class SimulationError(RuntimeError):
    """Numerical breakdown during integration."""


@dataclass
class Ensemble:
    """N agents at a common time, stored as arrays for vector arithmetic."""

    x: np.ndarray
    lam: np.ndarray
    time: float = 0.0
    clamp_events: int = 0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] < 1:
            raise ConfigError("ensemble positions must form a nonempty (N, d) array")
        if self.lam.shape != (self.x.shape[0],):
            raise ConfigError("lambda vector must match the agent count")
        if np.any(self.lam < 0) or np.any(self.lam > 1):
            raise ConfigError("agent lambda outside [0, 1]")

    @property
    def n_agents(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[1]

    def spatial_measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure.uniform(self.x)

    def summary(self) -> PopulationSummary:
        return PopulationSummary.from_arrays(self.x, self.lam)

    def copy(self) -> "Ensemble":
        return Ensemble(self.x.copy(), self.lam.copy(), self.time, self.clamp_events)


@dataclass(frozen=True)
class InitialLaw:
    """Product initial law: spatial component times lambda component.

    spatial_kind: "gaussian" (isotropic, spread = sigma), "ball" (uniform in
    the ball of radius spread around center), or "point" (atom at center).
    lambda component: constant lambda_lo when lambda_hi == lambda_lo, else
    uniform on [lambda_lo, lambda_hi].
    """

    spatial_kind: str
    center: tuple[float, ...]
    spread: float = 0.0
    lambda_lo: float = 0.5
    lambda_hi: float = 0.5

    def __post_init__(self) -> None:
        if self.spatial_kind not in ("gaussian", "ball", "point"):
            raise ConfigError(f"unknown initial law {self.spatial_kind!r}")
        require_finite(
            ConfigError,
            spread=self.spread,
            **{f"center[{i}]": c for i, c in enumerate(self.center)},
        )
        if self.spatial_kind != "point" and self.spread <= 0:
            raise ConfigError("gaussian/ball initial laws need a positive spread")
        if not (0.0 <= self.lambda_lo <= self.lambda_hi <= 1.0):
            raise ConfigError("lambda initial range must satisfy 0 <= lo <= hi <= 1")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @classmethod
    def gaussian(cls, center, sigma, lambda_lo=0.5, lambda_hi=None) -> "InitialLaw":
        hi = lambda_lo if lambda_hi is None else lambda_hi
        return cls("gaussian", tuple(center), sigma, lambda_lo, hi)

    @classmethod
    def ball(cls, center, radius, lambda_lo=0.5, lambda_hi=None) -> "InitialLaw":
        hi = lambda_lo if lambda_hi is None else lambda_hi
        return cls("ball", tuple(center), radius, lambda_lo, hi)

    @classmethod
    def point(cls, center, lambda_lo=0.5, lambda_hi=None) -> "InitialLaw":
        hi = lambda_lo if lambda_hi is None else lambda_hi
        return cls("point", tuple(center), 0.0, lambda_lo, hi)

    def mean_lambda(self) -> float:
        return 0.5 * (self.lambda_lo + self.lambda_hi)

    def charges_origin_balls(self) -> bool:
        """Whether every ball around the origin carries positive mass."""
        center_norm = math.hypot(*self.center) if self.center else 0.0
        if self.spatial_kind == "gaussian":
            return True
        if self.spatial_kind == "ball":
            return center_norm < self.spread
        return center_norm == 0.0

    def sample(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        center = np.asarray(self.center, dtype=float)
        dim = center.shape[0]
        if self.spatial_kind == "gaussian":
            x = center + self.spread * rng.standard_normal((count, dim))
        elif self.spatial_kind == "ball":
            directions = rng.standard_normal((count, dim))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = self.spread * rng.uniform(size=count) ** (1.0 / dim)
            x = center + directions * radii[:, None]
        else:
            x = np.tile(center, (count, 1))
        if self.lambda_hi > self.lambda_lo:
            lam = rng.uniform(self.lambda_lo, self.lambda_hi, size=count)
        else:
            lam = np.full(count, self.lambda_lo)
        return x, lam


@dataclass
class SimConfig:
    """Everything one run needs; construction validates the combination.

    mode "full" integrates the consensus-driven system; "auxiliary" drops the
    consensus term (sharpness and observable are ignored there). A set
    truncation_radius scales both attraction targets by the first-moment
    cutoff, which is what the a-priori moment envelope assumes.
    """

    d: int
    n_particles: int
    dt: float
    t_end: float
    seed: int
    objective: ObjectiveSpec
    observable: ObservableMap
    kernel: KernelSpec
    init: InitialLaw
    sharpness: float = 1.0
    drift_gain: float = 1.0
    noise_strength: float = 0.0
    mode: str = "full"
    truncation_radius: float | None = None
    shared_noise: bool = False

    def __post_init__(self) -> None:
        require_finite(
            ConfigError,
            dt=self.dt,
            t_end=self.t_end,
            sharpness=self.sharpness,
            drift_gain=self.drift_gain,
            noise_strength=self.noise_strength,
            truncation_radius=self.truncation_radius,
        )
        if self.d < 1 or self.n_particles < 1:
            raise ConfigError("need d >= 1 and at least one particle")
        if self.objective.dimension != self.d:
            raise ConfigError(
                f"objective dimension {self.objective.dimension} != sim dimension {self.d}"
            )
        if len(self.init.center) != self.d:
            raise ConfigError("initial law center does not match the dimension")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.dt > self.kernel.theta * (1.0 + 1e-12):
            raise ConfigError(
                f"dt = {self.dt} exceeds the kernel stability step theta = {self.kernel.theta}"
            )
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError("t_end must be an integer multiple of dt")
        if self.sharpness < 0:
            raise ConfigError("sharpness must be nonnegative")
        if self.drift_gain <= 0:
            raise ConfigError("drift gain must be positive")
        if self.noise_strength < 0:
            raise ConfigError("noise strength must be nonnegative")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise ConfigError("truncation radius must be positive when set")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def consensus_params(self) -> ConsensusParams:
        return ConsensusParams(self.sharpness, self.objective, self.observable)

    @property
    def drift_params(self) -> DriftParams:
        return DriftParams(self.drift_gain, self.noise_strength)

    def signature(self, ignore_mode: bool = False) -> tuple:
        """Value-level identity of the configuration (callables excluded)."""
        return (
            self.d,
            self.n_particles,
            self.dt,
            self.t_end,
            self.seed,
            self.objective.signature(),
            self.observable,
            self.kernel,
            self.init,
            self.sharpness,
            self.drift_gain,
            self.noise_strength,
            None if ignore_mode else self.mode,
            self.truncation_radius,
            self.shared_noise,
        )


def initial_ensemble(config: SimConfig, rng: np.random.Generator) -> Ensemble:
    x, lam = config.init.sample(rng, config.n_particles)
    return Ensemble(x, lam, time=0.0)


def consensus_fields(ensemble: Ensemble, config: SimConfig):
    """(f, e) targets for the current ensemble; f is None in auxiliary mode.

    Both are computed once per step and shared by all agents, so a step costs
    O(N d) regardless of sharpness.
    """
    x = ensemble.x
    e_val = x.mean(axis=0)
    if config.mode == "auxiliary":
        f_val = None
    else:
        params = config.consensus_params
        energies = eval_objective_batch(config.objective, x)
        masses = np.full(x.shape[0], 1.0 / x.shape[0])
        f_val = consensus_from_energies(params, x, masses, energies)
    if config.truncation_radius is not None:
        m1 = float(np.linalg.norm(x, axis=1).mean())
        phi = cutoff_eta(config.truncation_radius, m1)
        e_val = phi * e_val
        if f_val is not None:
            f_val = phi * f_val
    return f_val, e_val


def _draw_noise(rng: np.random.Generator, config: SimConfig) -> np.ndarray:
    if config.shared_noise:
        # one Brownian increment shared by every agent
        return np.broadcast_to(
            rng.standard_normal(config.d), (config.n_particles, config.d)
        )
    return rng.standard_normal((config.n_particles, config.d))


def em_step(ensemble: Ensemble, config: SimConfig, rng: np.random.Generator) -> Ensemble:
    """One Euler-Maruyama step; consensus fields are frozen at the pre-step state."""
    x, lam = ensemble.x, ensemble.lam
    dt = config.dt
    f_val, e_val = consensus_fields(ensemble, config)
    v = drift(x, lam, f_val, e_val)
    new_x = x + config.drift_gain * dt * v
    if config.noise_strength > 0:
        amplitude = config.noise_strength * math.sqrt(dt) * np.linalg.norm(v, axis=1)
        new_x = new_x + amplitude[:, None] * _draw_noise(rng, config)
    rate = eval_kernel(config.kernel, ensemble.summary(), x, lam)
    raw = lam + dt * rate
    clamped = int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
    new_lam = np.clip(raw, 0.0, 1.0)
    if not np.isfinite(new_x).all():
        raise SimulationError(
            f"non-finite position leaving t = {ensemble.time:g} (dt = {dt:g})"
        )
    return Ensemble(
        new_x, new_lam, ensemble.time + dt, ensemble.clamp_events + clamped
    )


class _Recorder:
    def __init__(self, config: SimConfig, ball_radii: Sequence[float], keep_snapshots: bool):
        for r in ball_radii:
            require_finite(ConfigError, ball_radius=r)
            if r <= 0:
                raise ConfigError("ball radii must be positive")
        self.config = config
        self.radii = sorted(float(r) for r in ball_radii)
        self.times: list[float] = []
        self.m2_sq: list[float] = []
        self.mean_x: list[np.ndarray] = []
        self.mean_lambda: list[float] = []
        self.mass: dict[float, list[float]] = {r: [] for r in self.radii}
        self.consensus: list[np.ndarray] = []
        self.snapshots: list[Snapshot] | None = [] if keep_snapshots else None

    def observe(self, ensemble: Ensemble, fields, snapshot: bool, observers) -> None:
        f_val, e_val = fields
        norms_sq = np.sum(ensemble.x * ensemble.x, axis=1)
        self.times.append(ensemble.time)
        self.m2_sq.append(float(norms_sq.mean()))
        self.mean_x.append(ensemble.x.mean(axis=0))
        self.mean_lambda.append(float(ensemble.lam.mean()))
        for r in self.radii:
            self.mass[r].append(float(np.count_nonzero(norms_sq < r * r) / ensemble.n_agents))
        if f_val is not None:
            self.consensus.append(f_val)
        if snapshot and self.snapshots is not None:
            self.snapshots.append(Snapshot(ensemble.copy(), f_val, e_val))
        for obs in observers:
            obs(len(self.times) - 1, ensemble, f_val, e_val)

    def build(self, final: Ensemble, lam_min: float, lam_max: float) -> TrajectoryRecord:
        consensus = (
            np.asarray(self.consensus) if self.config.mode == "full" else None
        )
        return TrajectoryRecord(
            times=np.asarray(self.times),
            m2_sq=np.asarray(self.m2_sq),
            mean_x=np.asarray(self.mean_x),
            mean_lambda=np.asarray(self.mean_lambda),
            mass_ball={r: np.asarray(series) for r, series in self.mass.items()},
            consensus_point=consensus,
            clamp_events=final.clamp_events,
            mode=self.config.mode,
            lambda_min=lam_min,
            lambda_max=lam_max,
            snapshots=self.snapshots,
        )


def _check_stride(name: str, stride: int, steps: int) -> None:
    if stride < 1 or steps % stride != 0:
        raise ConfigError(f"{name} = {stride} must be positive and divide {steps} steps")


def _trajectory(config: SimConfig, record_stride: int):
    """Step one run; yield (step, ensemble, fields, lam_min, lam_max) at
    step 0 and every record_stride-th step.

    fields are the consensus fields of the yielded state, for the caller;
    em_step computes those of the state it leaves. lam_min / lam_max are
    running extremes over every state so far, recorded or not. The initial
    ensemble and each step's noise are drawn from one stream seeded by
    config.seed, so two configs that differ only in mode see the same draws.
    """
    steps = config.n_steps
    rng = rng_from_seed(config.seed)
    ens = initial_ensemble(config, rng)
    lam_min = float(ens.lam.min())
    lam_max = float(ens.lam.max())
    yield 0, ens, consensus_fields(ens, config), lam_min, lam_max
    for k in range(1, steps + 1):
        recorded = k % record_stride == 0
        try:
            ens = em_step(ens, config, rng)
            fields = consensus_fields(ens, config) if recorded else None
        except (SimulationError, GibbsError) as exc:
            raise SimulationError(f"step {k}/{steps}: {exc}") from exc
        lam_min = min(lam_min, float(ens.lam.min()))
        lam_max = max(lam_max, float(ens.lam.max()))
        if recorded:
            yield k, ens, fields, lam_min, lam_max


def simulate(
    config: SimConfig,
    observers: Sequence[Observer] = (),
    record_stride: int = 1,
    snapshot_stride: int | None = None,
    ball_radii: Sequence[float] = (),
) -> TrajectoryRecord:
    """Integrate one run and return its recorded statistics.

    Statistics are recorded at t = 0 and every record_stride-th step; full
    ensemble snapshots (with the consensus fields in force) are kept every
    snapshot_stride-th step when requested. Both strides must divide the step
    count so the final time is always recorded. Identical (config, seed)
    give identical records, bit for bit.
    """
    steps = config.n_steps
    _check_stride("record_stride", record_stride, steps)
    if snapshot_stride is not None:
        _check_stride("snapshot_stride", snapshot_stride, steps)
        if snapshot_stride % record_stride != 0:
            raise ConfigError("snapshot_stride must be a multiple of record_stride")
    rec = _Recorder(config, ball_radii, snapshot_stride is not None)
    for k, ens, fields, lam_min, lam_max in _trajectory(config, record_stride):
        snap = snapshot_stride is not None and k % snapshot_stride == 0
        rec.observe(ens, fields, snap, observers)
    return rec.build(ens, lam_min, lam_max)


@dataclass
class CoupledRecord:
    """Synchronously coupled full/auxiliary pair sharing noise and initial data."""

    times: np.ndarray
    gap_sq: np.ndarray
    full: TrajectoryRecord
    aux: TrajectoryRecord


def simulate_pair_coupled(
    config_full: SimConfig,
    config_aux: SimConfig,
    record_stride: int = 1,
    ball_radii: Sequence[float] = (),
) -> CoupledRecord:
    """Run the consensus-driven and consensus-free systems on shared randomness.

    The coupling is same seed, same draws: the two runs step in lockstep,
    each drawing its initial agents and its noise from its own stream on
    the common seed, so both see identical initial data and increments.
    Both configs must agree on everything except mode. The ensemble-average
    squared position gap is recorded alongside both trajectories; both
    records carry the joint lambda extremes of the pair. The gap starts
    at zero (shared initial agents) and stays zero only while the consensus
    term is inert; once information rates are positive the full drift keeps
    an extra lambda-weighted consensus pull that the auxiliary flow drops,
    so a nonzero gap at sharpness 0 is expected, not a coupling bug.
    """
    if config_full.mode != "full" or config_aux.mode != "auxiliary":
        raise ConfigError("pass the full-mode config first, auxiliary second")
    if config_full.signature(ignore_mode=True) != config_aux.signature(ignore_mode=True):
        raise ConfigError("coupled configs must agree on everything except mode")
    _check_stride("record_stride", record_stride, config_full.n_steps)
    rec_f = _Recorder(config_full, ball_radii, keep_snapshots=False)
    rec_a = _Recorder(config_aux, ball_radii, keep_snapshots=False)
    gaps = []
    for (_, ens_f, fields_f, lo_f, hi_f), (_, ens_a, fields_a, lo_a, hi_a) in zip(
        _trajectory(config_full, record_stride), _trajectory(config_aux, record_stride)
    ):
        rec_f.observe(ens_f, fields_f, snapshot=False, observers=())
        rec_a.observe(ens_a, fields_a, snapshot=False, observers=())
        gap = ens_f.x - ens_a.x
        gaps.append(float(np.sum(gap * gap, axis=1).mean()))
    lam_lo, lam_hi = min(lo_f, lo_a), max(hi_f, hi_a)
    return CoupledRecord(
        times=np.asarray(rec_f.times),
        gap_sq=np.asarray(gaps),
        full=rec_f.build(ens_f, lam_lo, lam_hi),
        aux=rec_a.build(ens_a, lam_lo, lam_hi),
    )
