"""Euler-Maruyama integration of the interacting particle system.

State per agent: position x in R^d and information level lambda in [0, 1].
One step, with v the drift field built from the Gibbs consensus f and the
ensemble mean e evaluated on the pre-step ensemble:

    x'      = x + nu * v dt + sigma * ||v|| sqrt(dt) * xi      (xi ~ N(0, I_d))
    lambda' = clamp(lambda + T(x, lambda; ensemble) dt, 0, 1)

With dt <= theta the lambda update is a convex combination of admissible
values, so the clamp never fires; the counter exists to prove that. The
step clips and counts only when the update left [0, 1] (or holds a NaN):
otherwise the clip would return its input and count nothing.

The step and the stepping loop take a batch of R independent replicas of
one configuration, stored replica-major as (R * N, d) rows. Elementwise work
runs on the rows; every reduction (means, Gibbs weights, summaries) runs per
replica on (R, N, d) views, and each replica draws from its own stream, so a
replica's numbers do not depend on the batch it runs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .gibbs import (
    ConsensusParams,
    GibbsError,
    consensus_from_energies,
    cutoff_eta,
    drift,
)
from .infokernel import KernelSpec, PopulationSummary, _rate
from .measures import EmpiricalMeasure
from .objectives import (
    ObjectiveSpec,
    ObservableMap,
    eval_objective_batch,
)
from .trajectory import Snapshot, TrajectoryRecord
from .util import (agent_mean, apply_field_rules, in_unit_interval, is_whole, require_finite,
                   rng_from_seed, scale_rows, sq_norm, uniform_ball)

MODES = ("full", "auxiliary")


class ConfigError(ValueError):
    """Rejected simulation configuration."""


class SimulationError(RuntimeError):
    """Numerical breakdown during integration."""


@dataclass
class Ensemble:
    """N agents at a common time, stored as arrays for vector arithmetic.

    A batch of R replicas stores replica r in rows r * N to (r + 1) * N - 1
    of x and lam; clamp_events holds one count per replica.
    """

    x: np.ndarray
    lam: np.ndarray
    time: float = 0.0
    clamp_events: np.ndarray | int = 0
    replicas: int = 1

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] < 1:
            raise ConfigError("ensemble positions must form a nonempty (N, d) array")
        if self.lam.shape != (self.x.shape[0],):
            raise ConfigError("lambda vector must match the agent count")
        if self.replicas < 1 or self.x.shape[0] % self.replicas:
            raise ConfigError("the rows must split evenly into the replicas")
        if not in_unit_interval(self.lam):
            raise ConfigError("agent lambda outside [0, 1]")
        self.clamp_events = np.broadcast_to(self.clamp_events, self.replicas).astype(int)

    @property
    def n_agents(self) -> int:
        """Agents per replica."""
        return self.x.shape[0] // self.replicas

    @property
    def dimension(self) -> int:
        return self.x.shape[1]

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """x as (R, N, d) and lam as (R, N), sharing memory with the rows."""
        r = self.replicas
        return self.x.reshape(r, -1, self.x.shape[1]), self.lam.reshape(r, -1)

    def spatial_measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure.uniform(self.x)

    def copy(self) -> "Ensemble":
        return Ensemble(
            self.x.copy(), self.lam.copy(), self.time, self.clamp_events, self.replicas
        )


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
        apply_field_rules(self, ConfigError)
        if self.spatial_kind not in ("gaussian", "ball", "point"):
            raise ConfigError(f"unknown initial law {self.spatial_kind!r}")
        if self.spatial_kind != "point" and self.spread <= 0:
            raise ConfigError("gaussian/ball initial laws need a positive spread")
        if not (0.0 <= self.lambda_lo <= self.lambda_hi <= 1.0):
            raise ConfigError("lambda initial range must satisfy 0 <= lo <= hi <= 1")

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
            x = center + uniform_ball(rng, count, dim, self.spread)
        else:
            x = np.tile(center, (count, 1))
        if self.lambda_hi > self.lambda_lo:
            lam = rng.uniform(self.lambda_lo, self.lambda_hi, size=count)
        else:
            lam = np.full(count, self.lambda_lo)
        return x, lam


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; construction validates the combination.

    mode "full" integrates the consensus-driven system; "auxiliary" drops the
    consensus term (sharpness and observable are ignored there). A set
    truncation_radius scales both attraction targets by the first-moment
    cutoff, which is what the a-priori moment envelope assumes.

    A config is frozen, so the checks made here hold for its whole life;
    dataclasses.replace builds a new one and checks it again. Its
    consensus_params are built once, here.
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
    consensus_params: ConsensusParams = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        apply_field_rules(self, ConfigError)
        if not 0 <= self.seed < 2**64:  # rng_from_seed's range, refused here as a ConfigError
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed!r}")
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
        if self.drift_gain <= 0:
            raise ConfigError("drift gain must be positive")
        if self.noise_strength < 0:
            raise ConfigError("noise strength must be nonnegative")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise ConfigError("truncation radius must be positive when set")
        try:  # ConsensusParams states the sharpness rule
            params = ConsensusParams(self.sharpness, self.objective, self.observable)
        except GibbsError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "consensus_params", params)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def initial_ensemble(config: SimConfig, rngs: Sequence[np.random.Generator]) -> Ensemble:
    """One replica per generator, each sampled from its own stream."""
    draws = [config.init.sample(rng, config.n_particles) for rng in rngs]
    return Ensemble(
        np.concatenate([x for x, _ in draws]),
        np.concatenate([lam for _, lam in draws]),
        replicas=len(draws),
    )


class Fields(NamedTuple):
    """One state's (R, d) targets f (None in auxiliary mode) and e, scaled by
    the cutoff under truncation, and its raw crowd mean mean_x, which the rate
    kernel and the recorder read (None: the summary computes it)."""

    f: np.ndarray | None
    e: np.ndarray
    mean_x: np.ndarray | None


def consensus_fields(ensemble: Ensemble, config: SimConfig) -> Fields:
    """The Fields of each replica, computed once per state and shared by all
    its agents, so a step costs O(N d) per replica regardless of sharpness."""
    xs, _ = ensemble.views()
    e_val = mean_x = agent_mean(xs)
    if config.mode == "auxiliary":
        f_val = None
    else:
        energies = eval_objective_batch(config.objective, ensemble.x)
        n = xs.shape[1]
        f_val = consensus_from_energies(
            config.consensus_params, xs, 1.0 / n, energies.reshape(-1, n)
        )
    if config.truncation_radius is not None:
        m1 = np.sqrt(sq_norm(xs)).mean(axis=1)
        phi = np.array([[cutoff_eta(config.truncation_radius, m)] for m in m1])
        e_val = phi * e_val
        if f_val is not None:
            f_val = phi * f_val
    return Fields(f_val, e_val, mean_x)


def drift_and_rate(ensemble: Ensemble, config: SimConfig, fields: Fields):
    """Drift v (rows, d) and information rate T (rows,) of every agent, each
    replica pulled toward its own consensus fields: (R, d) arrays as returned
    by consensus_fields, or (d,) arrays for a single replica."""
    f_val, e_val, mean_x = fields
    xs, lams = ensemble.views()
    targets = (xs.shape[0], 1, xs.shape[2])
    f_val = None if f_val is None else f_val.reshape(targets)
    v = drift(xs, lams, f_val, e_val.reshape(targets))
    summary = PopulationSummary.from_arrays(xs, lams, mean_x=mean_x)
    rate = _rate(config.kernel, summary, xs, lams)  # lams in [0, 1]: see _rate
    return v.reshape(ensemble.x.shape), rate.reshape(-1)


def _draw_noise(rngs: Sequence[np.random.Generator], ensemble: Ensemble,
                shared: bool) -> np.ndarray:
    """One increment per row, replica r drawing in order from rngs[r]."""
    n, d = ensemble.n_agents, ensemble.dimension
    if shared:
        # one Brownian increment shared by every agent of a replica
        return np.repeat([rng.standard_normal(d) for rng in rngs], n, axis=0)
    noise = np.empty(ensemble.x.shape)
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=noise[r * n:(r + 1) * n])
    return noise


def em_step(ensemble: Ensemble, config: SimConfig, rng, motion=None) -> Ensemble:
    """One Euler-Maruyama step; consensus fields are frozen at the pre-step state.

    rng is one generator per replica, or a bare generator for one replica.
    motion is the pre-step (v, rate) of drift_and_rate, when the caller has
    it already; None computes it here.
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    if len(rngs) != ensemble.replicas:
        raise ConfigError(f"{len(rngs)} noise generators for {ensemble.replicas} replicas")
    x, lam = ensemble.x, ensemble.lam
    dt = config.dt
    if motion is None:
        motion = drift_and_rate(ensemble, config, consensus_fields(ensemble, config))
    v, rate = motion
    new_x = x + config.drift_gain * dt * v
    if config.noise_strength > 0:
        amplitude = config.noise_strength * math.sqrt(dt) * np.sqrt(sq_norm(v))
        new_x = new_x + scale_rows(amplitude, _draw_noise(rngs, ensemble, config.shared_noise))
    new_lam, clamps = lam + dt * rate, ensemble.clamp_events
    if not (new_lam.min() >= 0.0 and new_lam.max() <= 1.0):  # holds at dt <= theta; NaN fails
        outside = ((new_lam < 0.0) | (new_lam > 1.0)).reshape(ensemble.replicas, -1)
        new_lam, clamps = new_lam.clip(0.0, 1.0), clamps + np.add.reduce(outside, axis=1)
    if not np.logical_and.reduce(np.isfinite(new_x), axis=None):
        finite = np.isfinite(new_x).reshape(ensemble.replicas, -1).all(axis=1)
        raise SimulationError(f"non-finite position in replica {int(np.argmin(finite))} "
                              f"leaving t = {ensemble.time:g} (dt = {dt:g})")
    # built without Ensemble.__post_init__, whose checks hold by construction:
    # lam lies in [0, 1] or is clipped there, x checked finite, the layout the predecessor's
    successor = object.__new__(Ensemble)
    vars(successor).update(x=new_x, lam=new_lam, time=ensemble.time + dt,
                           clamp_events=clamps, replicas=ensemble.replicas)
    return successor


class _Recorder:
    """(R,) statistics of each recorded state, split per replica by build;
    radii as _observer_radii returns them.

    observe keeps each state's per-replica sums (of ||x||^2, of lambda, and
    the count inside each ball); build divides the stacked series by N once,
    the same bits as each state's sum divided by N."""

    def __init__(self, config: SimConfig, radii: list[float], keep_snapshots: bool):
        self.config = config
        self.radii = radii
        self.radii_sq = np.array([r * r for r in radii]).reshape(-1, 1, 1)
        self.times: list[float] = []
        self.m2_sum: list[np.ndarray] = []
        self.mean_x: list[np.ndarray] = []
        self.lambda_sum: list[np.ndarray] = []
        self.inside: list[np.ndarray] = []  # (len(radii), R) counts per state
        self.consensus: list[np.ndarray] = []
        self.snapshots: dict[int, list[Snapshot]] | None = {} if keep_snapshots else None

    def observe(self, ensemble: Ensemble, fields: Fields, snapshot: bool) -> None:
        f_val, e_val, mean_x = fields
        xs, lams = ensemble.views()
        norms_sq = sq_norm(ensemble.x).reshape(lams.shape)
        self.times.append(ensemble.time)
        self.m2_sum.append(np.add.reduce(norms_sq, axis=1))
        self.mean_x.append(mean_x)
        self.lambda_sum.append(np.add.reduce(lams, axis=1))
        self.inside.append(np.add.reduce(norms_sq < self.radii_sq, axis=2))
        if f_val is not None:
            self.consensus.append(f_val)
        if snapshot and self.snapshots is not None:
            for r in range(ensemble.replicas):
                alone = Ensemble(xs[r].copy(), lams[r].copy(), ensemble.time,
                                 ensemble.clamp_events[r])
                self.snapshots.setdefault(r, []).append(
                    Snapshot(alone, None if f_val is None else f_val[r], e_val[r]))

    def build(self, final: Ensemble, lam_min: np.ndarray, lam_max: np.ndarray
              ) -> list[TrajectoryRecord]:
        # replica-major (R, times, ...) stacks; no consensus in auxiliary mode
        m2_sum, mean_x, lambda_sum, consensus = (
            np.stack(series, axis=1) if series else None
            for series in (self.m2_sum, self.mean_x, self.lambda_sum, self.consensus)
        )
        n = final.n_agents
        m2_sq, mean_lambda = m2_sum / n, lambda_sum / n
        mass = np.stack(self.inside, axis=2) / n  # (len(radii), R, times)
        return [
            TrajectoryRecord(
                times=np.asarray(self.times),
                m2_sq=m2_sq[r],
                mean_x=mean_x[r],
                mean_lambda=mean_lambda[r],
                mass_ball={radius: series[r] for radius, series in zip(self.radii, mass)},
                consensus_point=None if consensus is None else consensus[r],
                clamp_events=int(final.clamp_events[r]),
                mode=self.config.mode,
                lambda_min=float(lam_min[r]),
                lambda_max=float(lam_max[r]),
                snapshots=None if self.snapshots is None else self.snapshots[r],
            )
            for r in range(final.replicas)
        ]


def _observer_radii(steps: int, record_stride: int, snapshot_stride: int | None = None,
                    ball_radii=(), names=("record_stride", "snapshot_stride")) -> list[float]:
    """The observer rules, stated once: each stride is a whole number (2.0
    counts as 2), at least 1 and divides steps (the final time is recorded),
    the snapshot stride is a multiple of the record stride, and each ball
    radius is finite, positive and given once. Returns the radii sorted; an
    error calls the strides by names."""
    for name, stride in zip(names, (record_stride, snapshot_stride)):
        if stride is not None and not is_whole(stride):
            raise ConfigError(f"{name} = {stride} is not a whole number")
        if stride is not None and (stride < 1 or steps % stride != 0):
            raise ConfigError(f"{name} = {stride} must be positive and divide {steps} steps")
    if snapshot_stride is not None and snapshot_stride % record_stride != 0:
        raise ConfigError(f"{names[1]} must be a multiple of {names[0]}")
    for r in ball_radii:
        require_finite(ConfigError, ball_radius=r)
        if r <= 0:
            raise ConfigError("ball radii must be positive")
    radii = sorted(float(r) for r in ball_radii)
    if len(set(radii)) < len(radii):
        raise ConfigError(f"ball radius {max(radii, key=radii.count)!r} is given twice")
    return radii


def _trajectory(config: SimConfig, record_stride: int, seeds: Sequence[int] | None = None):
    """Step one batch; yield (step, ensemble, fields, lam_min, lam_max) at
    step 0 and every record_stride-th step.

    The batch holds one replica per seed (default: the single config.seed).
    fields are the consensus fields of the yielded state, for the caller.
    A caller that has computed the (v, rate) of a yielded state sends it
    back, and the step leaving that state uses it; otherwise (a plain for
    loop sends None) em_step computes it. lam_min / lam_max hold
    each replica's running extremes over every state so far, recorded or
    not. Each replica draws its initial agents and then each step's noise
    from its own stream, so two configs that differ only in mode see the
    same draws, and a replica's draws do not depend on the batch. An error
    names the step (0 for the initial state) and the failing replica by its
    place in the batch.
    """
    steps = config.n_steps
    seeds = (config.seed,) if seeds is None else seeds
    rngs = [rng_from_seed(seed) for seed in seeds]
    ens = initial_ensemble(config, rngs)
    lam_min, lam_max = np.full(ens.replicas, np.inf), np.full(ens.replicas, -np.inf)
    motion = None
    for k in range(steps + 1):  # k = 0 evaluates the initial state
        recorded = k % record_stride == 0
        try:
            if k > 0:
                ens = em_step(ens, config, rngs, motion)
            fields = consensus_fields(ens, config) if recorded else None
        except (SimulationError, GibbsError) as exc:
            raise SimulationError(f"step {k}/{steps}: {exc}") from exc
        lams = ens.lam.reshape(ens.replicas, -1)
        lam_min = np.minimum(lam_min, lams.min(axis=1))
        lam_max = np.maximum(lam_max, lams.max(axis=1))
        motion = None
        if recorded:
            motion = yield k, ens, fields, lam_min, lam_max


def _simulate_batch(
    config: SimConfig,
    seeds: Sequence[int],
    record_stride: int = 1,
    snapshot_stride: int | None = None,
    ball_radii: Sequence[float] = (),
) -> list[TrajectoryRecord]:
    """Integrate one run per seed, stepped as one batch; one record per seed.

    Statistics are recorded at t = 0 and every record_stride-th step; full
    ensemble snapshots (with the consensus fields in force) are kept every
    snapshot_stride-th step when requested; the strides and ball_radii keep
    the rules of _observer_radii. Record r equals, bit for bit,
    the record of replace(config, seed=seeds[r]) run alone. An error names
    the failing replica by its place in seeds.
    """
    radii = _observer_radii(config.n_steps, record_stride, snapshot_stride, ball_radii)
    rec = _Recorder(config, radii, snapshot_stride is not None)
    for k, ens, fields, lam_min, lam_max in _trajectory(config, record_stride, seeds):
        rec.observe(ens, fields, snapshot_stride is not None and k % snapshot_stride == 0)
    return rec.build(ens, lam_min, lam_max)


def simulate(config: SimConfig, record_stride: int = 1, snapshot_stride: int | None = None,
             ball_radii: Sequence[float] = ()) -> TrajectoryRecord:
    """Integrate one run: _simulate_batch of the one seed config.seed."""
    return _simulate_batch(config, [config.seed], record_stride, snapshot_stride, ball_radii)[0]

