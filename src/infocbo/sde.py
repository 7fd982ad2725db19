"""Euler-Maruyama integration of the interacting particle system.

State per agent: position x in R^d and information level lambda in [0, 1].
One step, with v the drift field built from the Gibbs consensus f and the
ensemble mean e evaluated on the pre-step ensemble:

    x'      = x + nu * v dt + sigma * ||v|| sqrt(dt) * xi      (xi ~ N(0, I_d))
    lambda' = clamp(lambda + T(x, lambda; ensemble) dt, 0, 1)

With dt <= theta the lambda update is a convex combination of admissible
values, so the clamp never fires; the counter exists to prove that.

The step and the stepping loop take a batch of R independent replicas of
one configuration, stored replica-major as (R * N, d) rows. Elementwise work
runs on the rows; every reduction (means, Gibbs weights, summaries) runs per
replica on (R, N, d) views, and each replica draws from its own stream, so a
replica's numbers do not depend on the batch it runs in.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .gibbs import (
    ConsensusParams,
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
from .util import agent_mean, require_finite, rng_from_seed, row_sum, uniform_ball

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
        if np.any(self.lam < 0) or np.any(self.lam > 1):
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
        object.__setattr__(
            self,
            "consensus_params",
            ConsensusParams(self.sharpness, self.objective, self.observable),
        )

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


def consensus_fields(ensemble: Ensemble, config: SimConfig):
    """(f, e) targets of each replica, as (R, d) arrays; f is None in
    auxiliary mode.

    Both are computed once per step and shared by all agents of a replica,
    so a step costs O(N d) per replica regardless of sharpness.
    """
    xs, _ = ensemble.views()
    e_val = agent_mean(xs)
    if config.mode == "auxiliary":
        f_val = None
    else:
        energies = eval_objective_batch(config.objective, ensemble.x)
        n = xs.shape[1]
        masses = np.full(n, 1.0 / n)
        f_val = consensus_from_energies(
            config.consensus_params, xs, masses, energies.reshape(-1, n)
        )
    if config.truncation_radius is not None:
        m1 = np.sqrt(row_sum(xs * xs)).mean(axis=1)
        phi = np.array([[cutoff_eta(config.truncation_radius, m)] for m in m1])
        e_val = phi * e_val
        if f_val is not None:
            f_val = phi * f_val
    return f_val, e_val


def drift_and_rate(ensemble: Ensemble, config: SimConfig, fields):
    """Drift v (rows, d) and information rate T (rows,) of every agent, each
    replica pulled toward its own consensus fields: (R, d) arrays as returned
    by consensus_fields, or (d,) arrays for a single replica."""
    f_val, e_val = fields
    xs, lams = ensemble.views()
    targets = (xs.shape[0], 1, xs.shape[2])
    f_val = None if f_val is None else f_val.reshape(targets)
    v = drift(xs, lams, f_val, e_val.reshape(targets))
    rate = eval_kernel(config.kernel, PopulationSummary.from_arrays(xs, lams), xs, lams)
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


def em_step(ensemble: Ensemble, config: SimConfig, rng) -> Ensemble:
    """One Euler-Maruyama step; consensus fields are frozen at the pre-step state.

    rng is one generator per replica, or a bare generator for one replica.
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    x, lam = ensemble.x, ensemble.lam
    dt = config.dt
    v, rate = drift_and_rate(ensemble, config, consensus_fields(ensemble, config))
    new_x = x + config.drift_gain * dt * v
    if config.noise_strength > 0:
        amplitude = config.noise_strength * math.sqrt(dt) * np.sqrt(row_sum(v * v))
        new_x = new_x + amplitude[:, None] * _draw_noise(rngs, ensemble, config.shared_noise)
    raw = lam + dt * rate
    outside = ((raw < 0.0) | (raw > 1.0)).reshape(ensemble.replicas, -1)
    new_lam = np.clip(raw, 0.0, 1.0)
    if not np.isfinite(new_x).all():
        finite = np.isfinite(new_x).reshape(ensemble.replicas, -1).all(axis=1)
        raise SimulationError(f"non-finite position in replica {int(np.argmin(finite))} "
                              f"leaving t = {ensemble.time:g} (dt = {dt:g})")
    return Ensemble(
        new_x, new_lam, ensemble.time + dt,
        ensemble.clamp_events + np.count_nonzero(outside, axis=1), ensemble.replicas,
    )


class _Recorder:
    """(R,) statistics of each recorded state, split per replica by build."""

    def __init__(self, config: SimConfig, ball_radii: Sequence[float], keep_snapshots: bool):
        for r in ball_radii:
            require_finite(ConfigError, ball_radius=r)
            if r <= 0:
                raise ConfigError("ball radii must be positive")
        self.config = config
        self.radii = sorted(float(r) for r in ball_radii)
        self.times: list[float] = []
        self.m2_sq: list[np.ndarray] = []
        self.mean_x: list[np.ndarray] = []
        self.mean_lambda: list[np.ndarray] = []
        self.mass: dict[float, list[np.ndarray]] = {r: [] for r in self.radii}
        self.consensus: list[np.ndarray] = []
        self.snapshots: dict[int, list[Snapshot]] | None = {} if keep_snapshots else None

    def observe(self, ensemble: Ensemble, fields, snapshot: bool) -> None:
        f_val, e_val = fields
        xs, lams = ensemble.views()
        norms_sq = row_sum(ensemble.x * ensemble.x).reshape(lams.shape)
        self.times.append(ensemble.time)
        self.m2_sq.append(norms_sq.mean(axis=1))
        self.mean_x.append(agent_mean(xs))
        self.mean_lambda.append(lams.mean(axis=1))
        for r in self.radii:
            self.mass[r].append(np.count_nonzero(norms_sq < r * r, axis=1) / ensemble.n_agents)
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
        m2_sq, mean_x, mean_lambda, consensus, *mass = (
            np.stack(series, axis=1) if series else None
            for series in (self.m2_sq, self.mean_x, self.mean_lambda, self.consensus,
                           *self.mass.values())
        )
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


def _check_stride(name: str, stride: int, steps: int) -> None:
    if stride < 1 or steps % stride != 0:
        raise ConfigError(f"{name} = {stride} must be positive and divide {steps} steps")


def _trajectory(config: SimConfig, record_stride: int, seeds: Sequence[int] | None = None,
                first: int = 0):
    """Step one batch; yield (step, ensemble, fields, lam_min, lam_max) at
    step 0 and every record_stride-th step.

    The batch holds one replica per seed (default: the single config.seed).
    fields are the consensus fields of the yielded state, for the caller;
    em_step computes those of the state it leaves. lam_min / lam_max hold
    each replica's running extremes over every state so far, recorded or
    not. Each replica draws its initial agents and then each step's noise
    from its own stream, so two configs that differ only in mode see the
    same draws, and a replica's draws do not depend on the batch. An error
    names the failing replica as first + its place in the batch.
    """
    steps = config.n_steps
    seeds = (config.seed,) if seeds is None else seeds
    rngs = [rng_from_seed(seed) for seed in seeds]
    ens = initial_ensemble(config, rngs)
    lam_min, lam_max = ens.views()[1].min(axis=1), ens.views()[1].max(axis=1)
    yield 0, ens, consensus_fields(ens, config), lam_min, lam_max
    for k in range(1, steps + 1):
        recorded = k % record_stride == 0
        try:
            ens = em_step(ens, config, rngs)
            fields = consensus_fields(ens, config) if recorded else None
        except (SimulationError, GibbsError) as exc:
            # name the replica by its index in the run, not its place in this batch
            cause = re.sub(r"replica (\d+)", lambda m: f"replica {first + int(m[1])}", str(exc))
            raise SimulationError(f"step {k}/{steps}: {cause}") from exc
        lam_min = np.minimum(lam_min, ens.views()[1].min(axis=1))
        lam_max = np.maximum(lam_max, ens.views()[1].max(axis=1))
        if recorded:
            yield k, ens, fields, lam_min, lam_max


def _simulate_batch(
    config: SimConfig,
    seeds: Sequence[int],
    record_stride: int = 1,
    snapshot_stride: int | None = None,
    ball_radii: Sequence[float] = (),
    first_replica: int = 0,
) -> list[TrajectoryRecord]:
    """Integrate one run per seed, stepped as one batch; one record per seed.

    Statistics are recorded at t = 0 and every record_stride-th step; full
    ensemble snapshots (with the consensus fields in force) are kept every
    snapshot_stride-th step when requested. Both strides must divide the step
    count so the final time is always recorded. Record r equals, bit for bit,
    the record of replace(config, seed=seeds[r]) run alone. An error names
    the failing replica as first_replica + its place in seeds.
    """
    steps = config.n_steps
    _check_stride("record_stride", record_stride, steps)
    if snapshot_stride is not None:
        _check_stride("snapshot_stride", snapshot_stride, steps)
        if snapshot_stride % record_stride != 0:
            raise ConfigError("snapshot_stride must be a multiple of record_stride")
    rec = _Recorder(config, ball_radii, snapshot_stride is not None)
    for k, ens, fields, lam_min, lam_max in _trajectory(config, record_stride, seeds,
                                                         first_replica):
        rec.observe(ens, fields, snapshot_stride is not None and k % snapshot_stride == 0)
    return rec.build(ens, lam_min, lam_max)


def simulate(config: SimConfig, record_stride: int = 1, snapshot_stride: int | None = None,
             ball_radii: Sequence[float] = ()) -> TrajectoryRecord:
    """Integrate one run: _simulate_batch of the one seed config.seed."""
    return _simulate_batch(config, [config.seed], record_stride, snapshot_stride, ball_radii)[0]


@dataclass
class CoupledRecord:
    """Synchronously coupled full/auxiliary pair sharing noise and initial data."""

    times: np.ndarray
    gap_sq: np.ndarray
    full: TrajectoryRecord
    aux: TrajectoryRecord


def simulate_pair_coupled(
    config: SimConfig,
    record_stride: int = 1,
    ball_radii: Sequence[float] = (),
) -> CoupledRecord:
    """Run the consensus-driven and consensus-free systems on shared randomness.

    The pair is config run in mode "full" and in mode "auxiliary"; the mode
    config itself carries is not read. The coupling is same seed, same
    draws: the two runs step in lockstep, each drawing its initial agents
    and its noise from its own stream on the common seed, so both see
    identical initial data and increments. The ensemble-average squared
    position gap is recorded alongside both trajectories; both records
    carry the joint lambda extremes of the pair. The gap starts at zero
    (shared initial agents) and stays zero only while the consensus term is
    inert; once information rates are positive the full drift keeps an
    extra lambda-weighted consensus pull that the auxiliary flow drops, so
    a nonzero gap at sharpness 0 is expected, not a coupling bug.
    """
    config_full = replace(config, mode="full")
    config_aux = replace(config, mode="auxiliary")
    _check_stride("record_stride", record_stride, config.n_steps)
    rec_f = _Recorder(config_full, ball_radii, keep_snapshots=False)
    rec_a = _Recorder(config_aux, ball_radii, keep_snapshots=False)
    gaps = []
    for (_, ens_f, fields_f, lo_f, hi_f), (_, ens_a, fields_a, lo_a, hi_a) in zip(
        _trajectory(config_full, record_stride), _trajectory(config_aux, record_stride)
    ):
        rec_f.observe(ens_f, fields_f, snapshot=False)
        rec_a.observe(ens_a, fields_a, snapshot=False)
        gap = ens_f.x - ens_a.x
        gaps.append(float(row_sum(gap * gap).mean()))
    lam_lo, lam_hi = np.minimum(lo_f, lo_a), np.maximum(hi_f, hi_a)
    return CoupledRecord(
        times=np.asarray(rec_f.times),
        gap_sq=np.asarray(gaps),
        full=rec_f.build(ens_f, lam_lo, lam_hi)[0],
        aux=rec_a.build(ens_a, lam_lo, lam_hi)[0],
    )
