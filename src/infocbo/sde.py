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

A small batch works in blocks of _block_steps(rows) steps, at most
BLOCK_ROWS rows each, in two places: the stepping loop draws a block's noise
in one fill per replica, and the recorder reduces a block of states at once
(the lambda extremes of all of them, the sums of the recorded ones). One
fill of S * m normals draws, in order, what S fills of m draw, so every step
gets the bits it draws alone; each row is reduced in the order it is alone,
and min and max are exact, so a block gives the bits of one reduction per
state. A state of BLOCK_ROWS rows or more is a block of one step: it draws
its noise inside em_step and is reduced as it arrives.
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
from .infokernel import RANGE_EPS, KernelSpec, PopulationSummary, _rate
from .objectives import (
    ObjectiveSpec,
    ObservableMap,
    eval_objective_batch,
)
from .trajectory import TrajectoryRecord
from .util import (agent_mean, apply_field_rules, in_unit_interval, is_whole, require_finite,
                   require_seed, rng_from_seed, scale_rows, sq_norm, uniform_ball)

MODES = ("full", "auxiliary")

# rows (agents of all replicas, times steps) that one block of steps spans
BLOCK_ROWS = 4096


def _block_steps(rows: int) -> int:
    """Steps (and states) in one block of a batch of rows rows: at most
    BLOCK_ROWS rows, one if the state alone fills it."""
    return max(1, BLOCK_ROWS // rows)


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

    def sample(self, rng: np.random.Generator, count: int,
               out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """count agents' positions (count, d), drawn first, and lambdas (count,),
        written into out = (x, lam) when it is given: C-contiguous float64
        arrays of those shapes, such as a replica's rows of a batch. The draws
        and their bits are the same with or without out."""
        center = np.asarray(self.center, dtype=float)
        x, lam = out or (np.empty((count, center.size)), np.empty(count))
        if self.spatial_kind == "gaussian":
            np.multiply(rng.standard_normal(out=x), self.spread, out=x)
            x += center
        elif self.spatial_kind == "ball":
            uniform_ball(rng, count, center.size, self.spread, out=x)
            x += center
        else:
            x[:] = center
        lam[:] = (rng.uniform(self.lambda_lo, self.lambda_hi, size=count)
                  if self.lambda_hi > self.lambda_lo else self.lambda_lo)
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
        require_seed(ConfigError, "seed", self.seed)  # rng_from_seed's rule, as a ConfigError
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
        if self.dt > self.kernel.theta * (1.0 + RANGE_EPS):
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
    """One replica per generator, each sampled from its own stream into its own rows."""
    n = config.n_particles
    x, lam = np.empty((len(rngs) * n, config.d)), np.empty(len(rngs) * n)
    for r, rng in enumerate(rngs):
        config.init.sample(rng, n, out=(x[r * n:(r + 1) * n], lam[r * n:(r + 1) * n]))
    return Ensemble(x, lam, replicas=len(rngs))


class Fields(NamedTuple):
    """One state's (R, d) targets f (None in auxiliary mode) and e, scaled by
    the cutoff under truncation, and its raw crowd mean mean_x, which the rate
    kernel and the recorder read."""

    f: np.ndarray | None
    e: np.ndarray
    mean_x: np.ndarray


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
    replica pulled toward its own consensus fields, as consensus_fields
    returns them."""
    f_val, e_val, mean_x = fields
    xs, lams = ensemble.views()
    targets = (xs.shape[0], 1, xs.shape[2])
    f_val = None if f_val is None else f_val.reshape(targets)
    v = drift(xs, lams, f_val, e_val.reshape(targets))
    summary = PopulationSummary.from_arrays(xs, mean_x=mean_x)
    rate = _rate(config.kernel, summary, xs, lams)  # lams in [0, 1]: see _rate
    return v.reshape(ensemble.x.shape), rate.reshape(-1)


def _draw_noise(rngs: Sequence[np.random.Generator], ensemble: Ensemble,
                shared: bool, steps: int = 1) -> np.ndarray:
    """Increments of the next steps steps, one per row, step-major: step k
    takes rows k * rows to (k + 1) * rows - 1 of the (steps * rows, d)
    result. Replica r fills its (steps, N, d) block from rngs[r] in one
    call; one fill of steps * N * d normals draws, in order, what steps
    fills of N * d draw, so each step of a block has the bits it draws
    alone. Shared noise fills (steps, 1, d): one increment per step, taken
    by every agent of the replica."""
    n, d = ensemble.n_agents, ensemble.dimension
    noise = np.empty((len(rngs), steps, 1 if shared else n, d))
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=noise[r])
    if shared:
        noise = np.repeat(noise, n, axis=2)
    return noise.swapaxes(0, 1).reshape(-1, d)  # a copy only for several replicas and steps


def em_step(ensemble: Ensemble, config: SimConfig, rng, motion=None,
            noise=None) -> Ensemble:
    """One Euler-Maruyama step; consensus fields are frozen at the pre-step state.

    rng is one generator per replica, or a bare generator for one replica.
    motion is the pre-step (v, rate) of drift_and_rate, when the caller has
    it already; None computes it here. noise is this step's (rows, d)
    increments, a step of a _draw_noise block the caller drew from the same
    generators, scaled in place by scale_rows(amplitude, noise, out=noise);
    None draws it here from rng, once the drift is released. Neither moves a bit.
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    if len(rngs) != ensemble.replicas:
        raise ConfigError(f"{len(rngs)} noise generators for {ensemble.replicas} replicas")
    x, lam = ensemble.x, ensemble.lam
    dt = config.dt
    if motion is None:
        motion = drift_and_rate(ensemble, config, consensus_fields(ensemble, config))
    # every full-size temporary is released as soon as it is spent, so the
    # allocator reuses it instead of faulting in fresh pages; the bits are
    # those of x + (gain dt) v + amplitude * noise (addition commutes)
    v, rate = motion
    new_x = config.drift_gain * dt * v
    new_x += x
    if config.noise_strength > 0:
        amplitude = config.noise_strength * math.sqrt(dt) * np.sqrt(sq_norm(v))
        del v, motion  # a v computed here is freed before the noise is drawn
        if noise is None:
            noise = _draw_noise(rngs, ensemble, config.shared_noise)
        scale_rows(amplitude, noise, out=noise)
        new_x += noise
        del noise, amplitude
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


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """np.stack(arrays), a view without the copy when there is one array."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class _Recorder:
    """(R,) statistics of each recorded state, split per replica by build;
    radii as _observer_radii returns them.

    observe takes every state, with its fields on the record stride (the
    time, crowd mean and consensus it records) and None off it, and keeps
    the state until the block holds _block_steps(rows) states. reduce then
    takes, per replica, the lambda min and max over all of the block's
    states and the sums (of ||x||^2, of lambda, and the count inside each
    ball) over its recorded ones, each from one (states, R, N) stack; when
    every state is recorded the lambda sums read the extremes' stack. Each
    row is reduced in the order it is alone, and min and max are exact, so
    the bits are those of one reduction per state. A state given to observe
    is read later, so it must never be written again (em_step always
    returns new arrays). build reduces what is left and divides the series
    by N once, the same bits as each state's sum divided by N."""

    def __init__(self, config: SimConfig, radii: list[float], keep_snapshots: bool):
        self.config = config
        self.radii = radii
        self.radii_sq = np.array([r * r for r in radii]).reshape(-1, 1, 1, 1)
        self.times: list[float] = []
        self.mean_x: list[np.ndarray] = []
        self.consensus: list[np.ndarray] = []
        self.block: list[Ensemble] = []  # observed, not yet reduced
        self.kept: list[Ensemble] = []  # the block's recorded states
        self.lam_min: list[np.ndarray] = []  # (R,) per reduced block
        self.lam_max: list[np.ndarray] = []
        self.m2_sum: list[np.ndarray] = []  # (R, states) per reduced block
        self.lambda_sum: list[np.ndarray] = []
        self.inside: list[np.ndarray] = []  # (len(radii), R, states) counts per block
        self.snapshots: dict[int, list[Ensemble]] | None = {} if keep_snapshots else None

    def observe(self, ensemble: Ensemble, fields: Fields | None, snapshot: bool) -> None:
        if fields is not None:
            f_val, _, mean_x = fields
            self.times.append(ensemble.time)
            self.mean_x.append(mean_x)
            if f_val is not None:
                self.consensus.append(f_val)
            self.kept.append(ensemble)
        if snapshot and self.snapshots is not None:
            xs, lams = ensemble.views()
            for r in range(ensemble.replicas):
                self.snapshots.setdefault(r, []).append(Ensemble(
                    xs[r].copy(), lams[r].copy(), ensemble.time, ensemble.clamp_events[r]))
        self.block.append(ensemble)
        if len(self.block) == _block_steps(ensemble.x.shape[0]):
            self.reduce()

    def reduce(self) -> None:
        """Reduce the block's states, (states, R, N) at once, and drop them."""
        block, kept = self.block, self.kept
        lams = _stacked([s.lam for s in block]).reshape(len(block), block[0].replicas, -1)
        self.lam_min.append(lams.min(axis=(0, 2)))
        self.lam_max.append(lams.max(axis=(0, 2)))
        if kept:
            norms_sq = sq_norm(_stacked([s.x for s in kept])).reshape(len(kept), *lams.shape[1:])
            if len(kept) < len(block):  # off the stride: the recorded states' lambdas alone
                lams = _stacked([s.lam for s in kept]).reshape(norms_sq.shape)
            self.m2_sum.append(np.add.reduce(norms_sq, axis=2).T)
            self.lambda_sum.append(np.add.reduce(lams, axis=2).T)
            self.inside.append(np.add.reduce(norms_sq < self.radii_sq, axis=3).transpose(0, 2, 1))
        self.block, self.kept = [], []

    def build(self, final: Ensemble) -> list[TrajectoryRecord]:
        if self.block:
            self.reduce()
        # replica-major (R, times, ...) series; no consensus in auxiliary mode
        mean_x, consensus = (np.stack(series, axis=1) if series else None
                             for series in (self.mean_x, self.consensus))
        n = final.n_agents
        m2_sq, mean_lambda = (np.concatenate(blocks, axis=1) / n
                              for blocks in (self.m2_sum, self.lambda_sum))
        mass = np.concatenate(self.inside, axis=2) / n  # (len(radii), R, times)
        lam_min, lam_max = np.min(self.lam_min, axis=0), np.max(self.lam_max, axis=0)
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


def _trajectory(config: SimConfig, record_stride: int, seeds: Sequence[int]):
    """Step one batch; yield (step, ensemble, fields) for every state, step 0
    included, where fields are the state's consensus fields on every
    record_stride-th step and None off it. A yielded ensemble is never
    written again, so a caller may keep it.

    The batch holds one replica per seed.
    A caller that has computed the (v, rate) of a yielded state sends it
    back, and the step leaving that state uses it; otherwise (a plain for
    loop sends None) em_step computes it. Each replica draws its initial
    agents and then each step's noise from its own stream, so two configs
    that differ only in mode see the same draws, and a replica's draws do
    not depend on the batch. An error names the step (0 for the initial
    state) and the failing replica by its place in the batch.

    When a block holds several steps (_block_steps: steps 1 to S, S + 1 to
    2 S and so on, the last block cut at the final step), a noisy batch
    draws a block's noise at once (_draw_noise) and hands each step its
    slice, the bits the step draws alone; a batch of BLOCK_ROWS rows or more
    leaves the draw to em_step, after the drift is released, so the step's
    peak memory stays its own.
    """
    steps = config.n_steps
    rngs = [rng_from_seed(seed) for seed in seeds]
    ens = initial_ensemble(config, rngs)
    rows = ens.x.shape[0]
    span = _block_steps(rows)
    drawn_ahead = span > 1 and config.noise_strength > 0
    motion = noise = None
    for k in range(steps + 1):  # k = 0 evaluates the initial state
        try:
            if k > 0:
                if drawn_ahead:
                    j = (k - 1) % span  # the step's place in its block
                    if j == 0:
                        noise_block = _draw_noise(rngs, ens, config.shared_noise,
                                                  min(span, steps + 1 - k))
                    noise = noise_block[j * rows:(j + 1) * rows]
                ens = em_step(ens, config, rngs, motion, noise)
            fields = consensus_fields(ens, config) if k % record_stride == 0 else None
        except (SimulationError, GibbsError) as exc:
            raise SimulationError(f"step {k}/{steps}: {exc}") from exc
        motion = yield k, ens, fields


def _simulate_batch(
    config: SimConfig,
    seeds: Sequence[int],
    record_stride: int = 1,
    snapshot_stride: int | None = None,
    ball_radii: Sequence[float] = (),
) -> list[TrajectoryRecord]:
    """Integrate one run per seed, stepped as one batch; one record per seed.

    Statistics are recorded at t = 0 and every record_stride-th step; each
    replica's ensemble is kept as a snapshot every snapshot_stride-th step
    when requested; the strides and ball_radii keep the rules of
    _observer_radii. Record r equals, bit for bit, the record of
    replace(config, seed=seeds[r]) run alone. An error names the failing
    replica by its place in seeds.
    """
    radii = _observer_radii(config.n_steps, record_stride, snapshot_stride, ball_radii)
    rec = _Recorder(config, radii, snapshot_stride is not None)
    for k, ens, fields in _trajectory(config, record_stride, seeds):
        rec.observe(ens, fields, snapshot_stride is not None and k % snapshot_stride == 0)
    return rec.build(ens)


def simulate(config: SimConfig, record_stride: int = 1, snapshot_stride: int | None = None,
             ball_radii: Sequence[float] = ()) -> TrajectoryRecord:
    """Integrate one run: _simulate_batch of the one seed config.seed."""
    return _simulate_batch(config, [config.seed], record_stride, snapshot_stride, ball_radii)[0]

