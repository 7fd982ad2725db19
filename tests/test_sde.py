import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from infocbo import infokernel, sde, validation
from infocbo.gibbs import ConsensusParams, GibbsError, consensus_from_energies
from infocbo.infokernel import KernelSpec
from infocbo.measures import EmpiricalMeasure
from infocbo.objectives import ObservableMap, quadratic
from infocbo.sde import (
    ConfigError,
    Ensemble,
    InitialLaw,
    SimConfig,
    SimulationError,
    consensus_fields,
    drift_and_rate,
    em_step,
    simulate,
)
from infocbo.trajectory import RecordError, TrajectoryRecord
from infocbo.util import rng_from_seed, row_sum
from oracles import cutoff_phi_measure, truncated_drift

SYMMETRIC_KERNEL = KernelSpec("logistic", a=1.0, b=1.0)
ABSORBING_KERNEL = KernelSpec("logistic", a=1.0, b=0.0)  # lambda = 1 is a fixed point
CROWD_KERNEL = KernelSpec("crowd-coupled", a=1.0, b=1.0)


def make_config(**overrides):
    base = dict(
        d=1,
        n_particles=4,
        dt=0.1,
        t_end=1.0,
        seed=42,
        objective=quadratic(1),
        observable=ObservableMap(),
        kernel=SYMMETRIC_KERNEL,
        init=InitialLaw.gaussian(center=(1.0,), sigma=1.0, lambda_lo=0.2),
    )
    base.update(overrides)
    return SimConfig(**base)


def two_atom_ensemble(values, lam):
    x = np.asarray(values, dtype=float)[:, None]
    return Ensemble(x=x.copy(), lam=np.full(len(x), lam))


# ---------------------------------------------------------------------------
# config validation


def test_step_above_kernel_stability_bound_is_rejected():
    with pytest.raises(ConfigError):
        make_config(dt=0.6)  # theta = 0.5 for the symmetric kernel


def test_horizon_must_be_a_multiple_of_the_step():
    with pytest.raises(ConfigError):
        make_config(dt=0.3, t_end=1.0)


def test_negative_horizon_is_rejected():
    with pytest.raises(ConfigError):
        make_config(t_end=-1.0)


def test_objective_dimension_must_match():
    with pytest.raises(ConfigError):
        make_config(objective=quadratic(2))


def test_initial_center_must_match_dimension():
    with pytest.raises(ConfigError):
        make_config(init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0))


def test_unknown_mode_is_rejected():
    with pytest.raises(ConfigError):
        make_config(mode="hybrid")


def test_truncation_radius_must_be_positive_when_set():
    with pytest.raises(ConfigError):
        make_config(truncation_radius=0.0)


def test_drift_gain_must_be_positive():
    with pytest.raises(ConfigError, match="drift gain"):
        make_config(drift_gain=0.0)


def test_a_checked_config_cannot_be_changed():
    # a config checked at construction must stay checked: NaN noise or a
    # negative step set afterwards would run without an error
    cfg = make_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.noise_strength = math.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = -0.01
    with pytest.raises(ConfigError, match="noise_strength must be finite"):
        dataclasses.replace(cfg, noise_strength=math.nan)


def test_consensus_params_are_built_once_per_config(monkeypatch):
    seen = []

    def spy(params, *args):
        seen.append(params)
        return consensus_from_energies(params, *args)

    monkeypatch.setattr(sde, "consensus_from_energies", spy)
    cfg = make_config(n_particles=6)
    ens = sde.initial_ensemble(cfg, [rng_from_seed(cfg.seed)])
    consensus_fields(ens, cfg)
    consensus_fields(ens, cfg)
    assert len(seen) == 2
    assert all(params is cfg.consensus_params for params in seen)
    sharper = dataclasses.replace(cfg, sharpness=3.0)
    assert sharper.consensus_params is not cfg.consensus_params
    assert sharper.consensus_params.sharpness == 3.0
    assert sharper.consensus_params.objective is cfg.objective


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_the_sharpness_rule_is_stated_once(value):
    # a config refuses a sharpness with the consensus parameters' own words
    with pytest.raises(GibbsError) as stated:
        ConsensusParams(value, quadratic(1), ObservableMap())
    with pytest.raises(ConfigError) as refused:
        make_config(sharpness=value)
    assert str(refused.value) == str(stated.value)


@pytest.mark.parametrize("field", ["d", "n_particles", "seed"])
@pytest.mark.parametrize("value", [1.5, True, "2", math.nan, math.inf])
def test_counts_and_the_seed_must_be_whole_numbers(field, value):
    # unchecked, seed 1.5 or True runs as seed 1 and a fractional N fails in numpy
    message = f"{field} must be a whole number, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        make_config(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_a_seed_outside_64_bits_is_refused(seed):
    # outside rng_from_seed's range; the config refuses it with its own error
    with pytest.raises(ConfigError, match=re.escape(f"seed must lie in [0, 2**64), got {seed}")):
        make_config(seed=seed)
    assert make_config(seed=seed % 2**64).seed == seed % 2**64


def test_an_integral_float_count_is_stored_as_an_int():
    cfg = make_config(d=1.0, n_particles=8.0, seed=42.0)
    assert (cfg.d, cfg.n_particles, cfg.seed) == (1, 8, 42)
    assert all(type(v) is int for v in (cfg.d, cfg.n_particles, cfg.seed))
    assert cfg == make_config(n_particles=8)


@pytest.mark.parametrize("field", [
    "dt", "t_end", "sharpness", "drift_gain", "noise_strength", "truncation_radius",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_float_parameters_are_rejected(field, value):
    # NaN fails every comparison, so a range check alone would let it through
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        make_config(**{field: value})


@pytest.mark.parametrize("value", ["false", 1, None])
def test_shared_noise_takes_only_a_bool(value):
    # _draw_noise tests it for truth, so 'false' would share one increment
    with pytest.raises(ConfigError, match="^shared_noise must be true or false"):
        make_config(shared_noise=value)


# ---------------------------------------------------------------------------
# initial laws


def test_gaussian_initial_law_draws_requested_shapes():
    cfg = make_config(d=2, n_particles=100, objective=quadratic(2),
                      init=InitialLaw.gaussian(center=(1.0, -1.0), sigma=0.5,
                                               lambda_lo=0.1, lambda_hi=0.4))
    x, lam = cfg.init.sample(rng_from_seed(0), cfg.n_particles)
    assert x.shape == (100, 2)
    assert lam.shape == (100,)
    assert np.all((lam >= 0.1) & (lam <= 0.4))


def test_constant_information_draw_is_a_point_mass():
    law = InitialLaw.gaussian(center=(0.0,), sigma=1.0, lambda_lo=0.3)
    _, lam = law.sample(rng_from_seed(1), 50)
    assert np.all(lam == 0.3)
    assert law.mean_lambda() == 0.3


def test_point_initial_law_puts_every_agent_at_the_center():
    law = InitialLaw.point(center=(2.0, 3.0), lambda_lo=0.5)
    x, _ = law.sample(rng_from_seed(2), 10)
    assert np.all(x == np.array([2.0, 3.0]))


def test_ball_initial_law_respects_the_radius():
    law = InitialLaw.ball(center=(0.0, 0.0), radius=2.0, lambda_lo=0.5)
    x, _ = law.sample(rng_from_seed(3), 500)
    assert np.max(np.linalg.norm(x, axis=1)) <= 2.0


def test_ball_initial_law_draws_are_stable():
    # no golden run starts from a ball; this pins its draws (directions
    # first, then radii, then lambda) the way the golden hashes pin runs
    law = InitialLaw.ball(center=(0.5, -0.5, 1.0), radius=2.0, lambda_lo=0.1, lambda_hi=0.9)
    x, lam = law.sample(rng_from_seed(3), 64)
    digest = hashlib.sha256(x.tobytes())
    digest.update(lam.tobytes())
    assert digest.hexdigest() == (
        "c82ed28d7d772a4d1ec325e55e00183be4df84f348d3fb52721d598d32960f82"
    )


def test_origin_charging_classification():
    assert InitialLaw.gaussian(center=(5.0,), sigma=1.0).charges_origin_balls()
    assert InitialLaw.point(center=(0.0,)).charges_origin_balls()
    assert not InitialLaw.point(center=(1.0,)).charges_origin_balls()
    assert InitialLaw.ball(center=(0.5,), radius=1.0).charges_origin_balls()
    assert not InitialLaw.ball(center=(5.0,), radius=1.0).charges_origin_balls()


@pytest.mark.parametrize("kind", ["gaussian", "ball", "point"])
@pytest.mark.parametrize("spread, center", [
    (math.nan, (0.0,)),
    (math.inf, (0.0,)),
    (1.0, (math.nan,)),
    (1.0, (-math.inf,)),
])
def test_initial_law_rejects_nonfinite_spread_and_center(kind, spread, center):
    with pytest.raises(ConfigError, match="must be finite"):
        InitialLaw(kind, center, spread)


@pytest.mark.parametrize("center, match", [
    (3.0, "center must be a list of numbers, got 3.0"),
    ("12", "center must be a list of numbers, got '12'"),
    (("0.5",), r"center\[0\] must be finite and real, got '0.5'"),
    ((True,), r"center\[0\] must be finite and real, got True"),
])
def test_initial_law_center_is_a_list_of_reals(center, match):
    with pytest.raises(ConfigError, match=f"^{match}$"):
        InitialLaw("point", center)


def test_information_bounds_are_validated():
    with pytest.raises(ConfigError):
        InitialLaw.gaussian(center=(0.0,), sigma=1.0, lambda_lo=-0.1)
    with pytest.raises(ConfigError):
        InitialLaw.gaussian(center=(0.0,), sigma=1.0, lambda_lo=0.8, lambda_hi=0.4)


# ---------------------------------------------------------------------------
# ensemble container


def test_ensemble_rejects_information_outside_unit_interval():
    with pytest.raises(ConfigError):
        Ensemble(x=np.zeros((2, 1)), lam=np.array([0.5, 1.5]))
    # NaN fails both `< 0` and `> 1`, so only a NaN-proof check sees it
    with pytest.raises(ConfigError, match="lambda outside"):
        Ensemble(x=np.ones((2, 2)), lam=[math.nan, 0.5])


def test_ensemble_rejects_mismatched_lengths():
    with pytest.raises(ConfigError):
        Ensemble(x=np.zeros((3, 1)), lam=np.array([0.5, 0.5]))


def test_ensemble_rows_must_split_evenly_into_the_replicas():
    with pytest.raises(ConfigError, match="replicas"):
        Ensemble(x=np.zeros((5, 1)), lam=np.full(5, 0.5), replicas=2)


def test_ensemble_views_are_replica_major():
    ens = Ensemble(x=np.arange(12.0).reshape(6, 2), lam=np.full(6, 0.5), replicas=3)
    xs, lams = ens.views()
    assert ens.n_agents == 2
    assert xs.shape == (3, 2, 2) and lams.shape == (3, 2)
    assert xs[1].tolist() == [[4.0, 5.0], [6.0, 7.0]]
    assert np.shares_memory(xs, ens.x)


def test_clamp_events_are_counted_per_replica():
    ens = Ensemble(x=np.zeros((4, 1)), lam=np.full(4, 0.5), clamp_events=[2, 5], replicas=2)
    assert Ensemble(x=np.zeros((2, 1)), lam=np.full(2, 0.5)).clamp_events.tolist() == [0]
    out = em_step(ens, make_config(), [rng_from_seed(0), rng_from_seed(1)])
    assert out.clamp_events.tolist() == [2, 5]


def test_a_step_within_thetas_slack_clamps_each_agent_it_carries_past_one():
    # SimConfig lets dt exceed theta = 1 / a by float slack; at dt = theta (1 + 5e-13)
    # the rate a (1 - lambda) carries every lambda < 1 just past 1, and the clip
    # brings it back to exactly 1, a fixed point
    dt = ABSORBING_KERNEL.theta * (1 + 5e-13)
    cfg = make_config(kernel=ABSORBING_KERNEL, dt=dt, t_end=2 * dt, n_particles=50,
                      init=InitialLaw.gaussian(center=(1.0,), sigma=1.0, lambda_lo=0.2,
                                               lambda_hi=0.9))
    for rec in sde._simulate_batch(cfg, [3, 4, 5]):
        assert rec.clamp_events == 50
        assert rec.lambda_max == 1.0 and rec.mean_lambda[1:].tolist() == [1.0, 1.0]


LAMBDA_EXTREME_CASES = {
    # dt past theta = 1 / a by SimConfig's float slack: every lambda < 1 steps past 1
    # and is clipped
    "clamped": (ABSORBING_KERNEL, 1 + 5e-13, (0.1, 0.4), 0.5),
    "clamped noiseless": (ABSORBING_KERNEL, 1 + 5e-13, (0.1, 0.4), 0.0),
    # lambda starts at 1, falls toward the crowd-coupled rate's fixed point while the
    # agents are spread and rises as they gather: each minimum is on an unrecorded step
    "unrecorded minimum": (CROWD_KERNEL, 0.5, (1.0, 1.0), 0.5),
    "unrecorded minimum noiseless": (CROWD_KERNEL, 0.5, (1.0, 1.0), 0.0),
    # lambda rises toward 1/2 at every step: each maximum is at the final step
    "final maximum": (SYMMETRIC_KERNEL, 0.25, (0.1, 0.4), 0.5),
}


@pytest.mark.parametrize("block_rows", [8, 24, 40])  # blocks of 1, 3 and 5 steps of 8 rows
@pytest.mark.parametrize("case", sorted(LAMBDA_EXTREME_CASES))
def test_lambda_extremes_and_clamps_of_blocked_steps_are_the_step_by_step_loops(
    monkeypatch, case, block_rows
):
    # two replicas of 4 agents, 12 steps recorded every 4th, so blocks end mid-run
    # and, in blocks of 5, the last is cut short
    kernel, dt, (lam_lo, lam_hi), noise = LAMBDA_EXTREME_CASES[case]
    cfg = make_config(d=2, objective=quadratic(2), kernel=kernel, dt=dt, t_end=12 * dt,
                      mode="auxiliary", noise_strength=noise,
                      init=InitialLaw.gaussian(center=(1.0, -1.0), sigma=3.0,
                                               lambda_lo=lam_lo, lambda_hi=lam_hi))
    seeds = [5, 6]
    rngs = [rng_from_seed(seed) for seed in seeds]
    states = [sde.initial_ensemble(cfg, rngs)]
    for _ in range(12):  # each step draws its own noise
        states.append(em_step(states[-1], cfg, rngs))
    monkeypatch.setattr(sde, "BLOCK_ROWS", block_rows)
    records = sde._simulate_batch(cfg, seeds, record_stride=4)
    lams = np.array([s.lam.reshape(2, 4) for s in states])  # (steps + 1, R, N)
    for r, rec in enumerate(records):
        assert rec.lambda_min == lams[:, r].min() and rec.lambda_max == lams[:, r].max()
        assert rec.clamp_events == states[-1].clamp_events[r]
        if case.startswith("clamped"):
            assert rec.clamp_events == 4 and rec.lambda_max == 1.0
        elif case.startswith("unrecorded"):
            assert lams[:, r].min(axis=1).argmin() % 4 != 0
        else:
            assert lams[:, r].max(axis=1).argmax() == 12


@pytest.mark.parametrize("stride", [1, 5])
def test_a_recorder_block_stacks_at_most_block_rows(monkeypatch, stride):
    # 3 replicas of 100 agents: the 31 states of 30 steps reduce in blocks of
    # 4096 // 300 = 13, the last cut to 5, at either stride. A block stacks
    # its lambdas, its recorded x and, off stride 1, its recorded lambdas
    blocks, stacked, reduce, stack = [], [], sde._Recorder.reduce, sde._stacked

    def spy_reduce(recorder):
        blocks.append(len(recorder.block))
        reduce(recorder)

    def spy_stack(arrays):
        stacked.append(sum(a.shape[0] for a in arrays))
        return stack(arrays)

    monkeypatch.setattr(sde._Recorder, "reduce", spy_reduce)
    monkeypatch.setattr(sde, "_stacked", spy_stack)
    cfg = make_config(n_particles=100, t_end=3.0, noise_strength=0.5)
    sde._simulate_batch(cfg, [1, 2, 3], record_stride=stride)
    assert sde._block_steps(300) == 13
    assert blocks == [13, 13, 5]
    assert stacked and max(stacked) <= sde.BLOCK_ROWS
    assert len(stacked) == (2 if stride == 1 else 3) * len(blocks)


# ---------------------------------------------------------------------------
# single steps


def test_information_euler_update_hand_value():
    cfg = make_config(dt=0.25, t_end=0.25, noise_strength=0.0)
    ens = two_atom_ensemble([0.3, -0.2], 0.0)
    out = em_step(ens, cfg, rng_from_seed(0))
    # rate a(1 - lambda) - b lambda = 1 at lambda = 0
    assert np.all(out.lam == 0.25)
    assert out.time == 0.25
    assert out.clamp_events == 0


def test_single_agent_with_identity_observable_is_a_spatial_fixed_point():
    cfg = make_config(n_particles=1, noise_strength=2.0, sharpness=7.0)
    ens = Ensemble(x=np.array([[1.7]]), lam=np.array([0.6]))
    out = em_step(ens, cfg, rng_from_seed(5))
    # consensus and crowd mean both equal the one agent, so the drift and the
    # noise amplitude vanish identically
    assert out.x[0, 0] == 1.7
    assert out.lam[0] != 0.6


def test_auxiliary_step_with_full_information_contracts_each_position():
    cfg = make_config(n_particles=2, kernel=ABSORBING_KERNEL, mode="auxiliary",
                      init=InitialLaw.point(center=(0.0,), lambda_lo=1.0))
    ens = two_atom_ensemble([-1.0, 1.0], 1.0)
    out = em_step(ens, cfg, rng_from_seed(0))
    assert out.x[:, 0].tolist() == [-1.0 + cfg.dt, 1.0 - cfg.dt]
    assert np.all(out.lam == 1.0)


# ---------------------------------------------------------------------------
# whole runs


def test_zero_horizon_records_only_initial_statistics():
    rec = simulate(make_config(t_end=0.0))
    assert rec.times.tolist() == [0.0]
    assert len(rec.m2_sq) == 1
    assert rec.clamp_events == 0


def test_identical_configs_reproduce_identical_records():
    cfg = make_config(noise_strength=0.5, n_particles=30)
    a = simulate(cfg, ball_radii=(1.0,))
    b = simulate(cfg, ball_radii=(1.0,))
    assert a.to_csv() == b.to_csv()
    assert np.array_equal(a.mean_x, b.mean_x)
    assert a.lambda_min == b.lambda_min


def test_different_seeds_give_different_trajectories():
    a = simulate(make_config(noise_strength=0.5, seed=1))
    b = simulate(make_config(noise_strength=0.5, seed=2))
    assert not np.array_equal(a.mean_x, b.mean_x)


def test_information_stays_in_unit_interval_without_clamping():
    cfg = make_config(n_particles=50, dt=0.5, t_end=50.0, noise_strength=0.5,
                      init=InitialLaw.gaussian(center=(1.0,), sigma=1.0,
                                               lambda_lo=0.0, lambda_hi=1.0))
    rec = simulate(cfg)
    assert rec.clamp_events == 0
    assert 0.0 <= rec.lambda_min <= rec.lambda_max <= 1.0


def test_contractive_regime_shrinks_the_ensemble_diameter():
    # with full information, no noise, and identity observable each step maps
    # x to (1 - dt) x + dt f, so pairwise distances scale by exactly (1 - dt)
    cfg = make_config(n_particles=5, kernel=ABSORBING_KERNEL, dt=0.1, t_end=5.0,
                      init=InitialLaw.gaussian(center=(1.0,), sigma=2.0, lambda_lo=1.0))
    rng = rng_from_seed(9)
    ens = Ensemble(x=rng.standard_normal((5, 1)) * 2.0, lam=np.ones(5))
    for _ in range(50):
        before = np.ptp(ens.x[:, 0])
        ens = em_step(ens, cfg, rng)
        assert np.ptp(ens.x[:, 0]) == pytest.approx(before * (1.0 - cfg.dt), rel=1e-12)


def test_frozen_information_run_tracks_the_exact_flow_to_first_order():
    params = ConsensusParams(1.0, quadratic(1), ObservableMap())

    def rhs(_t, x):
        atoms = x[:, None]
        energies = atoms[:, 0] ** 2
        masses = np.full(len(x), 1.0 / len(x))
        f = consensus_from_energies(params, atoms, masses, energies)[0]
        return -x + f

    x0 = np.array([0.5, 1.5])
    exact = solve_ivp(rhs, (0.0, 1.0), x0, rtol=1e-11, atol=1e-12).y[:, -1]
    for dt in (1e-2, 5e-3):
        cfg = make_config(n_particles=2, dt=dt, t_end=1.0, kernel=ABSORBING_KERNEL,
                          init=InitialLaw.point(center=(0.0,), lambda_lo=1.0))
        ens = two_atom_ensemble(x0, 1.0)
        for _ in range(cfg.n_steps):
            ens = em_step(ens, cfg, rng_from_seed(0))
        assert np.max(np.abs(ens.x[:, 0] - exact)) <= 0.5 * dt


def test_symmetric_consensus_free_pair_decays_exponentially():
    dt = 1e-3
    cfg = make_config(n_particles=2, dt=dt, t_end=2.0, mode="auxiliary",
                      kernel=ABSORBING_KERNEL,
                      init=InitialLaw.point(center=(0.0,), lambda_lo=1.0))
    ens = two_atom_ensemble([-1.0, 1.0], 1.0)
    for k in range(1, cfg.n_steps + 1):
        ens = em_step(ens, cfg, rng_from_seed(0))
        # the crowd mean is pinned at 0 by symmetry, so each position obeys
        # the scalar recursion x -> (1 - dt) x exactly
        assert ens.x[1, 0] == pytest.approx((1.0 - dt) ** k, rel=1e-12)
    assert ens.x[1, 0] == pytest.approx(math.exp(-2.0), abs=2.0 * dt)


def test_record_stride_must_divide_the_step_count():
    with pytest.raises(ConfigError):
        simulate(make_config(), record_stride=3)


def test_a_stride_must_be_a_whole_number():
    # 10 % 2.5 == 0, so the division rule alone let 2.5 record every 5th step
    cfg = make_config()
    with pytest.raises(ConfigError, match=r"^record_stride = 2.5 is not a whole number$"):
        simulate(cfg, record_stride=2.5)
    with pytest.raises(ConfigError, match=r"^snapshot_stride = 2.5 is not a whole number$"):
        simulate(cfg, snapshot_stride=2.5)
    with pytest.raises(ConfigError, match=r"^record_stride = True is not a whole number$"):
        simulate(cfg, record_stride=True)
    assert simulate(cfg, record_stride=2.0).times.tolist() == (
        simulate(cfg, record_stride=2).times.tolist())


def test_snapshot_stride_must_be_a_multiple_of_the_record_stride():
    with pytest.raises(ConfigError):
        simulate(make_config(), record_stride=2, snapshot_stride=5)


def test_snapshots_are_one_replica_ensembles_with_consensus_fields_in_full_mode():
    cfg = make_config(n_particles=6)
    rec = simulate(cfg, snapshot_stride=5)
    assert [s.time for s in rec.snapshots] == rec.times[::5].tolist()  # 3 of 11
    assert all(s.replicas == 1 and s.x.shape == (6, 1) for s in rec.snapshots)
    f, e, _ = consensus_fields(rec.snapshots[0], cfg)
    assert f.shape == e.shape == (1, 1)


def test_auxiliary_records_have_no_consensus_series():
    rec = simulate(make_config(mode="auxiliary"))
    assert rec.consensus_point is None
    assert rec.mode == "auxiliary"


def test_full_records_carry_the_consensus_series():
    rec = simulate(make_config())
    assert rec.consensus_point is not None
    assert rec.consensus_point.shape == (len(rec.times), 1)


def test_a_run_checks_its_ensemble_once_where_it_enters(monkeypatch):
    checked = []
    check = Ensemble.__post_init__
    monkeypatch.setattr(Ensemble, "__post_init__",
                        lambda self: checked.append(self) or check(self))
    cfg = make_config(mode="auxiliary", kernel=CROWD_KERNEL, noise_strength=0.3)
    record = simulate(cfg, ball_radii=(1.0,))
    assert cfg.n_steps == 10 and len(checked) == 1  # initial_ensemble's, not one per step
    assert record.clamp_events == 0 and len(record.times) == 11


@pytest.mark.parametrize("kernel", [SYMMETRIC_KERNEL, CROWD_KERNEL], ids=["logistic", "crowd"])
def test_a_run_checks_lambda_only_where_an_ensemble_is_built(monkeypatch, kernel):
    # the step's rate reads lambda unchecked; em_step's clip keeps it in [0, 1]
    calls = []
    check = sde.in_unit_interval
    spy = lambda a: calls.append(a.shape) or check(a)  # noqa: E731
    monkeypatch.setattr(sde, "in_unit_interval", spy)
    monkeypatch.setattr(infokernel, "in_unit_interval", spy)
    record = simulate(make_config(kernel=kernel, noise_strength=0.3), snapshot_stride=5)
    # the initial ensemble and one per kept snapshot (t = 0, 0.5, 1), none per step
    assert len(record.times) == 11 and len(record.snapshots) == 3
    assert calls == [(4,)] * 4


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_nonfinite_ball_radius_is_rejected(radius):
    with pytest.raises(ConfigError, match="ball_radius must be finite"):
        simulate(make_config(), ball_radii=(radius,))


@pytest.mark.parametrize("radii, repeated", [((0.5, 0.5), 0.5), ((1, 2.0, 1.0), 1.0)])
def test_a_ball_radius_given_twice_is_rejected_before_the_first_step(
        radii, repeated, monkeypatch):
    steps = []
    monkeypatch.setattr(sde, "em_step", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match=f"^ball radius {repeated} is given twice$"):
        simulate(make_config(), ball_radii=radii)
    assert steps == []


def test_mass_ball_series_are_recorded_per_radius():
    cfg = make_config(n_particles=40, noise_strength=0.3)
    rec = simulate(cfg, ball_radii=(0.5, 2.0))
    assert set(rec.mass_ball) == {0.5, 2.0}
    assert all(0.0 <= m <= 1.0 for m in rec.mass_ball[0.5])
    # larger ball can never hold less mass
    assert np.all(np.asarray(rec.mass_ball[2.0]) >= np.asarray(rec.mass_ball[0.5]))


@pytest.mark.parametrize("stride", [1, 5])
def test_consensus_is_computed_per_step_and_per_recorded_state(stride, monkeypatch):
    calls, means = [], []

    def counted(ensemble, config):
        calls.append(ensemble.time)
        return consensus_fields(ensemble, config)

    def counted_mean(a, mean=sde.agent_mean):
        means.append(a.shape)
        return mean(a)

    monkeypatch.setattr(sde, "consensus_fields", counted)
    monkeypatch.setattr(sde, "agent_mean", counted_mean)
    monkeypatch.setattr(infokernel, "agent_mean", counted_mean)
    cfg = make_config(n_particles=6, noise_strength=0.5, kernel=CROWD_KERNEL)
    simulate(cfg, record_stride=stride, snapshot_stride=2 * stride)
    # em_step computes the fields of each state it leaves; the recorder
    # computes those of each recorded state (t = 0 and every stride-th step)
    assert len(calls) == cfg.n_steps + cfg.n_steps // stride + 1
    # the rate kernel and the recorder read the mean consensus_fields took
    assert len(means) == len(calls)


def test_truncated_drift_of_a_batch_agrees_with_gibbs_truncated_drift():
    # consensus_fields against the per-measure oracle of the truncated drift
    # (tests/oracles.py); a radius inside the cutoff's ramp tests both
    radius = 1.2
    cfg = dataclasses.replace(validation._truncated_run()[0], truncation_radius=radius)
    x, lam = zip(*(cfg.init.sample(rng_from_seed(seed), cfg.n_particles) for seed in (1, 2)))
    ens = Ensemble(np.concatenate(x), np.concatenate(lam), replicas=2)
    v, _ = drift_and_rate(ens, cfg, consensus_fields(ens, cfg))
    xs, lams = ens.views()
    for r in range(2):
        measure = EmpiricalMeasure.uniform(xs[r])
        assert 0.0 < cutoff_phi_measure(radius, measure) < 1.0
        want = truncated_drift(radius, cfg.consensus_params, measure, xs[r], lams[r])
        np.testing.assert_allclose(v.reshape(xs.shape)[r], want, rtol=0.0, atol=1e-12)


def test_divergence_is_reported_with_the_step_index():
    cfg = make_config(drift_gain=1e300, dt=0.25, t_end=10.0, noise_strength=0.0)
    with pytest.raises(SimulationError, match=r"step \d+/40"):
        with np.errstate(all="ignore"):
            simulate(cfg)


def test_divergence_in_auxiliary_mode_names_the_nonfinite_position():
    cfg = make_config(drift_gain=1e300, dt=0.25, t_end=10.0, mode="auxiliary")
    with pytest.raises(SimulationError, match="non-finite"):
        with np.errstate(all="ignore"):
            simulate(cfg)


def test_shared_noise_keeps_coincident_agents_together():
    init = InitialLaw.point(center=(1.0,), lambda_lo=0.2)
    shared = make_config(n_particles=2, noise_strength=0.8, shared_noise=True,
                         mode="auxiliary", init=init)
    rec = simulate(shared)
    assert rec.m2_sq[-1] == pytest.approx(rec.mean_x[-1, 0] ** 2, rel=1e-12)

    split = dataclasses.replace(shared, shared_noise=False)
    rec2 = simulate(split)
    assert rec2.m2_sq[-1] > rec2.mean_x[-1, 0] ** 2 + 1e-8


@pytest.mark.parametrize("mode", sde.MODES)
def test_a_noisy_step_holds_at_most_three_and_a_half_position_arrays(mode):
    # the step frees its own drift before the noise is drawn and scales the noise in
    # place; holding every temporary to the end peaks at 5 position arrays
    cfg = make_config(d=2, n_particles=20_000, objective=quadratic(2), mode=mode,
                      noise_strength=0.5, init=InitialLaw.gaussian((1.0, 1.0), 1.0))
    rngs = [rng_from_seed(1)]
    ens = sde.initial_ensemble(cfg, rngs)
    em_step(ens, cfg, rngs)  # first calls allocate caches that a step does not hold
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        em_step(ens, cfg, rngs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * ens.x.nbytes + 16 * 1024  # slack for the Python objects


@pytest.mark.parametrize("shared_noise", [False, True], ids=["per_agent", "shared"])
@pytest.mark.parametrize("generators", [1, 2, 4])
def test_a_step_needs_one_noise_generator_per_replica(shared_noise, generators):
    # each replica draws its noise from its own generator, so the counts must agree
    cfg = make_config(noise_strength=0.5, shared_noise=shared_noise)
    ens = sde.initial_ensemble(cfg, [rng_from_seed(seed) for seed in (1, 2, 3)])
    rngs = [rng_from_seed(9 + i) for i in range(generators)]
    with pytest.raises(ConfigError, match=f"^{generators} noise generators for 3 replicas$"):
        em_step(ens, cfg, rngs[0] if generators == 1 else rngs)  # a bare generator is one


# ---------------------------------------------------------------------------
# records and CSV layout


def test_csv_header_and_shape():
    rec = simulate(make_config(n_particles=8, d=1), ball_radii=(1.0,), record_stride=2)
    lines = rec.to_csv().splitlines()
    assert lines[0] == "time,m2_sq,mean_x_0,mean_lambda,mass_ball_1,consensus_0"
    assert len(lines) == 1 + len(rec.times)


def test_csv_floats_roundtrip_exactly():
    rec = simulate(make_config(noise_strength=0.4, n_particles=9))
    row = rec.to_csv().splitlines()[3].split(",")
    assert float(row[1]) == rec.m2_sq[2]
    assert float(row[2]) == rec.mean_x[2, 0]


def test_record_validation_rejects_nonmonotone_times():
    with pytest.raises(RecordError):
        TrajectoryRecord(
            times=np.array([0.0, 0.2, 0.1]),
            m2_sq=np.zeros(3),
            mean_x=np.zeros((3, 1)),
            mean_lambda=np.zeros(3),
            mass_ball={},
            consensus_point=None,
            clamp_events=0,
            mode="auxiliary",
            lambda_min=0.0,
            lambda_max=0.0,
        )


def test_record_validation_rejects_length_mismatch():
    with pytest.raises(RecordError):
        TrajectoryRecord(
            times=np.array([0.0, 0.1]),
            m2_sq=np.zeros(3),
            mean_x=np.zeros((2, 1)),
            mean_lambda=np.zeros(2),
            mass_ball={},
            consensus_point=None,
            clamp_events=0,
            mode="auxiliary",
            lambda_min=0.0,
            lambda_max=0.0,
        )


GOLDEN_CONFIG = dict(
    d=2,
    n_particles=16,
    dt=0.1,
    t_end=2.0,
    seed=0xBEEF,
    sharpness=2.0,
    noise_strength=0.5,
)
GOLDEN_SHA256 = "7a054d18f5f053df0a4dab9f89fdd35ce3ed892eb7a98def8a94684d86d6d0cf"

# (config overrides, simulate keywords, digest); every digest was recorded
# before the stepping loops were merged into one, so a change of any byte
# here is a change of behaviour
GOLDEN_CASES = {
    "default": ({}, {}, GOLDEN_SHA256),
    "stride5_snapshots": (
        {}, dict(record_stride=5, snapshot_stride=10),
        "d6fa5362b716e0b3fe103166030373bbd8fd0c5eb5500e4503ad625abbc78c38",
    ),
    "truncation": (
        dict(truncation_radius=1.5), {},
        "6b8f87ad068e8354730b431db70d0aa14ef9b293fdb92ba2d60fce5910d78a4b",
    ),
    "shared_noise": (
        dict(shared_noise=True), {},
        "c689f0dc5afaa2f52b41fd47a3c9c37d78860bb4836021372bfe55d63a7e7b32",
    ),
    "auxiliary_crowd": (
        dict(mode="auxiliary", kernel=CROWD_KERNEL), {},
        "974b7d7745c2c72ddd3ced2c4feff6201d91bf9fb9a154f00163d63988ae5229",
    ),
    # the cutoff lies strictly inside (0, 1) at every recorded state, so a
    # kernel or recorder reading the scaled target e for the crowd mean
    # moves this digest; recorded before the mean was shared
    "truncation_crowd": (
        dict(truncation_radius=1.0, kernel=CROWD_KERNEL), {},
        "d612127b962ed805d154695ad10a5105bd15774e6f148a30fcc6b340b8bf03b5",
    ),
}

# coupled_pair on golden_config(**COUPLED_OVERRIDES), per record stride
COUPLED_OVERRIDES = dict(
    kernel=CROWD_KERNEL,
    init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.1, lambda_hi=0.6),
)
COUPLED_SHA256 = {
    1: "d2585a52b66676d210b967aff0a74cc5ef245af3bbc89319eb034b6429a5a7f1",
    5: "42ed9118bee658264c635295894f6fd292e44cecb8a7813c4213accac5efe295",
}


def golden_config(**overrides):
    fields = dict(objective=quadratic(2),
                  init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.2),
                  **GOLDEN_CONFIG)
    fields.update(overrides)
    return make_config(**fields)


def record_digest(record, config):
    """sha256 of the CSV, extended by the raw bytes of any snapshots and of
    the consensus targets f, e that config gives each one."""
    digest = hashlib.sha256(record.to_csv().encode())
    for snap in record.snapshots or ():
        f, e, _ = consensus_fields(snap, config)
        for arr in (snap.x, snap.lam, f, e):
            if arr is not None:
                digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_statistics_hash_is_stable(case):
    overrides, sim_kwargs, expected = GOLDEN_CASES[case]
    cfg = golden_config(**overrides)
    record = simulate(cfg, ball_radii=(1.0,), **sim_kwargs)
    assert record_digest(record, cfg) == expected


@pytest.mark.parametrize("stride", sorted(COUPLED_SHA256))
def test_coupled_pair_hash_is_stable(stride):
    records, gap_sq = coupled_pair(golden_config(**COUPLED_OVERRIDES), stride, (1.0,))
    digest = hashlib.sha256(records[0].times.tobytes())
    digest.update(gap_sq.tobytes())
    # both records carry the joint lambda extremes of the pair
    lam = [min(r.lambda_min for r in records), max(r.lambda_max for r in records)]
    for rec in records:
        digest.update(rec.to_csv().encode())
        digest.update(np.array([*lam, rec.clamp_events], dtype=float).tobytes())
    assert digest.hexdigest() == COUPLED_SHA256[stride]


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_batched_trajectory_steps_each_replica_as_if_alone(case):
    cfg = golden_config(**GOLDEN_CASES[case][0])
    seeds = [3, 1, 4]
    batch = list(sde._trajectory(cfg, 1, seeds))
    for r, seed in enumerate(seeds):
        alone = sde._trajectory(dataclasses.replace(cfg, seed=seed), 1)
        for (_, ens, fields), (_, single, single_fields) in zip(batch, alone):
            xs, lams = ens.views()
            assert np.array_equal(xs[r], single.x)
            assert np.array_equal(lams[r], single.lam)
            for batched, own in zip(fields, single_fields):
                assert (batched is None) == (own is None)
                if own is not None:
                    assert np.array_equal(batched[r], own[0])


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_a_step_given_its_motion_equals_the_step_that_computes_it(case):
    cfg = golden_config(**GOLDEN_CASES[case][0])
    seeds = [3, 1, 4]
    ens = sde.initial_ensemble(cfg, [rng_from_seed(seed) for seed in seeds])
    motion = drift_and_rate(ens, cfg, consensus_fields(ens, cfg))
    given = em_step(ens, cfg, [rng_from_seed(seed) for seed in seeds], motion=motion)
    computed = em_step(ens, cfg, [rng_from_seed(seed) for seed in seeds])
    assert given.x.tobytes() == computed.x.tobytes()
    assert given.lam.tobytes() == computed.lam.tobytes()
    assert given.clamp_events.tolist() == computed.clamp_events.tolist()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_batch_records_equal_single_runs_bit_for_bit(case):
    overrides, sim_kwargs, _ = GOLDEN_CASES[case]
    cfg = golden_config(**overrides)
    seeds = [3, 1, 4]
    def scalars(rec):
        snapshots = [(s.time, s.clamp_events.tolist()) for s in rec.snapshots or ()]
        return rec.clamp_events, rec.lambda_min, rec.lambda_max, snapshots

    batch = sde._simulate_batch(cfg, seeds, ball_radii=(1.0,), **sim_kwargs)
    for record, seed in zip(batch, seeds, strict=True):
        alone = simulate(dataclasses.replace(cfg, seed=seed), ball_radii=(1.0,), **sim_kwargs)
        assert record_digest(record, cfg) == record_digest(alone, cfg)
        assert scalars(record) == scalars(alone)
        assert type(record.clamp_events) is int and type(record.lambda_max) is float


@pytest.mark.parametrize("stride", [1, 5])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_a_kept_snapshot_is_the_batch_state_and_recomputes_its_fields(case, stride):
    # the residual oracle recomputes each snapshot's fields; they must be the
    # fields that were in force on that replica's rows of the batch
    cfg = golden_config(**GOLDEN_CASES[case][0])
    seeds = [3, 1, 4]
    states = [state for state in sde._trajectory(cfg, 1, seeds) if state[0] % stride == 0]
    batch = sde._simulate_batch(cfg, seeds, snapshot_stride=stride)
    for r, record in enumerate(batch):
        assert len(record.snapshots) == len(states)
        for snap, (_, ens, fields) in zip(record.snapshots, states):
            xs, lams = ens.views()
            assert snap.x.tobytes() == xs[r].tobytes()
            assert snap.lam.tobytes() == lams[r].tobytes()
            assert snap.time == ens.time
            assert snap.clamp_events.tolist() == [ens.clamp_events[r]]
            for own, batched in zip(consensus_fields(snap, cfg), fields, strict=True):
                assert (own is None) == (batched is None)
                if own is not None:
                    assert own.tobytes() == batched[r].tobytes()


# ---------------------------------------------------------------------------
# coupled pair


def coupled_pair(full, stride=1, ball_radii=()):
    """The consensus-driven run of full and its consensus-free twin, and the
    mean squared position gap at each recorded state. Sharing the seed, the
    two draw the same initial agents and the same noise."""
    records = [simulate(cfg, stride, stride, ball_radii)
               for cfg in (full, dataclasses.replace(full, mode="auxiliary"))]
    gap_sq = [float(row_sum((f.x - a.x) ** 2).mean())
              for f, a in zip(records[0].snapshots, records[1].snapshots, strict=True)]
    return records, np.array(gap_sq)


def coupled_config(**overrides):
    fields = dict(d=2, n_particles=50, objective=quadratic(2), noise_strength=0.5,
                  init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.2))
    fields.update(overrides)
    return make_config(**fields)


def test_coupled_pair_shares_initial_agents():
    (full, aux), gap_sq = coupled_pair(coupled_config())
    assert gap_sq[0] == 0.0
    assert np.array_equal(full.mean_x[0], aux.mean_x[0])


def test_coupled_pair_with_zero_horizon_has_zero_gap():
    _, gap_sq = coupled_pair(coupled_config(t_end=0.0))
    assert gap_sq.tolist() == [0.0]


def test_coupled_gap_shrinks_as_the_consensus_sharpens():
    # once information rates are positive the full drift keeps a
    # lambda-weighted consensus pull that the auxiliary flow drops, so the
    # gap is not zero even at sharpness 0; it falls as the consensus sharpens
    terminal = []
    for n in (1.0, 4.0, 16.0, 64.0):
        cfg = coupled_config(n_particles=200, t_end=2.0, dt=1e-2, seed=11, sharpness=n)
        terminal.append(coupled_pair(cfg, stride=cfg.n_steps)[1][-1])
    assert all(a > b for a, b in zip(terminal, terminal[1:]))
