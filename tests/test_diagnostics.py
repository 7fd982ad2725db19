import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from infocbo import diagnostics, sde
from infocbo.diagnostics import (
    DiagnosticsError,
    Parts,
    g_phi_replica_residuals,
    g_phi_residual,
    g_phi_scaling_study,
    gaussian_bump,
    gronwall_envelope_constant,
    concentration_sweep,
    lambda_persistence_check,
    mass_bound_fit,
    mean_decay_check,
    second_moment_bound_check,
    second_moment_constant,
    second_moment_envelope_check,
)
from infocbo.infokernel import KernelSpec, logistic_closed_form
from infocbo.objectives import ObservableMap, quadratic
from infocbo.sde import ConfigError, InitialLaw, SimConfig, SimulationError, simulate
from infocbo.trajectory import TrajectoryRecord
from infocbo.util import derive_seed, rng_from_seed
from oracles import constant_test_function, coordinate_window

SYMMETRIC_KERNEL = KernelSpec("logistic", a=1.0, b=1.0)
ABSORBING_KERNEL = KernelSpec("logistic", a=1.0, b=0.0)


def make_config(**overrides):
    base = dict(
        d=1,
        n_particles=200,
        dt=1e-2,
        t_end=2.0,
        seed=7,
        objective=quadratic(1),
        observable=ObservableMap(),
        kernel=SYMMETRIC_KERNEL,
        init=InitialLaw.gaussian(center=(1.0,), sigma=1.0, lambda_lo=0.2),
        mode="auxiliary",
    )
    base.update(overrides)
    return SimConfig(**base)


def synthetic_record(times, mean_x, mean_lambda, mode="auxiliary", m2_sq=None):
    times = np.asarray(times, dtype=float)
    mean_x = np.asarray(mean_x, dtype=float)
    if mean_x.ndim == 1:
        mean_x = mean_x[:, None]
    return TrajectoryRecord(
        times=times,
        m2_sq=np.asarray(m2_sq, dtype=float) if m2_sq is not None else (mean_x**2).sum(axis=1),
        mean_x=mean_x,
        mean_lambda=np.asarray(mean_lambda, dtype=float),
        mass_ball={},
        consensus_point=None,
        clamp_events=0,
        mode=mode,
        lambda_min=float(np.min(mean_lambda)),
        lambda_max=float(np.max(mean_lambda)),
    )


# ---------------------------------------------------------------------------
# decay law


def test_zero_information_record_predicts_a_constant_mean():
    t = np.linspace(0.0, 1.0, 11)
    rec = synthetic_record(t, np.full(11, 0.8), np.zeros(11))
    report = mean_decay_check(rec)
    assert report.max_rel_error == 0.0


def test_decay_check_rejects_full_mode_records():
    t = np.linspace(0.0, 1.0, 11)
    rec = synthetic_record(t, np.full(11, 0.8), np.zeros(11), mode="full")
    with pytest.raises(DiagnosticsError):
        mean_decay_check(rec)


def test_decay_check_flags_a_wrong_decay_rate():
    t = np.linspace(0.0, 2.0, 21)
    # mean decays at rate 1 while the information series claims rate 1/2
    rec = synthetic_record(t, 0.9 * np.exp(-t), np.full(21, 0.5))
    report = mean_decay_check(rec)
    assert report.max_rel_error > 0.5


def test_frozen_full_information_run_decays_at_unit_rate():
    cfg = make_config(kernel=ABSORBING_KERNEL, dt=1e-3, n_particles=2,
                      init=InitialLaw.point(center=(1.0,), lambda_lo=1.0))
    report = mean_decay_check(simulate(cfg))
    assert report.max_rel_error <= 5e-3
    assert report.predicted_final == pytest.approx(math.exp(-cfg.t_end), rel=1e-4)


def test_noisy_ensemble_tracks_the_decay_law_within_tolerance():
    cfg = make_config(n_particles=5000, noise_strength=0.5,
                      init=InitialLaw.gaussian(center=(2.0,), sigma=1.0, lambda_lo=0.0))
    report = mean_decay_check(simulate(cfg))
    assert report.max_rel_error <= 0.05


# ---------------------------------------------------------------------------
# second-moment ceiling


def test_ceiling_constant_endpoint_values():
    assert second_moment_constant(0.0, 3) == 2.0
    assert second_moment_constant(1.0, 1) == 3.0
    assert second_moment_constant(1.0 / math.sqrt(2.0), 2) == pytest.approx(3.0)


def test_ceiling_constant_is_at_least_one_and_blows_up_at_the_margin():
    for s2d in np.linspace(0.0, 1.9, 20):
        assert second_moment_constant(math.sqrt(s2d), 1) >= 1.0
    assert second_moment_constant(math.sqrt(1.999), 1) > 1e5


def test_ceiling_constant_requires_subcritical_noise():
    with pytest.raises(DiagnosticsError, match="noise_strength"):
        second_moment_constant(math.sqrt(2.0), 1)


def test_second_moment_stays_under_the_ceiling_on_a_calm_run():
    cfg = make_config(n_particles=2000, noise_strength=0.5)
    report = second_moment_bound_check(simulate(cfg), cfg)
    assert report.ok
    assert report.peak_ratio <= report.slack * report.ceiling_constant
    assert report.slack == 1.1


def test_second_moment_check_is_scoped_to_auxiliary_runs():
    cfg = make_config(mode="full", n_particles=50)
    with pytest.raises(DiagnosticsError):
        second_moment_bound_check(simulate(cfg), cfg)


def test_second_moment_check_flags_a_fabricated_violation():
    t = np.linspace(0.0, 1.0, 11)
    rec = synthetic_record(t, np.ones(11), np.zeros(11),
                           m2_sq=np.linspace(1.0, 50.0, 11))
    cfg = make_config(n_particles=10, noise_strength=0.5)
    report = second_moment_bound_check(rec, cfg)
    assert not report.ok
    assert report.violated_at is not None


# ---------------------------------------------------------------------------
# information persistence


def test_persistence_of_a_symmetric_kernel_from_zero_information():
    cfg = make_config(n_particles=500, t_end=3.0,
                      init=InitialLaw.gaussian(center=(1.0,), sigma=1.0, lambda_lo=0.0))
    record = simulate(cfg)
    report = lambda_persistence_check(record)
    assert report.ok
    # floor is assessed after the start: the run begins at zero information
    assert report.min_mean_lambda == record.mean_lambda[1]
    # Euler tracks (1 - exp(-2t)) / 2 to first order
    expected = float(logistic_closed_form(SYMMETRIC_KERNEL, 0.0, cfg.t_end))
    assert record.mean_lambda[-1] == pytest.approx(expected, abs=2.0 * cfg.dt)
    assert report.integral_mean_lambda > 0.0


def test_persistence_report_integrates_the_information_series():
    t = np.linspace(0.0, 1.0, 101)
    rec = synthetic_record(t, np.ones(101), np.full(101, 0.25))
    report = lambda_persistence_check(rec)
    assert report.integral_mean_lambda == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# mass floor


def test_frozen_cloud_keeps_unit_mass_and_zero_rate():
    cfg = make_config(mode="full", n_particles=10, t_end=1.0,
                      init=InitialLaw.point(center=(0.0,), lambda_lo=0.5))
    record = simulate(cfg, snapshot_stride=cfg.n_steps, ball_radii=(1.0,))
    report = mass_bound_fit(record, 1.0)
    assert report.floor_ok
    assert report.fitted_rate == 0.0
    assert report.initial_smoothed_mass == pytest.approx(1.0, abs=1e-12)
    assert not report.vacuous


def test_mass_fit_is_vacuous_when_the_ball_starts_empty():
    cfg = make_config(mode="full", n_particles=10, t_end=1.0,
                      init=InitialLaw.point(center=(5.0,), lambda_lo=0.5))
    record = simulate(cfg, snapshot_stride=cfg.n_steps, ball_radii=(1.0,))
    report = mass_bound_fit(record, 1.0)
    assert report.vacuous
    assert report.initial_smoothed_mass == 0.0


def test_mass_fit_needs_the_initial_snapshot():
    cfg = make_config(n_particles=10, t_end=1.0)
    record = simulate(cfg, ball_radii=(1.0,))
    with pytest.raises(DiagnosticsError):
        mass_bound_fit(record, 1.0)


def test_mass_fit_needs_the_matching_ball_series():
    cfg = make_config(n_particles=10, t_end=1.0)
    record = simulate(cfg, snapshot_stride=cfg.n_steps, ball_radii=(2.0,))
    with pytest.raises(DiagnosticsError):
        mass_bound_fit(record, 1.0)
    with pytest.raises(DiagnosticsError):  # the configured radius, exactly
        mass_bound_fit(record, 2.0 + 1e-13)


def test_mass_fit_refuses_a_radius_that_is_not_a_number():
    cfg = make_config(n_particles=10, t_end=1.0)
    record = simulate(cfg, snapshot_stride=cfg.n_steps, ball_radii=(1.0,))
    with pytest.raises(DiagnosticsError, match="radius must be a real number, got '1'"):
        mass_bound_fit(record, "1")


def test_fitted_rate_makes_the_exponential_floor_tight():
    cfg = make_config(mode="full", n_particles=400, t_end=2.0, noise_strength=0.5,
                      init=InitialLaw.gaussian(center=(1.0,), sigma=1.0, lambda_lo=0.2))
    record = simulate(cfg, record_stride=10, snapshot_stride=cfg.n_steps,
                      ball_radii=(0.5,))
    report = mass_bound_fit(record, 0.5)
    assert report.floor_ok and not report.vacuous
    floor = report.initial_smoothed_mass * np.exp(-report.fitted_rate * record.times)
    assert np.all(np.asarray(record.mass_ball[0.5]) >= floor - 1e-12)


# ---------------------------------------------------------------------------
# envelope


def test_envelope_constant_assembles_from_gain_and_noise():
    assert gronwall_envelope_constant(1.0, 0.0, 2, 1.0) == 8.0
    assert gronwall_envelope_constant(1.0, 0.5, 2, 2.0) == pytest.approx(12.0 + 0.25 * 2 * 30.0)


def test_envelope_check_requires_truncation():
    cfg = make_config(n_particles=20)
    with pytest.raises(DiagnosticsError):
        second_moment_envelope_check(simulate(cfg), cfg)


def test_envelope_check_refuses_the_identity_observable():
    # m_f is the saturated observable's bound; the identity observable has none
    cfg = make_config(n_particles=20, truncation_radius=3.0)
    assert cfg.observable.variant == "identity"
    with pytest.raises(DiagnosticsError, match="saturated observable"):
        second_moment_envelope_check(simulate(cfg), cfg)


def test_truncated_run_respects_the_envelope():
    obs = ObservableMap(variant="saturated", m_g=2.0)
    cfg = make_config(mode="full", observable=obs, truncation_radius=3.0,
                      n_particles=300, noise_strength=0.5, t_end=1.0)
    report = second_moment_envelope_check(simulate(cfg), cfg)
    assert report.ok
    assert report.a_constant == gronwall_envelope_constant(1.0, 0.5, 1, 2.0)


# ---------------------------------------------------------------------------
# test-function catalog


def finite_difference_check(phi, d, seed):
    rng = rng_from_seed(seed)
    h = 1e-6

    def at(x, lam):
        """parts of phi at the single state (x, lam)"""
        return [part[0] for part in phi.evaluate(x[None, :], np.array([lam]))]

    for _ in range(10):
        x = rng.standard_normal(d)
        lam = float(rng.uniform(0.05, 0.95))
        _, grad, glam, lap = at(x, lam)
        num_lap = 0.0
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            up = float(at(x + e, lam)[0])
            dn = float(at(x - e, lam)[0])
            mid = float(at(x, lam)[0])
            assert (up - dn) / (2 * h) == pytest.approx(grad[k], abs=1e-5)
            num_lap += (up - 2 * mid + dn) / h**2
        assert num_lap == pytest.approx(float(lap), abs=2e-3)
        up = float(at(x, lam + h)[0])
        dn = float(at(x, lam - h)[0])
        assert (up - dn) / (2 * h) == pytest.approx(float(glam), abs=1e-5)


@pytest.mark.parametrize("d", [1, 3])
def test_gaussian_bump_derivatives_match_finite_differences(d):
    finite_difference_check(gaussian_bump(1.3), d, seed=31)


@pytest.mark.parametrize("lam, trig_size", [
    ([0.2] * 7, 1), ([0.2] * 6 + [0.3], 7), ([0.0] * 6 + [-0.0], 7), ([0.2], 1),
    (np.array([0.2, 0.3], dtype=np.float32), 2), ([], 0),
], ids=["shared", "one differs", "signed zeros", "one agent", "float32", "no agents"])
def test_gaussian_bump_takes_the_trig_of_a_shared_lambda_once(monkeypatch, lam, trig_size):
    sizes = []

    def counted(ufunc):
        def call(a, *args, **kwargs):
            sizes.append((ufunc.__name__, np.size(a)))
            return ufunc(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np, "cos", counted(np.cos))
    monkeypatch.setattr(np, "sin", counted(np.sin))
    gaussian_bump(2.0).evaluate(np.ones((len(lam), 2)), np.array(lam))
    assert sizes == [("cos", trig_size), ("sin", trig_size)]


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_gaussian_bump_scale_must_be_finite(scale):
    with pytest.raises(DiagnosticsError, match="scale must be finite"):
        gaussian_bump(scale)


@pytest.mark.parametrize("d", [1, 2])
def test_coordinate_window_derivatives_match_finite_differences(d):
    finite_difference_check(coordinate_window(), d, seed=32)


def test_constant_test_function_has_vanishing_derivatives():
    phi = constant_test_function()
    x = np.zeros((3, 2))
    lam = np.full(3, 0.5)
    value, grad_x, grad_lambda, laplacian_x = phi.evaluate(x, lam)
    assert np.all(value == 1.0)
    assert np.all(grad_x == 0.0)
    assert np.all(grad_lambda == 0.0)
    assert np.all(laplacian_x == 0.0)


# ---------------------------------------------------------------------------
# weak-form residual


def full_config(**overrides):
    base = dict(mode="full", n_particles=100, noise_strength=0.5, d=2,
                objective=quadratic(2),
                init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.2))
    base.update(overrides)
    return make_config(**base)


def test_constant_test_function_has_exactly_zero_residual():
    cfg = full_config(t_end=1.0)
    record = simulate(cfg, snapshot_stride=1)
    assert g_phi_residual(record.snapshots, cfg, constant_test_function()) == 0.0


def test_residual_needs_at_least_two_snapshots():
    cfg = full_config(t_end=1.0)
    record = simulate(cfg, record_stride=cfg.n_steps, snapshot_stride=cfg.n_steps)
    with pytest.raises(DiagnosticsError):
        g_phi_residual(record.snapshots[:1], cfg, gaussian_bump())


def test_residual_refuses_snapshots_of_different_sizes():
    # a one-agent snapshot would broadcast into the others' workspace
    cfg = full_config(t_end=1.0)
    snapshots = simulate(cfg, record_stride=10, snapshot_stride=10).snapshots
    one = sde.Ensemble(snapshots[1].x[:1], snapshots[1].lam[:1], snapshots[1].time)
    with pytest.raises(DiagnosticsError, match="^snapshots must hold the same agents"):
        g_phi_residual([snapshots[0], one, *snapshots[2:]], cfg, gaussian_bump())


def test_noise_free_residual_shrinks_linearly_with_the_step():
    values = {}
    for dt in (2e-2, 1e-2, 5e-3):
        cfg = full_config(noise_strength=0.0, dt=dt, t_end=1.0, n_particles=50)
        record = simulate(cfg, snapshot_stride=1)
        values[dt] = abs(g_phi_residual(record.snapshots, cfg, gaussian_bump()))
    assert values[2e-2] > values[1e-2] > values[5e-3]
    assert values[2e-2] / values[1e-2] == pytest.approx(2.0, rel=0.35)


def test_scaling_study_requires_enough_replicas():
    with pytest.raises(DiagnosticsError):
        g_phi_scaling_study(full_config(), (50,), 5, gaussian_bump())


def test_scaling_study_refuses_a_size_given_twice_before_any_replica_steps(monkeypatch):
    stepped = []
    monkeypatch.setattr(diagnostics, "g_phi_replica_residuals",
                        lambda config, *args: stepped.append(config.n_particles))
    with pytest.raises(DiagnosticsError, match="^ensemble size N = 250 is given twice$"):
        g_phi_scaling_study(full_config(), (50, 250, 250.0), 30, gaussian_bump())
    assert stepped == []


@pytest.mark.parametrize("size", [6.7, 0, -3, math.nan, True])
def test_scaling_study_refuses_a_size_that_is_not_a_whole_number_before_any_replica_steps(
        monkeypatch, size):
    stepped = []
    monkeypatch.setattr(diagnostics, "g_phi_replica_residuals",
                        lambda config, *args: stepped.append(config.n_particles))
    with pytest.raises(DiagnosticsError,
                       match=rf"^ensemble size N = {size!r} is not a whole number >= 1$"):
        g_phi_scaling_study(full_config(), (50, size), 30, gaussian_bump())
    assert stepped == []


def test_scaling_study_refuses_a_fractional_replica_count_before_any_replica_steps(monkeypatch):
    stepped = []
    monkeypatch.setattr(diagnostics, "g_phi_replica_residuals",
                        lambda config, seeds, *args: stepped.append(seeds) or np.zeros(len(seeds)))
    with pytest.raises(DiagnosticsError, match=r"^replica count 30\.5 is not a whole number$"):
        g_phi_scaling_study(full_config(), (50,), 30.5, gaussian_bump())
    with pytest.raises(DiagnosticsError, match=r"^replica count '30' is not a whole number$"):
        g_phi_scaling_study(full_config(), (50,), "30", gaussian_bump())
    assert stepped == []
    stats = g_phi_scaling_study(full_config(), (50,), 30.0, gaussian_bump())
    assert stats[50].replicas == 30 and type(stats[50].replicas) is int
    assert len(stepped[0]) == 30


def test_noise_free_point_start_has_zero_replica_variance():
    cfg = full_config(noise_strength=0.0, t_end=0.5, n_particles=20,
                      init=InitialLaw.point(center=(1.0, 1.0), lambda_lo=0.2))
    stats = g_phi_scaling_study(cfg, (20,), 30, gaussian_bump())
    assert stats[20].variance == 0.0
    assert stats[20].stderr == 0.0


BATCH_VARIANTS = {
    "logistic": {},
    "crowd_truncated": dict(kernel=KernelSpec("crowd-coupled", a=1.0, b=1.0),
                            truncation_radius=1.0),
    "auxiliary_shared_noise": dict(mode="auxiliary", shared_noise=True),
}


@pytest.mark.parametrize("stride", [1, 5])
@pytest.mark.parametrize("variant", sorted(BATCH_VARIANTS))
def test_batched_study_equals_per_replica_runs_bit_for_bit(variant, stride):
    cfg = full_config(t_end=0.5, n_particles=12, **BATCH_VARIANTS[variant])
    phi = gaussian_bump(2.0)
    size_seed = derive_seed(cfg.seed, 0)
    values = []
    for rep in range(30):
        alone = dataclasses.replace(cfg, seed=derive_seed(size_seed, rep))
        record = simulate(alone, record_stride=stride, snapshot_stride=stride)
        values.append(g_phi_residual(record.snapshots, alone, phi))
    values = np.array(values)
    seeds = [derive_seed(size_seed, rep) for rep in range(30)]
    assert np.array_equal(g_phi_replica_residuals(cfg, seeds, phi, stride), values)
    stats = g_phi_scaling_study(cfg, (12,), 30, phi, snapshot_stride=stride)[12]
    assert stats.mean == float(values.mean())
    assert stats.variance == float(values.var(ddof=1))


@pytest.mark.parametrize("stride", [1, 5])
def test_the_residual_study_evaluates_each_state_once(stride, monkeypatch):
    # the generator average's (v, T) goes to the step leaving the state, so
    # each state's fields and motion are computed once, recorded or not
    fields_at, motion_at = [], []

    def counted_fields(ensemble, config, fields=sde.consensus_fields):
        fields_at.append(ensemble.time)
        return fields(ensemble, config)

    def counted_motion(ensemble, config, fields, motion=sde.drift_and_rate):
        motion_at.append(ensemble.time)
        return motion(ensemble, config, fields)

    monkeypatch.setattr(sde, "consensus_fields", counted_fields)
    monkeypatch.setattr(sde, "drift_and_rate", counted_motion)
    monkeypatch.setattr(diagnostics, "drift_and_rate", counted_motion)
    cfg = full_config(t_end=0.5, n_particles=12, **BATCH_VARIANTS["crowd_truncated"])
    g_phi_replica_residuals(cfg, [3, 1, 4], gaussian_bump(2.0), stride)
    assert len(fields_at) == len(motion_at) == cfg.n_steps + 1
    assert len(set(fields_at)) == len(set(motion_at)) == cfg.n_steps + 1


def traced(call):
    """call()'s result, its traced peak and the traced memory it leaves, in
    bytes above the start of the call (tracemalloc sees numpy's buffers)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, current - start


@pytest.mark.parametrize("lambda_hi", [0.2, 0.4], ids=["one lambda", "lambda per agent"])
def test_the_generator_average_allocates_no_array_of_its_rows(lambda_hi):
    # every temporary of the rows' size is a buffer of the workspace; the
    # first call is the reference, the second is measured on the same buffers
    # 4 x 500 rows: a few kB of small arrays and views stay below 8 bytes a row
    cfg = full_config(n_particles=500, init=InitialLaw.gaussian(
        center=(1.0, 1.0), sigma=1.0, lambda_lo=0.2, lambda_hi=lambda_hi))
    ens = sde.initial_ensemble(cfg, [rng_from_seed(seed) for seed in range(4)])
    motion = sde.drift_and_rate(ens, cfg, sde.consensus_fields(ens, cfg))
    rows = ens.x.shape[0]
    out, phi = Parts.empty(rows, cfg.d), gaussian_bump(2.0)
    want = diagnostics._generator_average(ens, motion, cfg, phi, out)
    got, peak, _ = traced(lambda: diagnostics._generator_average(ens, motion, cfg, phi, out))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert peak < rows * 8 <= traced(lambda: np.ones(rows))[1]


def test_no_workspace_outlives_its_batch():
    # a batch of another size first loads what numpy imports lazily; the
    # first batch of this size (47 agents, which no other test runs) is the
    # traced one, so a workspace kept for the next batch would be left behind
    cfg = full_config(t_end=0.2, n_particles=47)
    seeds, phi = list(range(30)), gaussian_bump(2.0)
    g_phi_replica_residuals(dataclasses.replace(cfg, n_particles=5), seeds, phi)
    got, peak, left = traced(lambda: g_phi_replica_residuals(cfg, seeds, phi))
    want = g_phi_replica_residuals(cfg, seeds, phi)
    rows = len(seeds) * cfg.n_particles
    assert got.tobytes() == want.tobytes()
    assert peak >= (3 + cfg.d) * rows * 8  # the workspace was traced
    assert left < rows * 8  # not one buffer of the rows is left


def test_study_divergence_names_the_replica_and_the_step():
    # deviations grow by about gain * dt per step, so whether a replica
    # overflows at step 3 or 4 depends on its initial spread
    cfg = full_config(mode="auxiliary", drift_gain=8e102, dt=0.5, t_end=2.0,
                      noise_strength=0.0, n_particles=4)
    size_seed = derive_seed(cfg.seed, 0)
    first = []
    with np.errstate(all="ignore"):
        for rep in range(30):
            with pytest.raises(SimulationError) as info:
                simulate(dataclasses.replace(cfg, seed=derive_seed(size_seed, rep)))
            first.append((int(re.search(r"step (\d+)/", str(info.value)).group(1)), rep))
        step, rep = min(first)
        assert rep > 0  # the batch must not just name its first row
        with pytest.raises(SimulationError,
                           match=rf"^N = 4: step {step}/4: .* in replica {rep} leaving"):
            g_phi_scaling_study(cfg, (4,), 30, gaussian_bump())


def test_study_needs_at_least_one_step():
    with pytest.raises(DiagnosticsError, match="one step"):
        g_phi_scaling_study(full_config(t_end=0.0), (10,), 30, gaussian_bump())


def test_residual_variance_scales_inversely_with_ensemble_size():
    cfg = full_config(t_end=1.0)
    stats = g_phi_scaling_study(cfg, (50, 200), 40, gaussian_bump(2.0))
    ratio = stats[50].variance / stats[200].variance
    assert 2.0 <= ratio <= 8.0


# ---------------------------------------------------------------------------
# concentration sweep hypotheses


def test_sweep_requires_the_full_system():
    with pytest.raises(DiagnosticsError, match="full"):
        concentration_sweep(make_config(), (1.0,))


def test_sweep_requires_initial_information():
    cfg = full_config(init=InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.0))
    with pytest.raises(DiagnosticsError, match="information"):
        concentration_sweep(cfg, (1.0,))


def test_sweep_requires_mass_near_the_minimizer():
    cfg = full_config(init=InitialLaw.point(center=(1.0, 1.0), lambda_lo=0.2))
    with pytest.raises(DiagnosticsError, match="ball"):
        concentration_sweep(cfg, (1.0,))


def test_sweep_requires_subcritical_noise():
    cfg = full_config(noise_strength=1.2)
    with pytest.raises(DiagnosticsError, match="noise"):
        concentration_sweep(cfg, (1.0,))


@pytest.mark.parametrize("sharpness_list, error, match", [
    ((1.0, 4.0, 1), DiagnosticsError, "^sharpness 1.0 is given twice$"),
    ((1.0, -1.0), ConfigError, "sharpness must be nonnegative"),
    ((1.0, "2"), DiagnosticsError, "^sharpness '2' is not a real number$"),
    ((1.0, True), DiagnosticsError, "^sharpness True is not a real number$"),
    ((1.0, np.True_), DiagnosticsError, "^sharpness np.True_ is not a real number$"),
    ((None,), DiagnosticsError, "^sharpness None is not a real number$"),
], ids=["repeated", "negative", "string", "bool", "numpy bool", "none"])
def test_sweep_builds_every_point_before_the_first_run(monkeypatch, sharpness_list, error, match):
    runs = []
    monkeypatch.setattr(diagnostics, "simulate", lambda config, **kwargs: runs.append(config))
    with pytest.raises(error, match=match):
        concentration_sweep(full_config(), sharpness_list)
    assert runs == []


def test_sweep_noise_hypothesis_is_the_ceiling_contraction_margin():
    # sigma = 0.5, d = 2: margin 2 - sigma^2 d = 1.5 > 0, and the sweep runs
    assert second_moment_constant(0.5, 2) == pytest.approx(1.0 + (2.0 + 1.5) / 1.5**2)
    assert concentration_sweep(full_config(noise_strength=0.5, t_end=0.1), (1.0,))
    # sigma^2 d = 2 exactly: zero margin is refused by both
    with pytest.raises(DiagnosticsError, match="noise"):
        second_moment_constant(1.0, 2)
    with pytest.raises(DiagnosticsError, match="noise"):
        concentration_sweep(full_config(noise_strength=1.0), (1.0,))


def test_cloud_started_at_the_minimizer_stays_there():
    cfg = full_config(noise_strength=0.5,
                      init=InitialLaw.point(center=(0.0, 0.0), lambda_lo=0.2),
                      t_end=0.5)
    # a point cloud at the minimizer has zero drift and zero noise amplitude
    table = concentration_sweep(cfg, (1.0, 16.0))
    assert table == {1.0: 0.0, 16.0: 0.0}
