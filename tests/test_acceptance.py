"""End-to-end acceptance gate: nine fixed commitments, one per test.

Each test prints a single PASS/FAIL line with the measured numbers (run with
`pytest tests/test_acceptance.py -v -rA` to see them) and asserts the same
condition, so the -v listing gives one verdict per commitment. Heavy runs are
shared with the `infocbo validate` suites through the cached functions in
infocbo.validation; parameters, seeds, and tolerances are committed there or
here, never improvised at call time.
"""

import itertools
import math

import numpy as np
import pytest

from infocbo.diagnostics import (
    mass_bound_fit,
    mean_decay_check,
    second_moment_bound_check,
    second_moment_constant,
)
from infocbo.gibbs import ConsensusParams, weighted_consensus
from infocbo.harness import parse_flat_config, run
from infocbo.measures import EmpiricalMeasure
from infocbo.objectives import ObservableMap, eval_objective_batch, quadratic
from infocbo.util import rng_from_seed
from infocbo.validation import (
    CI_Z_99,
    CONCENTRATION_SHARPNESS,
    MASS_RADIUS,
    MEANFIELD_REPLICAS,
    MEANFIELD_SIZES,
    _gibbs_algebra_outcomes,
    _logistic_euler_error,
    concentration_record_sharp,
    concentration_table,
    constraint_config,
    constraint_record,
    decay_record,
    meanfield_stats,
)
from oracles import w1_exact

SEED_W1_ORACLE = 0x7AC1E

# committed rerun config for the determinism gate: noisy, weighted dynamics
# on the rugged objective so every code path feeds the CSV bytes
REPRO_CONFIG = {
    "sim.d": 2,
    "sim.N": 64,
    "sim.dt": 0.05,
    "sim.t_end": 2.0,
    "sim.seed": 0x9D0C,
    "sim.n": 4.0,
    "sim.noise_strength": 0.4,
    "objective.name": "rastrigin",
    "kernel.variant": "logistic",
    "kernel.a": 1.0,
    "kernel.b": 1.0,
    "init.spatial": "gaussian",
    "init.center": [1.0, -0.5],
    "init.spread": 0.8,
    "init.lambda": "const",
    "init.lambda_value": 0.2,
    "run.replicas": 2,
}


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] acceptance {criterion}: {detail}")
    assert passed, detail


def test_criterion_1_lambda_constraint_preservation():
    cfg = constraint_config()
    assert cfg.d == 2 and cfg.n_particles == 500
    assert cfg.kernel.a == 1.0 and cfg.kernel.b == 1.0
    assert cfg.kernel.theta == pytest.approx(0.5)
    assert cfg.dt == 0.25 == cfg.kernel.theta / 2
    assert cfg.n_steps == 10_000
    record, elapsed = constraint_record()
    ok = (
        record.clamp_events == 0
        and record.lambda_min >= 0.0
        and record.lambda_max <= 1.0
        and elapsed < 10.0
    )
    report(
        1, ok,
        f"clamp events {record.clamp_events}, lambda in "
        f"[{record.lambda_min:.3g}, {record.lambda_max:.3g}] over "
        f"{cfg.n_steps} steps at dt = theta/2, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_mean_decay_law():
    cfg, record, elapsed = decay_record()
    assert cfg.mode == "auxiliary"
    assert cfg.n_particles == 10_000
    assert cfg.noise_strength ** 2 * cfg.d == pytest.approx(0.5)
    assert cfg.dt == 1e-2 and cfg.t_end == 5.0
    rep = mean_decay_check(record)
    ok = rep.max_rel_error <= 0.05 and elapsed < 60.0
    report(
        2, ok,
        f"max relative error {rep.max_rel_error:.3%} (tolerance 5%), final "
        f"||mean|| {rep.actual_final:.4f} vs predicted {rep.predicted_final:.4f}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_second_moment_ceiling():
    c_zero = second_moment_constant(0.0, 3)
    c_unit = second_moment_constant(1.0, 1)
    assert c_zero == pytest.approx(2.0, abs=1e-14)
    assert c_unit == pytest.approx(3.0, abs=1e-14)
    cfg, record, _ = decay_record()
    rep = second_moment_bound_check(record, cfg, slack=1.1)
    report(
        3, rep.ok,
        f"peak m2_sq ratio {rep.peak_ratio:.3f} vs ceiling "
        f"{rep.slack * rep.ceiling_constant:.3f}; constants C(0) = {c_zero:g}, "
        f"C(noise^2 d = 1) = {c_unit:g} exact",
    )


def test_criterion_4_concentration_with_persistent_information():
    table, elapsed = concentration_table()
    values = [table[n] for n in CONCENTRATION_SHARPNESS]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    ok = monotone and values[-1] <= 1e-2 and elapsed < 120.0
    spread = ", ".join(f"n={n:g}: {table[n]:.3g}" for n in CONCENTRATION_SHARPNESS)
    report(
        4, ok,
        f"terminal m2_sq non-increasing [{spread}], sharpest <= 1e-2, "
        f"{elapsed:.0f}s (budget 120s)",
    )


def test_criterion_5_meanfield_residual_scaling():
    stats, elapsed = meanfield_stats()
    assert MEANFIELD_REPLICAS == 200
    centered = []
    for size in MEANFIELD_SIZES:
        s = stats[size]
        assert s.replicas == MEANFIELD_REPLICAS
        centered.append(abs(s.mean) <= CI_Z_99 * s.stderr)
    small, large = (stats[size] for size in MEANFIELD_SIZES)
    ratio = small.variance / large.variance
    ok = all(centered) and 2.5 <= ratio <= 6.5 and elapsed < 300.0
    report(
        5, ok,
        f"residual means {small.mean:+.2e} (CI {CI_Z_99 * small.stderr:.2e}) and "
        f"{large.mean:+.2e} (CI {CI_Z_99 * large.stderr:.2e}); variance ratio "
        f"{ratio:.2f} in [2.5, 6.5]; {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_6_mass_in_ball_floor():
    cfg, record = concentration_record_sharp()
    assert cfg.sharpness == CONCENTRATION_SHARPNESS[-1] == 64.0
    assert MASS_RADIUS == 0.5
    fit = mass_bound_fit(record, MASS_RADIUS)
    series = record.mass_ball[MASS_RADIUS]
    floor = fit.initial_smoothed_mass * np.exp(-fit.fitted_rate * record.times)
    ok = (
        bool(np.all(series > 0.0))
        and fit.initial_smoothed_mass > 0.0
        and math.isfinite(fit.fitted_rate)
        and bool(np.all(series >= floor - 1e-12))
        and not fit.vacuous
    )
    report(
        6, ok,
        f"mass in radius {MASS_RADIUS:g} ball stays in "
        f"[{series.min():.3g}, {series.max():.3g}] above the exponential floor "
        f"(smoothed initial {fit.initial_smoothed_mass:.3g}, "
        f"fitted rate {fit.fitted_rate:.3g})",
    )


def _assignment_w1_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exhaustive pairing oracle for equal-size uniform 1-d supports."""
    cost = np.abs(a[:, None] - b[None, :])
    perms = np.array(list(itertools.permutations(range(len(b)))))
    rows = np.arange(len(a))
    return float(cost[rows, perms].sum(axis=1).min() / len(a))


def test_criterion_7_oracle_equivalences():
    rng = rng_from_seed(SEED_W1_ORACLE)
    worst_w1 = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        a = rng.normal(size=size)
        b = rng.normal(size=size) * rng.uniform(0.5, 2.0)
        got = w1_exact(
            EmpiricalMeasure.uniform(a[:, None]),
            EmpiricalMeasure.uniform(b[:, None]),
        )
        worst_w1 = max(worst_w1, abs(got - _assignment_w1_1d(a, b)))

    objective = quadratic(3)
    params_pool = [ConsensusParams(s, objective, ObservableMap()) for s in range(6)]
    worst_consensus = 0.0
    for _ in range(100):
        atoms = rng.normal(size=(int(rng.integers(2, 7)), 3))
        params = params_pool[int(rng.integers(0, 6))]
        measure = EmpiricalMeasure.uniform(atoms)
        # direct summation, no stabilization: safe here because the energies
        # of a standard normal cloud keep n * E far from the underflow edge
        raw = measure.masses * np.exp(-params.sharpness * eval_objective_batch(objective, atoms))
        oracle = raw @ atoms / raw.sum()
        got = weighted_consensus(params, measure)
        worst_consensus = max(worst_consensus, float(np.abs(got - oracle).max()))

    euler = _logistic_euler_error()
    ok = (
        worst_w1 <= 1e-9
        and worst_consensus <= 1e-10
        and euler["max_error"] <= 2.0 * euler["dt"]
    )
    report(
        7, ok,
        f"W1 vs pairing oracle worst {worst_w1:.1e} (tol 1e-9, 100 instances); "
        f"consensus vs direct summation worst {worst_consensus:.1e} (tol 1e-10); "
        f"rate relaxation vs closed form {euler['max_error']:.2e} <= "
        f"2 dt = {2 * euler['dt']:.2e}",
    )


def test_criterion_8_gibbs_functional_properties():
    outcomes = _gibbs_algebra_outcomes()
    ok = all(o.passed for o in outcomes)
    report(8, ok, "; ".join(o.line() for o in outcomes))


def test_criterion_9_determinism(tmp_path):
    exp = parse_flat_config(REPRO_CONFIG)
    first = run(exp, output_dir=tmp_path / "first", workers=1)
    second = run(exp, output_dir=tmp_path / "second", workers=2)
    csvs = sorted(name for name in first.manifest["files"] if name.endswith(".csv"))
    identical = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in csvs
    )
    ok = bool(csvs) and identical and first.manifest["files"] == second.manifest["files"]
    report(
        9, ok,
        f"{len(csvs)} replica CSVs byte-identical across a serial rerun and a "
        f"2-worker rerun of the committed config",
    )
