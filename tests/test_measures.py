import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from infocbo.measures import EmpiricalMeasure, MeasureError, mean_point, phi_r_expectation
from infocbo.util import rng_from_seed
from oracles import mass_in_ball, moment_p, w1_exact


def run_python(code):
    """stdout of code run in a fresh interpreter that imports this checkout
    and the tests' oracles."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_package_does_not_load_scipy_assignment():
    # the package needs numpy alone; only the tests' assignment oracle reads scipy
    out = run_python(
        "import sys, infocbo, infocbo.cli, infocbo.diagnostics, infocbo.validation; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_without_scipy_only_the_assignment_path_is_refused():
    out = run_python("""
import sys
sys.modules["scipy"] = None  # every scipy import now fails, as on a numpy-only install
import infocbo.cli, infocbo.validation
from infocbo import (EmpiricalMeasure, InitialLaw, KernelSpec, ObservableMap, SimConfig,
                     quadratic, simulate)
from infocbo.measures import MeasureError
from oracles import w1_exact
pair = EmpiricalMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
try:
    w1_exact(pair, pair)
except MeasureError as exc:
    print(exc)
print(w1_exact(EmpiricalMeasure.uniform([0.0]), EmpiricalMeasure.uniform([2.0])))
cfg = SimConfig(d=2, n_particles=8, dt=0.1, t_end=0.5, seed=1, objective=quadratic(2),
                observable=ObservableMap(), kernel=KernelSpec("logistic", a=1.0),
                init=InitialLaw.gaussian((1.0, 1.0), 1.0))
print(simulate(cfg).times.size)
""")
    assert out.splitlines() == [
        "exact W1 in d >= 2 needs scipy, which the extra infocbo[test] installs",
        "2.0",
        "6",
    ]


def brute_force_w1(xs, ys):
    """Minimal mean |x - y| over all pairings of two equal uniform atom sets."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
        ys = ys[:, None]
    perms = np.array(list(itertools.permutations(range(len(ys)))))
    # cost of every pairing at once: (permutations, atoms)
    cost = np.linalg.norm(xs[None, :, :] - ys[perms], axis=2)
    return float(cost.mean(axis=1).min())


def uniform(points):
    return EmpiricalMeasure.uniform(np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# construction


def test_masses_must_sum_to_one():
    with pytest.raises(MeasureError):
        EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))


def test_masses_must_be_nonnegative():
    with pytest.raises(MeasureError):
        EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))


@pytest.mark.parametrize("masses", [[math.nan, math.nan], [math.inf, 0.0]])
def test_masses_must_be_finite(masses):
    # abs(nan - 1) > MASS_TOL is false, so the sum check alone lets NaN through
    with pytest.raises(MeasureError, match="^masses must be finite$"):
        EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array(masses))


def test_one_dimensional_atom_list_is_promoted_to_column():
    mu = uniform([0.0, 2.0])
    assert mu.atoms.shape == (2, 1)


# ---------------------------------------------------------------------------
# moments


def test_moment_of_single_atom_is_its_norm():
    assert moment_p(uniform([[3.0, 4.0]]), 2.0) == 5.0


def test_first_moment_two_atoms():
    assert moment_p(uniform([0.0, 2.0]), 1.0) == 1.0


def test_second_moment_two_atoms():
    assert moment_p(uniform([0.0, 2.0]), 2.0) == pytest.approx(math.sqrt(2.0))


def test_moment_requires_p_at_least_one():
    with pytest.raises(MeasureError):
        moment_p(uniform([1.0]), 0.5)


def test_moments_are_monotone_in_p():
    rng = rng_from_seed(11)
    for _ in range(25):
        mu = uniform(rng.standard_normal((6, 3)))
        values = [moment_p(mu, p) for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_mean_point_respects_masses():
    mu = EmpiricalMeasure(np.array([[0.0], [4.0]]), np.array([0.25, 0.75]))
    assert mean_point(mu) == pytest.approx([3.0])


# ---------------------------------------------------------------------------
# exact W1


def test_w1_of_a_measure_with_itself_is_zero():
    mu = uniform(rng_from_seed(0).standard_normal((5, 2)))
    assert w1_exact(mu, mu) == 0.0


def test_w1_of_translated_point_masses():
    assert w1_exact(uniform([0.0]), uniform([1.0])) == pytest.approx(1.0)


def test_w1_sorted_coupling_two_atoms():
    assert w1_exact(uniform([0.0, 1.0]), uniform([0.5, 1.5])) == pytest.approx(0.5)


_RNG = rng_from_seed(0xD15)
_INSTANCES_1D = [
    (_RNG.standard_normal(n), _RNG.standard_normal(n)) for n in _RNG.integers(2, 9, size=100)
]


@pytest.mark.parametrize("xs,ys", _INSTANCES_1D)
def test_w1_matches_permutation_brute_force_in_1d(xs, ys):
    got = w1_exact(uniform(xs), uniform(ys))
    assert got == pytest.approx(brute_force_w1(xs, ys), abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_w1_assignment_matches_brute_force_in_2d(n):
    rng = rng_from_seed(100 + n)
    xs = rng.standard_normal((n, 2))
    ys = rng.standard_normal((n, 2))
    got = w1_exact(uniform(xs), uniform(ys))
    assert got == pytest.approx(brute_force_w1(xs, ys), abs=1e-9)


def test_w1_with_weights_and_unequal_supports_matches_scipy():
    rng = rng_from_seed(77)
    for _ in range(20):
        xs = rng.standard_normal(4)
        ys = rng.standard_normal(7)
        wx = rng.random(4)
        wy = rng.random(7)
        mu = EmpiricalMeasure(xs, wx / wx.sum())
        nu = EmpiricalMeasure(ys, wy / wy.sum())
        expected = wasserstein_distance(xs, ys, u_weights=wx, v_weights=wy)
        assert w1_exact(mu, nu) == pytest.approx(expected, rel=1e-12)


def test_w1_refuses_large_weighted_multidimensional_inputs():
    mu = EmpiricalMeasure(np.zeros((2, 2)), np.array([0.3, 0.7]))
    nu = uniform(np.ones((2, 2)))
    with pytest.raises(MeasureError):
        w1_exact(mu, nu)


def test_mean_difference_is_dominated_by_w1():
    rng = rng_from_seed(21)
    for _ in range(25):
        mu = uniform(rng.standard_normal((5, 2)))
        nu = uniform(rng.standard_normal((5, 2)))
        gap = np.linalg.norm(mean_point(mu) - mean_point(nu))
        assert gap <= w1_exact(mu, nu) + 1e-12


# ---------------------------------------------------------------------------
# mollifier and mass-in-ball


def test_bump_profile_is_one_at_origin():
    assert phi_r_expectation(2.0, uniform([[0.0]])) == 1.0


@pytest.mark.parametrize("t", [1.0, 1.5, 10.0])
def test_bump_profile_vanishes_outside_radius(t):
    assert phi_r_expectation(1.0, uniform([[t]])) == 0.0


def test_bump_profile_interior_value():
    t = 1.0 / math.sqrt(2.0)
    assert phi_r_expectation(1.0, uniform([[t]])) == pytest.approx(math.exp(-1.0))


def test_bump_profile_is_continuous_at_the_edge():
    assert phi_r_expectation(1.0, uniform([[1.0 - 1e-9]])) < 1e-12


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_mollifier_radius_must_be_finite(r):
    with pytest.raises(MeasureError, match="r must be finite"):
        phi_r_expectation(r, uniform([[0.0]]))


def test_smoothed_mass_of_origin_point_mass_is_one():
    assert phi_r_expectation(1.0, uniform([[0.0, 0.0]])) == 1.0


def test_smoothed_mass_outside_support_is_zero():
    assert phi_r_expectation(1.0, uniform([[3.0, 0.0]])) == 0.0


def test_smoothed_mass_two_atoms_hand_value():
    mu = uniform([0.0, 1.0 / math.sqrt(2.0)])
    assert phi_r_expectation(1.0, mu) == pytest.approx((1.0 + math.exp(-1.0)) / 2.0)


def test_mass_in_ball_counts_interior_atoms():
    assert mass_in_ball(uniform([[0.0]]), 0.5) == 1.0
    assert mass_in_ball(uniform([[2.0, 0.0]]), 1.0) == 0.0
    assert mass_in_ball(uniform([0.0, 0.5, 2.0]), 1.0) == pytest.approx(2.0 / 3.0)


def test_mass_in_ball_is_strict_at_the_boundary():
    assert mass_in_ball(uniform([[1.0]]), 1.0) == 0.0


def test_smoothed_mass_lower_bounds_ball_mass():
    rng = rng_from_seed(5)
    for _ in range(25):
        mu = uniform(rng.standard_normal((8, 2)) * 1.5)
        for r in (0.5, 1.0, 2.0):
            assert phi_r_expectation(r, mu) <= mass_in_ball(mu, r) + 1e-15
