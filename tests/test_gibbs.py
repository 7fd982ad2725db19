import math
import tracemalloc

import numpy as np
import pytest

from infocbo.gibbs import (
    ConsensusParams,
    GibbsError,
    _stabilized_weights,
    consensus_from_energies,
    cutoff_eta,
    drift,
    weighted_consensus,
)
from infocbo.measures import EmpiricalMeasure
from infocbo.objectives import ObservableMap, eval_objective_batch, eval_observable_batch, quadratic
from infocbo.util import rng_from_seed
from oracles import cutoff_phi_measure, gibbs_weights, moment_p, truncated_drift, w1_exact


def params_for(sharpness, d=1, observable=None):
    return ConsensusParams(
        sharpness=sharpness,
        objective=quadratic(d),
        observable=observable or ObservableMap(),
    )


def uniform(points):
    return EmpiricalMeasure.uniform(np.asarray(points, dtype=float))


def oracle_consensus(params, measure):
    """Direct summation of the defining ratio, no stabilization shift.

    Trustworthy only while exp(-n * energy) stays clear of underflow, which
    the callers arrange; the production path must agree wherever both are
    defined.
    """
    energies = eval_objective_batch(params.objective, measure.atoms)
    raw = measure.masses * np.exp(-params.sharpness * energies)
    g = eval_observable_batch(params.observable, measure.atoms)
    return (raw[:, None] * g).sum(axis=0) / raw.sum()


# ---------------------------------------------------------------------------
# weights


def test_zero_sharpness_gives_flat_weights():
    w = gibbs_weights(params_for(0.0), np.array([[0.0], [1.0], [2.0]]))
    assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_single_point_gets_unit_weight():
    w = gibbs_weights(params_for(7.0), np.array([[4.0]]))
    assert w.tolist() == [1.0]


def test_two_point_weights_hand_value():
    w = gibbs_weights(params_for(1.0), np.array([[0.0], [1.0]]))
    expected = np.array([1.0, math.exp(-1.0)])
    expected /= expected.sum()
    assert np.allclose(w, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("sharpness", [0.0, 0.3, 1.0, 10.0, 1e4])
def test_weights_are_a_probability_vector(sharpness):
    rng = rng_from_seed(8)
    pts = rng.standard_normal((50, 2)) * 3.0
    w = gibbs_weights(params_for(sharpness, d=2), pts)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_negative_sharpness_is_rejected():
    with pytest.raises(GibbsError):
        params_for(-1.0)


def test_infinite_energy_atoms_get_zero_weight():
    params = params_for(1.0)
    masses = np.full(3, 1 / 3)
    energies = np.array([0.0, np.inf, 1.0])
    atoms = np.array([[0.0], [5.0], [1.0]])
    point = consensus_from_energies(params, atoms, masses, energies)
    w_finite = np.array([1.0, math.exp(-1.0)])
    expected = (w_finite / w_finite.sum()) @ np.array([0.0, 1.0])
    assert point == pytest.approx([expected])


@pytest.mark.parametrize("observable", [ObservableMap(), ObservableMap("saturated", 2.0)])
def test_stacked_consensus_matches_each_population_alone(observable):
    params = params_for(3.0, d=2, observable=observable)
    rng = rng_from_seed(12)
    atoms = rng.standard_normal((4, 9, 2))
    energies = eval_objective_batch(params.objective, atoms.reshape(-1, 2)).reshape(4, 9)
    energies[2, 5] = np.inf
    masses = np.full(9, 1 / 9)
    stacked = consensus_from_energies(params, atoms, masses, energies)
    assert stacked.shape == (4, 2)
    for r in range(4):
        alone = consensus_from_energies(params, atoms[r], masses, energies[r])
        assert np.array_equal(stacked[r], alone)


def test_stacked_degenerate_weights_name_the_replica():
    energies = np.array([[0.0, 1.0], [np.inf, np.inf], [np.inf, np.inf]])
    with pytest.raises(GibbsError, match=r"infinite energy.*\(replica 1\)"):
        consensus_from_energies(params_for(1.0), np.zeros((3, 2, 1)),
                                np.array([0.5, 0.5]), energies)


def test_all_infinite_energies_error():
    params = params_for(1.0)
    with pytest.raises(GibbsError):
        consensus_from_energies(
            params,
            np.array([[0.0], [1.0]]),
            np.array([0.5, 0.5]),
            np.array([np.inf, np.inf]),
        )


def test_finite_weights_that_vanish_name_the_replica():
    # finite energies take the one-buffer path, which keeps the masked path's check:
    # replica 1's one massive atom lies 10^4 above its massless lowest
    energies = np.array([[1.0, 0.0], [0.0, 1e4]])
    with pytest.raises(GibbsError, match=r"all weights vanished.*\(replica 1\)$"):
        _stabilized_weights(1.0, energies, np.array([0.0, 1.0]))


def test_populations_without_atoms_have_undefined_weights():
    with pytest.raises(GibbsError, match=r"infinite energy.*\(replica 0\)$"):
        _stabilized_weights(1.0, np.empty((2, 0)), 1.0)


def test_finite_stacked_weights_hold_at_most_one_weight_array():
    # finite energies are weighted in one buffer; masking every step, as
    # infinite or NaN energies need, peaks at 2.13 weight arrays
    energies = rng_from_seed(3).standard_normal((3, 20_000)) ** 2
    _stabilized_weights(64.0, energies, 1 / 20_000)  # first calls allocate caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _stabilized_weights(64.0, energies, 1 / 20_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * energies.nbytes + 16 * 1024  # slack for the Python objects


# ---------------------------------------------------------------------------
# consensus point


def test_consensus_of_point_mass_is_its_image():
    point = weighted_consensus(params_for(3.0, d=2), uniform([[3.0, -1.0]]))
    assert point.tolist() == [3.0, -1.0]


def test_zero_sharpness_consensus_is_the_mean():
    point = weighted_consensus(params_for(0.0), uniform([0.0, 2.0]))
    assert point == pytest.approx([1.0])


def test_two_atom_consensus_hand_value():
    point = weighted_consensus(params_for(1.0), uniform([0.0, 1.0]))
    assert point == pytest.approx([math.exp(-1.0) / (1.0 + math.exp(-1.0))])


_ORACLE_RNG = rng_from_seed(0xACE)
_ORACLE_CASES = [
    (
        float(_ORACLE_RNG.uniform(0.0, 5.0)),
        _ORACLE_RNG.standard_normal((int(_ORACLE_RNG.integers(1, 9)), 2)),
    )
    for _ in range(60)
]


@pytest.mark.parametrize("sharpness,pts", _ORACLE_CASES)
def test_consensus_matches_direct_summation_oracle(sharpness, pts):
    params = params_for(sharpness, d=2)
    mu = uniform(pts)
    assert weighted_consensus(params, mu) == pytest.approx(
        oracle_consensus(params, mu), abs=1e-10
    )


def test_consensus_folds_in_nonuniform_masses():
    params = params_for(0.0)
    mu = EmpiricalMeasure(np.array([[0.0], [4.0]]), np.array([0.25, 0.75]))
    assert weighted_consensus(params, mu) == pytest.approx([3.0])


def test_consensus_is_invariant_under_energy_shifts():
    rng = rng_from_seed(9)
    atoms = rng.standard_normal((20, 2))
    masses = np.full(20, 1 / 20)
    params = params_for(2.0, d=2)
    energies = eval_objective_batch(params.objective, atoms)
    base = consensus_from_energies(params, atoms, masses, energies)
    for shift in (1.0, math.e, 100.0):
        shifted = consensus_from_energies(params, atoms, masses, energies + shift)
        assert np.linalg.norm(shifted - base) <= 1e-12 * max(1.0, np.linalg.norm(base))


def test_sharp_limit_selects_the_best_atom():
    atoms = np.array([[2.0], [0.5], [-1.5], [3.0], [1.0]])
    point = weighted_consensus(params_for(1000.0), atoms_measure := uniform(atoms))
    best = atoms[np.argmin(eval_objective_batch(quadratic(1), atoms_measure.atoms))]
    assert point == pytest.approx(best, abs=1e-6)


def test_consensus_with_saturated_observable_is_capped():
    obs = ObservableMap(variant="saturated", m_g=1.0)
    rng = rng_from_seed(10)
    for _ in range(20):
        mu = uniform(rng.standard_normal((10, 2)) * 5.0)
        point = weighted_consensus(params_for(1.0, d=2, observable=obs), mu)
        assert np.linalg.norm(point) < 1.0


def test_consensus_linear_growth_in_the_first_moment():
    # the bound constant is an empirical fit; the point is that it does not
    # blow up across sharpness values or cloud scales
    rng = rng_from_seed(12)
    worst = 0.0
    for _ in range(200):
        scale = float(rng.uniform(0.2, 3.0))
        mu = uniform(rng.standard_normal((12, 2)) * scale)
        for sharpness in (0.0, 0.5, 1.0, 5.0, 50.0):
            point = weighted_consensus(params_for(sharpness, d=2), mu)
            worst = max(worst, np.linalg.norm(point) / (1.0 + moment_p(mu, 1.0)))
    assert worst <= 10.0


def test_consensus_is_locally_lipschitz_in_w1():
    rng = rng_from_seed(13)
    params = params_for(1.0)
    worst = 0.0
    for _ in range(100):
        base = rng.standard_normal(8)
        other = base + rng.standard_normal(8) * 0.3
        mu, nu = uniform(base), uniform(other)
        if moment_p(mu, 1.0) > 2.0 or moment_p(nu, 1.0) > 2.0:
            continue
        dist = w1_exact(mu, nu)
        if dist < 1e-9:
            continue
        gap = np.linalg.norm(weighted_consensus(params, mu) - weighted_consensus(params, nu))
        worst = max(worst, gap / dist)
    assert 0.0 < worst <= 50.0


# ---------------------------------------------------------------------------
# drift field


def test_drift_follows_consensus_at_full_information():
    assert drift(np.array([2.0]), 1.0, np.array([5.0]), np.array([0.0])) == pytest.approx([3.0])


def test_drift_follows_crowd_mean_at_zero_information():
    assert drift(np.array([2.0]), 0.0, np.array([9.0]), np.array([0.0])) == pytest.approx([-2.0])


def test_drift_interpolates_between_targets():
    out = drift(np.array([1.0]), 0.5, np.array([2.0]), np.array([0.0]))
    assert out == pytest.approx([0.0])


def test_drift_broadcasts_over_an_ensemble():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    lam = np.array([0.0, 1.0])
    f_val = np.array([2.0, 2.0])
    e_val = np.array([-2.0, -2.0])
    out = drift(x, lam, f_val, e_val)
    assert np.allclose(out, [[-3.0, -2.0], [2.0, 1.0]], rtol=0, atol=0)


def test_consensus_free_drift_drops_the_consensus_term():
    # f = None is the auxiliary flow: -x + (1 - lam) e, with no lam * f pull
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    lam = np.array([0.25, 1.0])
    out = drift(x, lam, None, np.array([-2.0, 4.0]))
    assert out.tolist() == [[-2.5, 3.0], [0.0, -1.0]]
    assert drift(np.array([2.0]), 0.5, None, np.array([4.0])).tolist() == [0.0]


# ---------------------------------------------------------------------------
# cutoff machinery


def test_cutoff_is_one_inside_and_zero_outside():
    assert cutoff_eta(1.0, 0.5) == 1.0
    assert cutoff_eta(1.0, 1.0) == 1.0
    assert cutoff_eta(1.0, 3.0) == 0.0
    assert cutoff_eta(1.0, 2.0) == 0.0


def test_cutoff_midpoint_is_half_by_symmetry():
    assert cutoff_eta(1.0, 1.5) == pytest.approx(0.5)


def test_cutoff_is_monotone_nonincreasing():
    zs = np.linspace(0.0, 3.0, 301)
    vals = [cutoff_eta(1.0, z) for z in zs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_cutoff_radius_must_be_finite(radius):
    with pytest.raises(GibbsError, match="radius must be finite"):
        cutoff_eta(radius, 1.5)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_cutoff_argument_must_be_finite(z):
    with pytest.raises(GibbsError, match="^z must be finite"):
        cutoff_eta(1.0, z)


def test_measure_cutoff_evaluates_at_the_first_moment():
    assert cutoff_phi_measure(1.0, uniform([[0.0, 0.0]])) == 1.0
    assert cutoff_phi_measure(1.0, uniform([[3.0, 0.0]])) == 0.0
    assert cutoff_phi_measure(1.0, uniform([[1.5, 0.0]])) == pytest.approx(0.5)


def test_measure_cutoff_is_two_lipschitz_in_w1():
    rng = rng_from_seed(14)
    for _ in range(100):
        base = rng.standard_normal(6) * 1.2
        other = base + rng.standard_normal(6) * 0.2
        mu, nu = uniform(base), uniform(other)
        gap = abs(cutoff_phi_measure(1.0, mu) - cutoff_phi_measure(1.0, nu))
        assert gap <= 2.0 * w1_exact(mu, nu) + 1e-12


def test_truncated_drift_reduces_to_drift_inside_the_radius():
    params = params_for(1.0, d=2)
    mu = uniform(rng_from_seed(15).standard_normal((10, 2)) * 0.3)
    x = np.array([0.5, -0.5])
    full = truncated_drift(5.0, params, mu, x, 0.7)
    f_val = weighted_consensus(params, mu)
    e_val = mu.atoms.mean(axis=0)
    assert full == pytest.approx(drift(x, 0.7, f_val, e_val), abs=1e-15)


def test_truncated_drift_is_pure_contraction_far_out():
    params = params_for(1.0)
    mu = uniform([10.0, 12.0])
    x = np.array([2.0])
    assert truncated_drift(1.0, params, mu, x, 0.5) == pytest.approx([-2.0])


def test_truncated_drift_halfway_hand_value():
    params = params_for(0.0)
    out = truncated_drift(1.0, params, uniform([1.5]), np.array([0.0]), 0.0)
    assert out == pytest.approx([0.75])
