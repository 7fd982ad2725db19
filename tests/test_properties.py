"""Property tests of the paper's invariants, on examples drawn by hypothesis.

The profile in conftest.py derandomizes the draws, so the suite stays
deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infocbo.diagnostics import g_phi_replica_residuals, gaussian_bump
from infocbo.gibbs import ConsensusParams, consensus_from_energies
from infocbo.infokernel import VARIANTS, KernelSpec
from infocbo.objectives import ObservableMap, quadratic
from infocbo.sde import Ensemble, InitialLaw, SimConfig, em_step
from infocbo.util import derive_seed, rng_from_seed

unit = st.floats(0.0, 1.0)
coordinate = st.floats(-10.0, 10.0)


def sim_config(d, n, kernel, dt, **overrides):
    fields = dict(
        d=d, n_particles=n, dt=dt, t_end=dt, seed=0,
        objective=quadratic(d), observable=ObservableMap(), kernel=kernel,
        init=InitialLaw.gaussian(center=(1.0,) * d, sigma=1.0, lambda_lo=0.2),
        noise_strength=0.5,
    )
    fields.update(overrides)
    return SimConfig(**fields)


@st.composite
def populations(draw, max_atoms=12):
    """(atoms (N, d), energies (N,)) with finite, nonnegative energies."""
    n = draw(st.integers(1, max_atoms))
    d = draw(st.integers(1, 3))
    atoms = draw(arrays(float, (n, d), elements=coordinate))
    energies = draw(arrays(float, n, elements=st.floats(0.0, 50.0)))
    return atoms, energies


# ---------------------------------------------------------------------------
# information level


@given(
    variant=st.sampled_from(VARIANTS),
    a=st.floats(0.01, 20.0),
    b=st.floats(0.0, 20.0),
    step_fraction=st.floats(1e-6, 1.0),
    data=st.data(),
)
def test_information_stays_in_the_unit_interval_for_any_stable_step(
    variant, a, b, step_fraction, data
):
    kernel = KernelSpec(variant, a=a, b=b)
    n = data.draw(st.integers(1, 10))
    d = data.draw(st.integers(1, 3))
    cfg = sim_config(d, n, kernel, dt=step_fraction * kernel.theta)
    ens = Ensemble(
        x=data.draw(arrays(float, (n, d), elements=coordinate)),
        lam=data.draw(arrays(float, n, elements=unit)),
    )
    out = em_step(ens, cfg, rng_from_seed(data.draw(st.integers(0, 2**32))))
    assert np.all((out.lam >= 0.0) & (out.lam <= 1.0))
    # the update is a convex combination of admissible values: no clamp fired
    assert out.clamp_events == 0


# ---------------------------------------------------------------------------
# Gibbs consensus


@given(
    population=populations(),
    shift=st.floats(-1e3, 1e3),
    sharpness=st.floats(0.0, 64.0),
)
def test_consensus_is_invariant_under_energy_shifts(population, shift, sharpness):
    atoms, energies = population
    params = ConsensusParams(sharpness, quadratic(atoms.shape[1]), ObservableMap())
    masses = np.full(len(atoms), 1.0 / len(atoms))
    base = consensus_from_energies(params, atoms, masses, energies)
    shifted = consensus_from_energies(params, atoms, masses, energies + shift)
    # E + c rounds; the weights then move by at most sharpness * ulp(c)
    np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-9)


@given(
    data=st.data(),
    shifts=arrays(float, 3, elements=st.integers(-10**6, 10**6).map(float)),
    sharpness=st.floats(0.0, 64.0),
)
def test_exact_energy_shifts_leave_each_stacked_consensus_bit_for_bit(
    data, shifts, sharpness
):
    # integer energies and shifts add exactly, so the stabilizing minimum
    # removes the shift without rounding
    n = data.draw(st.integers(1, 8))
    atoms = data.draw(arrays(float, (3, n, 2), elements=coordinate))
    energies = data.draw(arrays(float, (3, n), elements=st.integers(0, 50).map(float)))
    params = ConsensusParams(sharpness, quadratic(2), ObservableMap())
    masses = np.full(n, 1.0 / n)
    base = consensus_from_energies(params, atoms, masses, energies)
    shifted = consensus_from_energies(params, atoms, masses, energies + shifts[:, None])
    assert np.array_equal(shifted, base)


@given(
    population=populations(),
    raw_masses=st.data(),
    observable=st.sampled_from([ObservableMap(), ObservableMap("saturated", 3.0)]),
)
def test_zero_sharpness_gives_the_mass_weighted_mean(population, raw_masses, observable):
    atoms, energies = population
    n = len(atoms)
    masses = raw_masses.draw(arrays(float, n, elements=st.floats(0.01, 1.0)))
    masses = masses / masses.sum()
    # at sharpness 0 even infinite energies keep their prior weight
    energies = np.where(np.arange(n) % 2 == 1, np.inf, energies)
    params = ConsensusParams(0.0, quadratic(atoms.shape[1]), observable)
    point = consensus_from_energies(params, atoms, masses, energies)
    g = atoms if observable.variant == "identity" else (
        observable.m_g * atoms / (1.0 + np.linalg.norm(atoms, axis=1, keepdims=True)))
    np.testing.assert_allclose(point, np.average(g, axis=0, weights=masses),
                               rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# replica batching


@settings(max_examples=12)
@given(
    replica=st.integers(0, 29),
    master=st.integers(0, 2**63),
    variant=st.sampled_from(VARIANTS),
    stride=st.sampled_from([1, 5]),
)
def test_a_replica_residual_does_not_depend_on_its_batch(replica, master, variant, stride):
    cfg = sim_config(2, 6, KernelSpec(variant, a=1.0, b=1.0), dt=0.05, t_end=0.5,
                     sharpness=4.0)
    seeds = [derive_seed(master, r) for r in range(30)]
    phi = gaussian_bump(2.0)
    batch = g_phi_replica_residuals(cfg, seeds, phi, stride)
    alone = g_phi_replica_residuals(cfg, [seeds[replica]], phi, stride)
    assert batch[replica].tobytes() == alone[0].tobytes()
