"""Property tests of the paper's invariants, on examples drawn by hypothesis.

The profile in conftest.py derandomizes the draws, so the suite stays
deterministic.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infocbo import sde
from infocbo.diagnostics import (Parts, g_phi_replica_residuals, g_phi_scaling_study,
                                 gaussian_bump)
from infocbo.gibbs import ConsensusParams, _stabilized_weights, consensus_from_energies, drift
from infocbo.harness import flat_document, parse_flat_config
from infocbo.infokernel import VARIANTS, KernelSpec, PopulationSummary, eval_kernel
from infocbo.measures import EmpiricalMeasure
from infocbo.objectives import ObservableMap, eval_observable_batch, quadratic
from infocbo.sde import (Ensemble, InitialLaw, SimConfig, _draw_noise, _simulate_batch,
                         consensus_fields, drift_and_rate, em_step, initial_ensemble)
from infocbo.util import (agent_mean, derive_seed, rng_from_seed, row_sum, scale_rows, sq_dist,
                          sq_norm)
from oracles import elementwise_bump_parts, mass_in_ball

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


@given(
    variant=st.sampled_from(VARIANTS),
    a=st.floats(0.01, 20.0),
    b=st.floats(0.0, 20.0),
    step_fraction=st.floats(1e-6, 1.0),
    replicas=st.integers(1, 2),
    data=st.data(),
)
def test_the_step_rate_is_finite_and_keeps_lambda_in_the_unit_interval(
    variant, a, b, step_fraction, replicas, data
):
    # what the step relies on instead of checking lambda each step: for any
    # finite x, even where the crowd distance overflows to inf, and any lambda
    # in [0, 1], the rate is finite and lambda + dt * T needs no clamp
    kernel = KernelSpec(variant, a=a, b=b)
    n = data.draw(st.integers(1, 10))
    d = data.draw(st.integers(1, 3))
    cfg = sim_config(d, n, kernel, dt=step_fraction * kernel.theta, mode="auxiliary")
    ens = Ensemble(
        x=data.draw(arrays(float, (replicas * n, d), elements=st.floats(-1e300, 1e300))),
        lam=data.draw(arrays(float, replicas * n, elements=unit | st.just(-0.0))),
        replicas=replicas,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # the drift may overflow
        _, rate = drift_and_rate(ens, cfg, consensus_fields(ens, cfg))
    assert np.all(np.isfinite(rate))
    raw = ens.lam + cfg.dt * rate
    assert np.all((raw >= 0.0) & (raw <= 1.0))


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


def masked_weights(sharpness, energies, prior):
    """The stabilized weights as masked copies compute them: the lowest
    finite energy of each row, then zero weight for every non-finite one."""
    finite = np.isfinite(energies)
    lowest = np.where(finite, energies, np.inf).min(axis=-1, keepdims=True)
    weights = np.where(finite, prior * np.exp(-sharpness * (energies - lowest)), 0.0)
    return weights / weights.sum(axis=-1, keepdims=True)


@given(data=st.data(), sharpness=st.floats(0.0, 64.0, exclude_min=True))
def test_stabilized_weights_are_the_masked_expression_bit_for_bit(data, sharpness):
    # stacked (R, N) energies with infinite, NaN and signed-zero entries;
    # each row keeps one finite energy, or its weights are undefined
    r, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 40))
    finite = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0]))
    special = st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0])
    energies = data.draw(arrays(float, (r, n), elements=st.one_of(finite, special)))
    energies[:, data.draw(st.integers(0, n - 1))] = data.draw(arrays(float, r, elements=finite))
    with np.errstate(all="ignore"):
        want = masked_weights(sharpness, energies, np.full(n, 1.0 / n))
    assert same_bits(_stabilized_weights(sharpness, energies, 1.0 / n), want)


# ---------------------------------------------------------------------------
# the weak-form test function


@given(data=st.data(), scale=st.floats(0.1, 10.0), case=st.sampled_from(
    ["one value", "one value but one", "signed zeros", "one agent", "random"]))
def test_gaussian_bump_parts_is_the_elementwise_formula_bit_for_bit(data, scale, case):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    n = 1 if case == "one agent" else data.draw(st.integers(2, 300))
    x = signed_values(data.draw, rng, (n, data.draw(st.integers(1, 4))))
    lam = per_agent(data.draw, rng, (n,))
    if case.startswith("one value"):
        lam[:] = data.draw(st.one_of(unit, st.sampled_from([-0.0, 0.0, 1.0])))
    if case == "one value but one":  # one ulp off, or the other signed zero
        lam[data.draw(st.integers(0, n - 1))] = np.nextafter(
            lam[0], data.draw(st.sampled_from([-1.0, 2.0])))
    if case == "signed zeros":  # at least one of each
        lam[:] = np.where(rng.permutation(n) % 2, -0.0, 0.0)
    got = gaussian_bump(scale).evaluate(x, lam)
    want = elementwise_bump_parts(scale, x, lam)
    assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))


@given(data=st.data(), scale=st.floats(0.1, 10.0), first_shared=st.booleans())
def test_gaussian_bump_parts_into_reused_buffers_is_the_elementwise_formula_bit_for_bit(
        data, scale, first_shared):
    # NaN-filled buffers, then the same buffers for a second state: an entry
    # left unwritten, or read from the call before, changes the bits
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    n, d = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 4))
    out = Parts(*(np.full(part.shape, np.nan) for part in Parts.empty(n, d)))
    phi = gaussian_bump(scale)
    for shared in (first_shared, not first_shared):
        x = signed_values(data.draw, rng, (n, d))
        lam = per_agent(data.draw, rng, (n,))
        if shared:
            lam[:] = lam[0]
        assert phi.parts(x, lam, out) is out
        want = elementwise_bump_parts(scale, x, lam)
        assert all(same_bits(g, w) for g, w in zip(out, want, strict=True))


# ---------------------------------------------------------------------------
# replica batching


@settings(max_examples=12)
@given(
    replica=st.integers(0, 29),
    master=st.integers(0, 2**63),
    variant=st.sampled_from(VARIANTS),
    stride=st.sampled_from([1, 5]),
    lambda_law=st.sampled_from([(0.2, 0.2), (0.1, 0.4)]),
    n=st.sampled_from([1, 6]),
)
def test_a_replica_residual_does_not_depend_on_its_batch(
    replica, master, variant, stride, lambda_law, n
):
    # lambda_0 constant 0.2 or uniform on [0.1, 0.4], so the test function
    # takes the trig of one shared lambda or of every agent's; at N = 1 each
    # replica alone holds one lambda while its batch need not
    init = InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=lambda_law[0],
                               lambda_hi=lambda_law[1])
    cfg = sim_config(2, n, KernelSpec(variant, a=1.0, b=1.0), dt=0.05, t_end=0.5,
                     sharpness=4.0, init=init)
    seeds = [derive_seed(master, r) for r in range(30)]
    phi = gaussian_bump(2.0)
    batch = g_phi_replica_residuals(cfg, seeds, phi, stride)
    alone = g_phi_replica_residuals(cfg, [seeds[replica]], phi, stride)
    assert batch[replica].tobytes() == alone[0].tobytes()


@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True),
    master=st.integers(0, 2**63),
    variant=st.sampled_from(VARIANTS),
    stride=st.sampled_from([1, 5]),
    lambda_law=st.sampled_from([(0.2, 0.2), (0.1, 0.4)]),
)
def test_a_scaling_study_over_two_sizes_is_each_size_alone_bit_for_bit(
    sizes, master, variant, stride, lambda_law
):
    # each size's batch evaluates in its own workspace, so a size's statistics
    # do not depend on the size stepped before it
    init = InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=lambda_law[0],
                               lambda_hi=lambda_law[1])
    cfg = sim_config(2, 1, KernelSpec(variant, a=1.0, b=1.0), dt=0.05, t_end=0.25,
                     sharpness=4.0, init=init, seed=master)
    phi = gaussian_bump(2.0)
    study = g_phi_scaling_study(cfg, sizes, 30, phi, stride)
    for idx, n in enumerate(sizes):
        size_seed = derive_seed(master, idx)
        alone = g_phi_replica_residuals(dataclasses.replace(cfg, n_particles=n),
                                        [derive_seed(size_seed, r) for r in range(30)],
                                        phi, stride)
        assert study[n].mean.hex() == float(alone.mean()).hex()
        assert study[n].variance.hex() == float(alone.var(ddof=1)).hex()


# ---------------------------------------------------------------------------
# fast reductions: numpy's own bits


def signed_values(draw, rng, shape):
    """Normal draws scaled by magnitudes from 1e-8 to 1e8, with some signed
    zeros."""
    low = draw(st.integers(-8, 8))
    high = draw(st.integers(low, 8))
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(low, high, shape)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    sign = draw(st.sampled_from([-1.0, 1.0, None]))
    a[zeros] = np.copysign(0.0, rng.standard_normal(shape)[zeros] if sign is None else sign)
    return a


@st.composite
def stacks(draw):
    """(N, d) rows or (R, N, d) stacks, d in 1..12, with magnitudes from 1e-8
    to 1e8 and some signed zeros, in C, Fortran or strided layout."""
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (
        draw(st.integers(1, 300)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a = signed_values(draw, rng, shape)
    layout = draw(st.sampled_from(["C", "F", "strided columns", "strided rows"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided columns":
        return np.repeat(a, 2, axis=-1)[..., ::2]
    if layout == "strided rows":
        return np.repeat(a, 2, axis=-2)[..., ::2, :]
    return a


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes())


@given(a=stacks())
def test_row_sum_and_its_norm_are_numpys_bit_for_bit(a):
    assert same_bits(row_sum(a), np.sum(a, axis=-1))
    assert same_bits(np.sqrt(row_sum(a * a)), np.linalg.norm(a, axis=-1))


@given(a=stacks())
def test_sq_norm_is_the_row_sum_of_the_square_bit_for_bit(a):
    assert same_bits(sq_norm(a), row_sum(a * a))


@given(a=stacks(), data=st.data())
def test_row_sum_sq_norm_and_scale_rows_into_a_buffer_are_their_fresh_forms_bit_for_bit(
        a, data):
    # into NaN-filled C buffers, which every entry must overwrite; scale_rows
    # also with its factors in the buffer's last column, as gaussian_bump has them
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    total = np.full(a.shape[:-1], np.nan)
    assert row_sum(a, out=total) is total and same_bits(total, row_sum(a))
    total.fill(np.nan)
    assert sq_norm(a, out=total) is total and same_bits(total, sq_norm(a))
    s = signed_values(data.draw, rng, a.shape[:-1])
    scaled = np.full(a.shape, np.nan)
    assert scale_rows(s, a, out=scaled) is scaled and same_bits(scaled, scale_rows(s, a))
    scaled.fill(np.nan)
    scaled[..., -1] = s
    assert same_bits(scale_rows(scaled[..., -1], a, out=scaled), scale_rows(s, a))


@given(a=stacks(), data=st.data())
def test_sq_dist_is_the_sq_norm_of_the_difference_bit_for_bit(a, data):
    # centers as the crowd-coupled kernel takes them, (d,) or one (R, 1, d) row per
    # stack, drawn in C layout or as a's own mean, whose layout follows a's
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans(), label="point"):
        a = a[(0,) * (a.ndim - 1)]
    if a.ndim > 1 and data.draw(st.booleans(), label="own mean"):
        c = a.mean(axis=-2)
    else:
        c = signed_values(data.draw, rng, a.shape[:-2] + a.shape[-1:])
    if a.ndim == 3:
        c = c[..., None, :]
    assert same_bits(np.asarray(sq_dist(a, c)), np.asarray(sq_norm(a - c)))


@given(a=stacks())
def test_agent_mean_is_numpys_bit_for_bit(a):
    assert same_bits(agent_mean(a), a.mean(axis=-2))


@pytest.mark.parametrize("shape", [(100_000, 1), (100_000, 2), (1, 100_000, 2),
                                   (2, 50_000, 3), (1, 100_000, 8), (100_000, 4),
                                   (1, 60_000, 6)])
def test_agent_mean_is_numpys_bit_for_bit_on_large_ensembles(shape):
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert same_bits(agent_mean(a), a.mean(axis=-2))


@given(data=st.data(), shape=st.sampled_from([(), (3,)]), n=st.integers(1, 300),
       d=st.integers(2, 12))
def test_agent_mean_on_a_misaligned_array_is_numpys_bit_for_bit(data, shape, n, d):
    # a C-contiguous array 8 bytes off a 16-byte boundary, so that for even d
    # its complex128 view of coordinate pairs is misaligned
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    shape += (n, d)
    buffer = signed_values(data.draw, rng, math.prod(shape) + 1)
    start = 1 if buffer.ctypes.data % 16 == 0 else 0
    a = buffer[start:start + math.prod(shape)].reshape(shape)
    assert a.flags.c_contiguous and a.ctypes.data % 16 == 8
    assert same_bits(agent_mean(a), a.mean(axis=-2))


# ---------------------------------------------------------------------------
# column-wise broadcasts: numpy's own bits


def per_agent(draw, rng, shape):
    """lam in [0, 1], some entries exactly 0 or 1, contiguous or strided."""
    lam = np.where(rng.random(shape) < 0.3, rng.integers(0, 2, shape), rng.random(shape))
    if shape and draw(st.booleans()):
        lam = np.repeat(lam, 2, axis=-1)[..., ::2]
    return lam


def broadcast_drift(x, lam, f_val, e_val):
    """The drift as numpy's broadcast along the coordinate axis computes it."""
    if x.ndim > 1:
        lam = lam[..., None]
    pull = -x if f_val is None else -x + lam * f_val
    return pull + (1.0 - lam) * e_val


@given(x=stacks(), data=st.data())
def test_column_wise_drift_is_the_broadcast_bit_for_bit(x, data):
    if data.draw(st.booleans(), label="point"):
        x = x[(0,) * (x.ndim - 1)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    lam = per_agent(data.draw, rng, x.shape[:-1])
    targets = (x.shape[0], 1, x.shape[-1]) if x.ndim == 3 else x.shape[-1:]
    e_val = signed_values(data.draw, rng, targets)
    f_val = None if data.draw(st.booleans(), label="auxiliary") else (
        signed_values(data.draw, rng, targets))
    assert same_bits(drift(x, lam, f_val, e_val), broadcast_drift(x, lam, f_val, e_val))


@given(a=stacks(), data=st.data())
def test_scale_rows_is_the_broadcast_bit_for_bit(a, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    s = signed_values(data.draw, rng, a.shape[:-1])
    if data.draw(st.booleans(), label="strided"):
        s = np.repeat(s, 2, axis=-1)[..., ::2]
    assert same_bits(scale_rows(s, a), s[..., None] * a)


@given(x=stacks(), data=st.data())
def test_crowd_coupled_distance_is_the_broadcast_bit_for_bit(x, data):
    kernel = KernelSpec("crowd-coupled", a=2.0, b=0.5)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans(), label="point"):
        x = x[(0,) * (x.ndim - 1)]
    lam = per_agent(data.draw, rng, x.shape[:-1])
    summary = PopulationSummary.from_arrays(x) if x.ndim > 1 else (
        PopulationSummary(mean_x=signed_values(data.draw, rng, x.shape)))
    mean_x = summary.mean_x[..., None, :] if x.ndim == 3 else summary.mean_x
    gap = x - mean_x
    want = (1.0 - lam) * kernel.a / (1.0 + np.sqrt(row_sum(gap * gap))) - kernel.b * lam
    assert same_bits(np.asarray(eval_kernel(kernel, summary, x, lam)), want)


@given(points=stacks(), m_g=st.floats(0.1, 10.0))
def test_saturated_observable_is_the_broadcast_bit_for_bit(points, m_g):
    if points.ndim == 3:  # the observable takes (m, d) rows
        points = points[0]
    obs = ObservableMap("saturated", m_g)
    want = obs.m_g * points / (1.0 + np.linalg.norm(points, axis=1, keepdims=True))
    assert same_bits(eval_observable_batch(obs, points), want)


@settings(max_examples=12)
@given(
    replicas=st.integers(1, 3),
    radius=st.floats(0.1, 3.0),
    variant=st.sampled_from(VARIANTS),
    master=st.integers(0, 2**63),
)
def test_clamp_counts_and_ball_masses_keep_their_dtypes(replicas, radius, variant, master):
    cfg = sim_config(2, 7, KernelSpec(variant, a=1.0, b=1.0), dt=0.05, t_end=0.25)
    seeds = [derive_seed(master, r) for r in range(replicas)]
    for rec in _simulate_batch(cfg, seeds, snapshot_stride=1, ball_radii=[radius]):
        inside = [np.count_nonzero(row_sum(s.x * s.x) < radius * radius) for s in rec.snapshots]
        assert rec.mass_ball[radius].dtype == np.float64
        assert rec.mass_ball[radius].tolist() == [count / 7 for count in inside]
    rngs = [rng_from_seed(seed) for seed in seeds]
    clamps = em_step(initial_ensemble(cfg, rngs), cfg, rngs).clamp_events
    assert clamps.dtype == np.dtype(int) and clamps.tolist() == [0] * replicas


# ---------------------------------------------------------------------------
# the Euler-Maruyama step


@given(
    replicas=st.integers(1, 3),
    n=st.integers(1, 20),
    d=st.integers(1, 9),
    variant=st.sampled_from(VARIANTS),
    shared_noise=st.booleans(),
    handed_motion=st.booleans(),
    past_theta=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_em_step_is_the_out_of_place_step_bit_for_bit(
    replicas, n, d, variant, shared_noise, handed_motion, past_theta, seed
):
    # past_theta: dt exceeds theta = 1 / a by the float slack SimConfig allows, so the
    # logistic rate carries each lambda < 1 past 1 and the clamp fires
    kernel = KernelSpec(variant, a=1.0, b=0.0 if past_theta else 1.0)
    dt = kernel.theta * (1 + 5e-13) if past_theta else 0.05
    cfg = sim_config(d, n, kernel, dt=dt, drift_gain=1.5, shared_noise=shared_noise,
                     sharpness=8.0)
    seeds = [derive_seed(seed, r) for r in range(replicas)]
    ens = initial_ensemble(cfg, [rng_from_seed(s) for s in seeds])
    v, rate = drift_and_rate(ens, cfg, consensus_fields(ens, cfg))
    held = [a.copy() for a in (ens.x, ens.lam, v, rate)]
    out = em_step(ens, cfg, [rng_from_seed(s) for s in seeds],
                  (v, rate) if handed_motion else None)
    # the pre-step state and a motion handed in are read, never written
    for a, b in zip((ens.x, ens.lam, v, rate), held):
        assert same_bits(a, b)
    noise = _draw_noise([rng_from_seed(s) for s in seeds], ens, shared_noise)
    amplitude = cfg.noise_strength * math.sqrt(cfg.dt) * np.sqrt(row_sum(v * v))
    new_x = ens.x + cfg.drift_gain * cfg.dt * v + scale_rows(amplitude, noise)
    assert same_bits(out.x, new_x)
    raw = ens.lam + cfg.dt * rate
    assert same_bits(out.lam, np.clip(raw, 0.0, 1.0))
    outside = ((raw < 0.0) | (raw > 1.0)).reshape(replicas, n)
    assert out.clamp_events.tolist() == np.count_nonzero(outside, axis=1).tolist()
    if past_theta and variant == "logistic":
        assert out.clamp_events.tolist() == [n] * replicas


@given(
    replicas=st.integers(1, 3),
    n=st.integers(1, 6),
    d=st.integers(1, 9),
    noise=st.sampled_from(["independent", "shared", "off"]),
    mode=st.sampled_from(sde.MODES),
    stride=st.integers(1, 4),
    records=st.integers(1, 6),
    block_rows=st.integers(1, 48),
    seed=st.integers(0, 2**32),
)
def test_blocked_steps_and_records_are_the_step_by_step_loop_bit_for_bit(
    replicas, n, d, noise, mode, stride, records, block_rows, seed
):
    # a small BLOCK_ROWS ends noise blocks and recorder blocks mid-run, with a
    # partial last block, at strides that do and do not divide the block
    steps = stride * records
    cfg = sim_config(d, n, KernelSpec("logistic", a=1.0, b=1.0), dt=0.05, t_end=0.05 * steps,
                     mode=mode, noise_strength=0.0 if noise == "off" else 0.5,
                     shared_noise=noise == "shared", sharpness=8.0)
    seeds = [derive_seed(seed, r) for r in range(replicas)]
    rngs = [rng_from_seed(s) for s in seeds]
    states = [initial_ensemble(cfg, rngs)]
    for _ in range(steps):  # each step draws its own noise
        states.append(em_step(states[-1], cfg, rngs))
    with mock.patch.object(sde, "BLOCK_ROWS", block_rows):
        yielded = list(sde._trajectory(cfg, stride, seeds))
        batch = _simulate_batch(cfg, seeds, stride, ball_radii=[0.5, 1.5])
    assert [k for k, *_ in yielded] == list(range(steps + 1))
    assert [fields is not None for _, _, fields in yielded] == [
        k % stride == 0 for k in range(steps + 1)]
    for k, ens, _ in yielded:
        assert same_bits(ens.x, states[k].x) and same_bits(ens.lam, states[k].lam)
        assert ens.clamp_events.tolist() == states[k].clamp_events.tolist()
    recorded = states[::stride]
    for r, record in enumerate(batch):
        xs = [s.views()[0][r] for s in recorded]
        lams = [s.views()[1][r] for s in recorded]
        assert record.times.tolist() == [s.time for s in recorded]
        assert same_bits(record.m2_sq, np.array([row_sum(x * x).mean() for x in xs]))
        assert same_bits(record.mean_x, np.array([x.mean(axis=0) for x in xs]))
        assert same_bits(record.mean_lambda, np.array([lam.mean() for lam in lams]))
        for radius, mass in record.mass_ball.items():
            inside = [np.count_nonzero(row_sum(x * x) < radius * radius) for x in xs]
            assert same_bits(mass, np.array(inside) / n)
        if mode == "full":
            want = np.array([consensus_fields(s, cfg).f[r] for s in recorded])
            assert same_bits(record.consensus_point, want)
        assert record.clamp_events == states[-1].clamp_events[r]
        every = [s.views()[1][r] for s in states]
        assert record.lambda_min == min(lam.min() for lam in every)
        assert record.lambda_max == max(lam.max() for lam in every)


@pytest.mark.parametrize("seeds, drawn_ahead", [([1], True), ([1, 2], False), ([1, 2, 3], False)])
def test_a_batch_of_block_rows_draws_its_noise_inside_each_step(monkeypatch, seeds, drawn_ahead):
    # 4 agents per replica against BLOCK_ROWS = 12: one replica takes blocks of
    # three steps; two (8 rows, 12 // 8 = 1) and three (12 rows) take one step
    # each, drawn by em_step after it releases the drift
    monkeypatch.setattr(sde, "BLOCK_ROWS", 12)
    handed, step = [], sde.em_step

    def spy(ensemble, config, rng, motion=None, noise=None):
        handed.append(noise)
        return step(ensemble, config, rng, motion, noise)

    monkeypatch.setattr(sde, "em_step", spy)
    cfg = sim_config(2, 4, KernelSpec("logistic", a=1.0), dt=0.05, t_end=0.5)
    list(sde._trajectory(cfg, 1, seeds))
    assert len(handed) == 10
    if drawn_ahead:
        assert all(noise.shape == (4, 2) for noise in handed)
    else:
        assert all(noise is None for noise in handed)


# ---------------------------------------------------------------------------
# ball mass


@given(
    d=st.integers(1, 7),
    n=st.integers(1, 40),
    radius=st.sampled_from([0.3, 0.7, 1.3]),
    seed=st.integers(0, 2**32),
)
def test_mass_in_ball_counts_what_the_recorder_counts(d, n, radius, seed):
    # within a few ulps of the sphere, norm(x) < r and row_sum(x * x) < r * r
    # disagree on some 10% of the points; both must take the second
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    x = scale_rows(radius + rng.integers(-4, 5, n) * np.spacing(radius), directions)
    recorder = sde._Recorder(None, [radius], keep_snapshots=False)
    ensemble = Ensemble(x, np.full(n, 0.5))
    auxiliary = sim_config(d, n, KernelSpec("logistic", a=1.0), dt=0.1, mode="auxiliary")
    recorder.observe(ensemble, sde.consensus_fields(ensemble, auxiliary), snapshot=False)
    recorder.reduce()  # a state of fewer than BLOCK_ROWS rows waits for its block
    count = recorder.inside[0][0, 0, 0]
    assert round(mass_in_ball(EmpiricalMeasure.uniform(x), radius) * n) == count


# ---------------------------------------------------------------------------
# config documents


def optional(strategy):
    """A key left out of the document, or set by strategy."""
    return st.one_of(st.just(None), strategy)


@st.composite
def flat_documents(draw):
    """Valid flat config documents: both lambda laws, every spatial kind and
    kernel, theta and the truncation radius set or not, and every check whose
    hypotheses the drawn parameters meet."""
    d = draw(st.integers(1, 3))
    a, b = draw(st.floats(0.01, 20.0)), draw(st.floats(0.0, 20.0))
    theta = draw(optional(st.floats(0.01, 1.0).map(lambda f: f / (a + b))))
    dt = draw(st.floats(0.01, 1.0)) * (1.0 / (a + b) if theta is None else theta)
    mode = draw(st.sampled_from(["full", "auxiliary"]))
    noise = draw(st.floats(0.0, 2.0))
    spatial = draw(st.sampled_from(["gaussian", "ball", "point"]))
    saturated = draw(st.booleans())
    steps = draw(st.integers(0, 20))
    # the observer rules: strides divide the step count, snapshots fall on records
    divisors = [k for k in range(1, max(steps, 5) + 1) if steps % k == 0]
    stride = draw(st.sampled_from(divisors))
    doc = {
        "sim.d": d,
        "sim.N": draw(st.integers(1, 50)),
        "sim.n": draw(st.floats(0.0, 100.0)),
        "sim.drift_gain": draw(st.floats(0.01, 10.0)),
        "sim.noise_strength": noise,
        "sim.dt": dt,
        "sim.t_end": steps * dt,
        "sim.seed": draw(st.integers(0, 2**63)),
        "sim.mode": mode,
        "sim.truncation_radius": draw(optional(st.floats(0.01, 100.0))),
        "sim.shared_noise": draw(st.booleans()),
        "objective.name": draw(st.sampled_from(["quadratic", "rastrigin"])),
        "observable.variant": "saturated" if saturated else "identity",
        "observable.m_g": draw(st.floats(0.01, 10.0)) if saturated else 1.0,
        "kernel.variant": draw(st.sampled_from(VARIANTS)),
        "kernel.a": a,
        "kernel.b": b,
        "kernel.theta": theta,
        "init.spatial": spatial,
        "init.center": draw(st.lists(coordinate, min_size=d, max_size=d)),
        "init.spread": draw(st.floats(0.0 if spatial == "point" else 0.01, 10.0)),
        "observers.stride": stride,
        "observers.snapshot_stride": draw(optional(
            st.sampled_from([k for k in divisors if k % stride == 0]))),
        "observers.ball_radii": draw(st.lists(st.floats(0.01, 100.0), unique=True,
                                              max_size=3)),
        "run.output_dir": draw(optional(st.sampled_from(["out", "runs/a"]))),
        "run.replicas": draw(st.integers(1, 4)),
    }
    if draw(st.booleans()):
        doc["init.lambda_value"] = draw(unit)
    else:
        low, high = sorted((draw(unit), draw(unit)))
        doc.update({"init.lambda": "uniform", "init.lambda_min": low, "init.lambda_max": high})
    checks = ["lambda_persistence"]
    if mode == "auxiliary":
        checks.append("mean_decay")
        if noise * noise * d < 2.0:
            checks.append("second_moment_bound")
    if doc["observers.snapshot_stride"] is not None and doc["observers.ball_radii"]:
        checks.append("mass_bound")
    doc["run.checks"] = draw(st.lists(st.sampled_from(checks), unique=True))
    return {key: value for key, value in doc.items() if value is not None}


@given(doc=flat_documents())
def test_a_rendered_document_states_its_experiment(doc):
    experiment = parse_flat_config(doc)
    rendered = flat_document(experiment)
    assert parse_flat_config(rendered) == experiment
    assert parse_flat_config(json.loads(json.dumps(rendered))) == experiment
    assert flat_document(experiment) == rendered


# ---------------------------------------------------------------------------
# the suite's own settings


def test_a_failing_property_is_reported_under_the_suites_warning_filters(tmp_path):
    # pytest with this repo's settings on one failing property test and one that
    # passes: the failure is reported with its example and the run goes on
    (tmp_path / "test_failing.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 5\n\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    env = {key: value for key, value in os.environ.items() if key != "PYTEST_ADDOPTS"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_failing.py::test_small" in run.stdout
    assert "Falsifying example" in run.stdout and "1 failed, 1 passed" in run.stdout
