import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from infocbo import validation
from infocbo.diagnostics import DiagnosticsError, g_phi_replica_residuals, gaussian_bump
from infocbo.infokernel import KernelError, KernelSpec, check_kernel_contract
from infocbo.objectives import ObjectiveError, ObservableMap, quadratic, verify_growth
from infocbo.sde import ConfigError, InitialLaw
from infocbo.util import (GENERATOR_NAME, derive_seed, format_float, is_real, is_whole, jsonable,
                          rng_from_seed)


def test_generator_name_matches_bit_generator():
    rng = rng_from_seed(7)
    assert GENERATOR_NAME == "numpy.random.Philox"
    assert type(rng.bit_generator).__name__ == "Philox"


def test_rng_streams_repeat_for_equal_seeds():
    a = rng_from_seed(123).standard_normal(16)
    b = rng_from_seed(123).standard_normal(16)
    assert np.array_equal(a, b)


def test_rng_streams_differ_for_different_seeds():
    a = rng_from_seed(1).standard_normal(16)
    b = rng_from_seed(2).standard_normal(16)
    assert not np.array_equal(a, b)


def test_derive_seed_is_stable():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 1) == derive_seed(42, 1)


def test_derive_seed_separates_indices_and_masters():
    seeds = {derive_seed(9, i) for i in range(64)}
    assert len(seeds) == 64
    assert derive_seed(9, 0) != derive_seed(10, 0)
    for s in seeds:
        assert 0 <= s < 2**64


def test_derive_seed_not_a_trivial_offset():
    # a counter-style master+index sum would collide across replicas
    assert derive_seed(5, 1) != derive_seed(6, 0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_a_seed_outside_64_bits_is_refused_not_aliased(seed):
    # read modulo 2**64, -1 would run the stream of 2**64 - 1 and 2**64 that of 0
    message = re.escape(f"must lie in [0, 2**64), got {seed}")
    with pytest.raises(ValueError, match="^seed " + message):
        rng_from_seed(seed)
    with pytest.raises(ValueError, match="^seed " + message):
        derive_seed(seed, 0)
    with pytest.raises(ValueError, match="^stream index " + message):
        derive_seed(0, seed)
    assert rng_from_seed(2**64 - 1).integers(2**62) != rng_from_seed(0).integers(2**62)


@pytest.mark.parametrize("seed", [1.5, True, "7"])
def test_a_seed_that_is_not_a_whole_number_is_refused_not_cast(seed):
    # int() would run 1.5 and True as seed 1 and "7" as seed 7
    message = re.escape(f"must be a whole number, got {seed!r}")
    with pytest.raises(ValueError, match="^seed " + message):
        rng_from_seed(seed)
    with pytest.raises(ValueError, match="^seed " + message):
        derive_seed(seed, 0)
    with pytest.raises(ValueError, match="^stream index " + message):
        derive_seed(0, seed)
    assert derive_seed(7.0, 2) == derive_seed(7, 2)


seed_entry_points = pytest.mark.parametrize("run", [
    lambda seed: verify_growth(quadratic(2), sample_count=10, rng_seed=seed),
    lambda seed: check_kernel_contract(KernelSpec("logistic", a=1.0), rng_seed=seed),
    lambda seed: g_phi_replica_residuals(validation.meanfield_config(), [0, seed, 1],
                                         gaussian_bump(1.0)),
], ids=["verify_growth", "check_kernel_contract", "g_phi_replica_residuals"])


@seed_entry_points
def test_every_seed_taking_entry_point_refuses_a_seed_outside_64_bits(run):
    with pytest.raises(ValueError, match=re.escape("seed must lie in [0, 2**64), got -1")):
        run(-1)


@seed_entry_points
@pytest.mark.parametrize("seed", [1.5, True, "7"])
def test_every_seed_taking_entry_point_refuses_a_seed_that_is_not_a_whole_number(run, seed):
    # check_kernel_contract ran rng_seed=2.7 as seed 2 when int() read it
    with pytest.raises(ValueError, match=re.escape(f"seed must be a whole number, got {seed!r}")):
        run(seed)


@pytest.mark.parametrize("x", [0.0, 1.0, -1.5, 0.1, math.pi, 1e-300, 1e300, 2.0 / 3.0])
def test_format_float_roundtrips(x):
    assert float(format_float(x)) == x


def test_format_float_uses_17_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"


def test_jsonable_handles_numpy_and_nested_containers():
    blob = jsonable({"a": np.float64(0.5), "b": np.arange(3), "c": (np.int64(2), [np.True_])})
    text = json.dumps(blob)
    assert json.loads(text) == {"a": 0.5, "b": [0, 1, 2], "c": [2, [True]]}


@pytest.mark.parametrize("value, whole", [
    (2, True), (2.0, True), (-3, True), (np.int64(4), True), (np.float64(5.0), True),
    (2.5, False), (math.inf, False), (math.nan, False), (True, False), (np.True_, False),
    ("2", False), (None, False),
])
def test_whole_numbers_are_ints_and_integral_floats_never_bools(value, whole):
    assert is_whole(value) is whole


@pytest.mark.parametrize("value, real", [
    (2, True), (2.5, True), (np.int64(4), True), (np.float64(0.5), True), (math.nan, True),
    (True, False), (np.True_, False), ("2", False), (None, False), (1j, False),
])
def test_real_numbers_are_ints_and_floats_never_bools_or_strings(value, real):
    assert is_real(value) is real


@pytest.mark.parametrize("build, error", [
    (lambda v: replace(validation.decay_config(), noise_strength=v), ConfigError),
    (lambda v: InitialLaw.gaussian(center=(0.0,), sigma=v), ConfigError),
    (lambda v: KernelSpec("logistic", a=v), KernelError),
    (lambda v: ObservableMap("saturated", m_g=v), ObjectiveError),
    (lambda v: replace(quadratic(2), c2=v), ObjectiveError),
    (gaussian_bump, DiagnosticsError),
], ids=["SimConfig", "InitialLaw", "KernelSpec", "ObservableMap", "ObjectiveSpec",
        "gaussian_bump"])
@pytest.mark.parametrize("value", [True, "1", math.nan, pytest.param(10**400, id="past_float")])
def test_a_parameter_must_be_a_finite_real_where_it_enters(build, error, value):
    # a bool would run as 0 or 1 and a string would fail later as a TypeError
    with pytest.raises(error, match=re.escape(f"must be finite and real, got {value!r}")):
        build(value)
