import math

import numpy as np
import pytest

from infocbo.objectives import (
    ObjectiveError,
    ObservableMap,
    custom_objective,
    eval_objective_batch,
    eval_observable_batch,
    quadratic,
    rastrigin_like,
    verify_growth,
)
from infocbo.util import rng_from_seed


def test_quadratic_is_squared_norm():
    spec = quadratic(2)
    assert eval_objective_batch(spec, np.array([[3.0, 4.0]]))[0] == 25.0
    assert eval_objective_batch(spec, np.zeros((1, 2)))[0] == 0.0
    assert (spec.c2, spec.c3, spec.growth_exponent) == (1.0, 1.0, 2.0)


def test_rastrigin_like_hand_values():
    spec = rastrigin_like(1)
    assert eval_objective_batch(spec, np.zeros((1, 1)))[0] == 0.0
    # t^2 + 10(1 - cos 2 pi t) at t = 1/2
    assert eval_objective_batch(spec, np.array([[0.5]]))[0] == pytest.approx(20.25)
    assert spec.c3 == 1.0 + 20.0


def test_rastrigin_like_declares_dimension_dependent_upper_constant():
    assert rastrigin_like(3).c3 == 61.0


def test_objectives_vanish_at_zero_exactly():
    for spec in (quadratic(1), quadratic(4), rastrigin_like(2), rastrigin_like(5)):
        assert eval_objective_batch(spec, np.zeros((1, spec.dimension)))[0] == 0.0


@pytest.mark.parametrize("dimension", [2.5, True, "2", 0])
def test_objective_dimension_is_a_whole_number(dimension):
    with pytest.raises(ObjectiveError, match="^dimension must be a whole number >= 1"):
        quadratic(dimension)


def test_an_integral_float_dimension_is_stored_as_an_int():
    spec = quadratic(2.0)
    assert spec.dimension == 2 and type(spec.dimension) is int
    assert spec == quadratic(2)


def test_batch_evaluation_matches_pointwise():
    rng = rng_from_seed(2)
    pts = rng.standard_normal((40, 3))
    for spec in (quadratic(3), rastrigin_like(3)):
        batch = eval_objective_batch(spec, pts)
        single = np.array([eval_objective_batch(spec, p[None])[0] for p in pts])
        assert np.allclose(batch, single, rtol=0, atol=0)


@pytest.mark.parametrize("spec", [quadratic(2), rastrigin_like(2), quadratic(5)])
def test_builtin_growth_envelopes_hold(spec):
    report = verify_growth(spec, sample_count=1000, radius=10.0, rng_seed=0)
    assert report.ok
    assert report.violations == ()


def test_growth_audit_flags_an_overstated_lower_constant():
    bogus = custom_objective(
        "overstated",
        2,
        lambda x: float(np.dot(x, x)),
        c2=2.0,
        c3=1.0,
        growth_exponent=2.0,
    )
    report = verify_growth(bogus, sample_count=500, radius=10.0, rng_seed=0)
    assert not report.ok
    assert len(report.violations) > 0


def test_custom_objective_must_vanish_at_origin():
    with pytest.raises(ObjectiveError):
        custom_objective("shifted", 1, lambda x: float(x[0] ** 2) + 1.0, c2=1.0, c3=2.0, growth_exponent=2.0)


def test_custom_objective_constants_must_be_positive():
    with pytest.raises(ObjectiveError):
        custom_objective("bad", 1, lambda x: float(x[0] ** 2), c2=0.0, c3=1.0, growth_exponent=2.0)


@pytest.mark.parametrize("name", ["c2", "c3", "growth_exponent"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_growth_constants_must_be_finite(name, value):
    # a NaN envelope fails every comparison, so the audit would find no violation
    declared = {"c2": 1.0, "c3": 1.0, "growth_exponent": 2.0, name: value}
    with pytest.raises(ObjectiveError, match=f"{name} must be finite"):
        custom_objective("quad", 2, lambda p: np.sum(p * p, axis=-1), vectorized=True,
                         **declared)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_growth_audit_radius_must_be_finite(radius):
    lying = custom_objective("overclaimed_quadratic", 2, lambda p: np.sum(p * p, axis=-1),
                             c2=2.0, c3=1.0, growth_exponent=2.0, vectorized=True)
    with pytest.raises(ObjectiveError, match="radius must be finite"):
        verify_growth(lying, sample_count=500, radius=radius)


@pytest.mark.parametrize("sample_count", [2.5, math.nan, True])
def test_growth_audit_sample_count_must_be_whole(sample_count):
    with pytest.raises(ObjectiveError, match="whole sample_count"):
        verify_growth(quadratic(2), sample_count=sample_count)


def test_growth_audit_takes_an_integral_float_count():
    report = verify_growth(quadratic(2), sample_count=20.0)
    assert report.ok and report.sample_count == 20 and type(report.sample_count) is int


def test_custom_pointwise_function_is_vectorized_by_wrapper():
    spec = custom_objective(
        "quartic",
        2,
        lambda x: float(np.dot(x, x) ** 2),
        c2=1.0,
        c3=1.0,
        growth_exponent=4.0,
    )
    pts = rng_from_seed(3).standard_normal((10, 2))
    assert np.allclose(eval_objective_batch(spec, pts), (pts**2).sum(axis=1) ** 2)


# ---------------------------------------------------------------------------
# observable maps


def test_identity_observable_returns_input():
    obs = ObservableMap()
    x = np.array([1.0, 2.0])
    assert np.array_equal(eval_observable_batch(obs, x[None])[0], x)


def test_saturated_observable_hand_values():
    obs = ObservableMap(variant="saturated", m_g=2.0)
    assert np.array_equal(eval_observable_batch(obs, np.zeros((1, 2)))[0], np.zeros(2))
    assert eval_observable_batch(obs, np.array([[3.0, 0.0]]))[0] == pytest.approx([1.5, 0.0])


def test_saturated_observable_norm_stays_below_its_cap():
    obs = ObservableMap(variant="saturated", m_g=1.0)
    pts = rng_from_seed(4).standard_normal((200, 3)) * 10.0
    norms = np.linalg.norm(eval_observable_batch(obs, pts), axis=1)
    assert np.all(norms < obs.m_g)


def test_identity_observable_rejects_rescaling():
    with pytest.raises(ObjectiveError):
        ObservableMap(variant="identity", m_g=2.0)


@pytest.mark.parametrize("variant", ["identity", "saturated"])
@pytest.mark.parametrize("m_g", [math.nan, math.inf])
def test_observable_rejects_nonfinite_bound(variant, m_g):
    with pytest.raises(ObjectiveError, match="m_g must be finite"):
        ObservableMap(variant=variant, m_g=m_g)


def test_unknown_observable_variant_is_rejected():
    with pytest.raises(ObjectiveError):
        ObservableMap(variant="clip")


def test_observable_batch_matches_pointwise():
    obs = ObservableMap(variant="saturated", m_g=1.5)
    pts = rng_from_seed(6).standard_normal((20, 4))
    batch = eval_observable_batch(obs, pts)
    single = np.stack([eval_observable_batch(obs, p[None])[0] for p in pts])
    assert np.allclose(batch, single, rtol=0, atol=0)
