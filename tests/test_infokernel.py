import math

import numpy as np
import pytest

from infocbo.infokernel import (
    VARIANTS,
    KernelError,
    KernelSpec,
    PopulationSummary,
    check_kernel_contract,
    eval_kernel,
    logistic_closed_form,
)
from infocbo.util import rng_from_seed

ORIGIN_SUMMARY = PopulationSummary(mean_x=np.zeros(2))


def summary_at(mean_x):
    return PopulationSummary(mean_x=np.asarray(mean_x, dtype=float))


# ---------------------------------------------------------------------------
# construction


def test_gain_must_be_strictly_positive():
    with pytest.raises(KernelError):
        KernelSpec(variant="logistic", a=0.0, b=1.0)


def test_decay_must_be_nonnegative():
    with pytest.raises(KernelError):
        KernelSpec(variant="logistic", a=1.0, b=-0.1)


def test_step_parameter_above_the_stability_bound_is_rejected():
    with pytest.raises(KernelError):
        KernelSpec(variant="logistic", a=1.0, b=1.0, theta=2.0 / (1.0 + 1.0))


def test_step_parameter_defaults_to_the_stability_bound():
    spec = KernelSpec(variant="logistic", a=1.0, b=3.0)
    assert spec.theta == pytest.approx(0.25)


@pytest.mark.parametrize("field", ["a", "b", "theta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_parameters_are_rejected(field, value):
    params = dict(a=1.0, b=1.0)
    params[field] = value
    with pytest.raises(KernelError, match=f"{field} must be finite"):
        KernelSpec(variant="crowd-coupled", **params)


def test_unknown_variant_is_rejected():
    with pytest.raises(KernelError):
        KernelSpec(variant="sigmoid", a=1.0, b=1.0)


# ---------------------------------------------------------------------------
# pointwise evaluation


def test_logistic_rate_at_zero_information_is_the_gain():
    k = KernelSpec(variant="logistic", a=1.0, b=1.0)
    assert eval_kernel(k, ORIGIN_SUMMARY, np.zeros(2), 0.0) == 1.0


def test_logistic_rate_balances_at_the_fixed_point():
    k = KernelSpec(variant="logistic", a=1.0, b=1.0)
    assert eval_kernel(k, ORIGIN_SUMMARY, np.zeros(2), 0.5) == 0.0


def test_crowd_coupled_rate_decays_with_distance_from_the_mean():
    k = KernelSpec(variant="crowd-coupled", a=2.0, b=0.0)
    x = np.array([1.0, 0.0])
    assert eval_kernel(k, summary_at([0.0, 0.0]), x, 0.0) == pytest.approx(1.0)


def test_logistic_rate_ignores_the_population():
    k = KernelSpec(variant="logistic", a=1.5, b=0.5)
    x = np.array([0.3, -0.7])
    near = eval_kernel(k, summary_at([0.0, 0.0]), x, 0.4)
    far = eval_kernel(k, summary_at([40.0, -3.0]), x, 0.4)
    assert near == far


def test_summary_from_arrays_is_the_given_mean():
    x = rng_from_seed(3).standard_normal((7, 2))
    given = np.array([0.25, -1.5])
    assert PopulationSummary.from_arrays(x, mean_x=given).mean_x is given


def test_stacked_summary_and_rate_match_each_population_alone():
    k = KernelSpec("crowd-coupled", a=1.0, b=0.5)
    rng = rng_from_seed(4)
    xs = rng.standard_normal((3, 5, 2))
    lams = rng.uniform(size=(3, 5))
    stacked = PopulationSummary.from_arrays(xs, mean_x=xs.mean(axis=1))
    rates = eval_kernel(k, stacked, xs, lams)
    for r in range(3):
        alone = PopulationSummary.from_arrays(xs[r], mean_x=xs[r].mean(axis=0))
        assert np.array_equal(stacked.mean_x[r], alone.mean_x)
        assert np.array_equal(rates[r], eval_kernel(k, alone, xs[r], lams[r]))


def test_crowd_coupled_rate_on_fortran_ordered_agents_is_the_broadcast():
    # from d = 8 np.sum's order follows the memory layout, so the gap it sums
    # must keep x's layout; a C-ordered gap gave other bits for these agents
    k = KernelSpec("crowd-coupled", a=2.0, b=0.5)
    rng = np.random.default_rng(3)
    x = np.asfortranarray(rng.standard_normal((2, 8)))
    lam = rng.random(2)
    summary = PopulationSummary.from_arrays(x, mean_x=x.mean(axis=0))
    gap = x - summary.mean_x
    want = (1.0 - lam) * k.a / (1.0 + np.sqrt(np.sum(gap * gap, axis=-1))) - k.b * lam
    assert eval_kernel(k, summary, x, lam).tobytes() == want.tobytes()


def test_information_outside_unit_interval_is_rejected():
    # the step path skips this check; a direct call enters here
    for variant in VARIANTS:
        k = KernelSpec(variant, a=1.0, b=1.0)
        for lam in (-0.2, -0.1, 1.1, 1.2, math.nan):
            with pytest.raises(KernelError, match="lambda outside"):
                eval_kernel(k, ORIGIN_SUMMARY, np.zeros(2), lam)
            with pytest.raises(KernelError, match="lambda outside"):
                eval_kernel(k, ORIGIN_SUMMARY, np.zeros((2, 2)), np.array([0.5, lam]))


@pytest.mark.parametrize(
    "variant,a,b",
    [("logistic", 1.0, 1.0), ("logistic", 3.0, 0.0), ("crowd-coupled", 2.0, 0.5)],
)
def test_rate_is_positive_at_empty_information_and_nonpositive_at_full(variant, a, b):
    k = KernelSpec(variant=variant, a=a, b=b)
    rng = rng_from_seed(16)
    for _ in range(50):
        x = rng.standard_normal(2) * 3.0
        s = summary_at(rng.standard_normal(2))
        assert eval_kernel(k, s, x, 0.0) > 0.0
        assert eval_kernel(k, s, x, 1.0) <= 0.0


# ---------------------------------------------------------------------------
# stable step


def test_stable_step_hand_values():
    assert KernelSpec(variant="logistic", a=1.0, b=1.0).theta == pytest.approx(0.5)
    assert KernelSpec(variant="logistic", a=2.0, b=0.0).theta == pytest.approx(0.5)
    assert KernelSpec(variant="logistic", a=0.1, b=0.0).theta == pytest.approx(10.0)


def test_explicit_euler_below_the_stable_step_never_leaves_the_interval():
    rng = rng_from_seed(17)
    for variant in ("logistic", "crowd-coupled"):
        k = KernelSpec(variant=variant, a=1.3, b=0.6)
        h = k.theta
        lam = float(rng.uniform(0.0, 1.0))
        for _ in range(10_000):
            s = summary_at(rng.standard_normal(2))
            x = rng.standard_normal(2) * 2.0
            lam = lam + h * eval_kernel(k, s, x, lam)
            assert 0.0 <= lam <= 1.0


# ---------------------------------------------------------------------------
# contract report


def test_logistic_contract_holds_with_the_analytic_lipschitz_bound():
    report = check_kernel_contract(KernelSpec(variant="logistic", a=1.0, b=1.0))
    assert report.ok
    assert report.t2_violations == 0
    assert report.t3_violations == 0
    assert report.t1_lipschitz_estimate <= 2.0 + 1e-9


def test_crowd_coupled_contract_holds():
    report = check_kernel_contract(KernelSpec(variant="crowd-coupled", a=1.0, b=1.0))
    assert report.ok
    assert report.t2_violations == 0
    assert report.t3_violations == 0
    assert np.isfinite(report.t1_lipschitz_estimate)


@pytest.mark.parametrize(
    "variant,seed,t1_hex",
    [("logistic", 0x5ACE, "0x1.68bbc39e8bcd7p+0"),
     ("crowd-coupled", 0x5ACE + 1, "0x1.9f925fed91d2cp-1")],
)
def test_contract_reports_keep_their_bits(variant, seed, t1_hex):
    # the contracts suite's two reports; every draw of a trial moves them
    report = check_kernel_contract(KernelSpec(variant, a=1.0, b=1.0), rng_seed=seed)
    assert report.t1_lipschitz_estimate.hex() == t1_hex
    assert (report.trial_count, report.t2_violations, report.t3_violations) == (2000, 0, 0)


@pytest.mark.parametrize(
    "variant,a,b,theta,t2,t3",
    [("logistic", 1.0, 1.0, 2.0, 1380, 0),  # a step past 1 / (a + b) leaves [0, 1]
     ("crowd-coupled", 0.0, 0.5, 1.0, 0, 2000)],  # no gain: T = 0 at lambda = 0
)
def test_contract_counts_the_violations_its_constructor_refuses(variant, a, b, theta, t2, t3):
    # KernelSpec refuses both kernels, so they are built past its checks
    kernel = object.__new__(KernelSpec)
    for name, value in dict(variant=variant, a=a, b=b, theta=theta).items():
        object.__setattr__(kernel, name, value)
    report = check_kernel_contract(kernel, rng_seed=0)
    assert (report.t2_violations, report.t3_violations) == (t2, t3)
    assert not report.ok


def test_contract_report_is_deterministic_in_the_seed():
    k = KernelSpec(variant="crowd-coupled", a=0.8, b=0.2)
    r1 = check_kernel_contract(k, rng_seed=5)
    r2 = check_kernel_contract(k, rng_seed=5)
    assert r1 == r2


# ---------------------------------------------------------------------------
# closed-form relaxation


def test_closed_form_starts_at_the_initial_value():
    k = KernelSpec(variant="logistic", a=1.0, b=1.0)
    assert logistic_closed_form(k, 0.2, 0.0) == pytest.approx(0.2)


def test_closed_form_limits_at_the_balance_point():
    k = KernelSpec(variant="logistic", a=3.0, b=1.0)
    assert logistic_closed_form(k, 0.1, 100.0) == pytest.approx(0.75)


def test_closed_form_is_vectorized_over_time():
    k = KernelSpec(variant="logistic", a=1.0, b=0.0)
    t = np.array([0.0, 1.0, 2.0])
    vals = logistic_closed_form(k, 0.0, t)
    assert vals == pytest.approx(1.0 - np.exp(-t))


def test_euler_relaxation_tracks_the_closed_form_to_first_order():
    k = KernelSpec(variant="logistic", a=1.0, b=1.0)
    dt = 0.05
    steps = int(round(5.0 / dt))
    lam = 0.0
    worst = 0.0
    for i in range(1, steps + 1):
        lam = lam + dt * (k.a * (1.0 - lam) - k.b * lam)
        worst = max(worst, abs(lam - float(logistic_closed_form(k, 0.0, i * dt))))
    assert worst <= 2.0 * dt
