"""Reference computations that only the tests read.

The simulator never needs these: they are the quantities the paper's lemmas
are stated in, computed directly on one empirical measure so the tests can
hold the simulator against them.

- Moments, mass in a ball and the exact Wasserstein-1 distance, in which the
  consensus point is locally Lipschitz and the cutoff 2-Lipschitz.
- The Gibbs weights of a point cloud, over the stabilized weight kernel that
  the consensus uses.
- The truncated drift as the paper states it. The simulator computes it in
  sde.consensus_fields for every replica of a batch at once; here both
  attraction targets, the Gibbs consensus and the mean, are scaled by the
  cutoff eta_R at the measure's first moment.
- Two test functions for the weak-form residual: the constant, on which it
  vanishes, and a lambda-free coordinate window. Each fills the buffers it
  is given, as TestFunction.parts does.
- The Gaussian bump's parts with the lambda factor taken agent by agent,
  which gaussian_bump must match bit for bit when it takes the trig of a
  shared lambda once.
"""

import numpy as np

from infocbo.diagnostics import TestFunction
from infocbo.gibbs import _stabilized_weights, cutoff_eta, drift, weighted_consensus
from infocbo.measures import MASS_TOL, MeasureError, mean_point
from infocbo.objectives import eval_objective_batch
from infocbo.util import row_sum, scale_rows, sq_norm

# Hungarian assignment is cubic in the atom count; refuse silly sizes.
ASSIGNMENT_LIMIT = 256


def moment_p(measure, p):
    """(sum_i masses[i] * ||atoms[i]||^p)^(1/p) for p >= 1."""
    if p < 1:
        raise MeasureError("moment order must satisfy p >= 1")
    norms = np.linalg.norm(measure.atoms, axis=1)
    return float((measure.masses @ norms**p) ** (1.0 / p))


def mass_in_ball(measure, r):
    """Mass of the open ball {||x|| < r}, decided as ||x||^2 < r * r on
    squared norms: the rule the trajectory recorder counts by."""
    if r <= 0:
        raise MeasureError("ball radius must be positive")
    norms_sq = row_sum(measure.atoms * measure.atoms)
    return float(measure.masses[norms_sq < r * r].sum())


def _w1_sorted_1d(x1, m1, x2, m2):
    # integral of |F1 - F2| over the merged support
    pos = np.concatenate([x1, x2])
    delta = np.concatenate([m1, -m2])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    cdf_gap = np.cumsum(delta[order])
    return float(np.abs(cdf_gap[:-1]) @ np.diff(pos))


def w1_exact(mu1, mu2):
    """Exact Wasserstein-1 distance where an exact algorithm is available.

    d = 1: quantile (sorted CDF) coupling, any atom counts and masses.
    d >= 2: optimal assignment, equal atom counts <= ASSIGNMENT_LIMIT with
    uniform masses on both sides; only this path reads scipy. Anything else
    raises MeasureError.
    """
    if mu1.dimension != mu2.dimension:
        raise MeasureError("measures live in different dimensions")
    if mu1.dimension == 1:
        return _w1_sorted_1d(mu1.atoms[:, 0], mu1.masses, mu2.atoms[:, 0], mu2.masses)
    if mu1.size != mu2.size:
        raise MeasureError("exact W1 in d >= 2 needs equal atom counts")
    if mu1.size > ASSIGNMENT_LIMIT:
        raise MeasureError(f"exact W1 in d >= 2 capped at {ASSIGNMENT_LIMIT} atoms")
    uniform = 1.0 / mu1.size
    if np.any(np.abs(mu1.masses - uniform) > MASS_TOL) or np.any(
        np.abs(mu2.masses - uniform) > MASS_TOL
    ):
        raise MeasureError("exact W1 in d >= 2 needs uniform masses on both sides")
    try:
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist
    except ImportError:
        raise MeasureError(
            "exact W1 in d >= 2 needs scipy, which the extra infocbo[test] installs"
        ) from None
    cost = cdist(mu1.atoms, mu2.atoms)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def gibbs_weights(params, points):
    """Normalized weights exp(-n E(x_i)) / sum_j exp(-n E(x_j)).

    Atoms at infinite energy get weight 0 (for n > 0); if every atom is
    infinite the request is degenerate and raises GibbsError.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    energies = eval_objective_batch(params.objective, points)
    prior = np.full(points.shape[0], 1.0 / points.shape[0])
    return _stabilized_weights(params.sharpness, energies, prior)


def cutoff_phi_measure(radius, measure):
    """Cutoff evaluated at the first moment of the measure."""
    return cutoff_eta(radius, moment_p(measure, 1))


def truncated_drift(radius, params, measure, x, lam):
    """Drift with both attraction targets scaled by the measure cutoff."""
    phi = cutoff_phi_measure(radius, measure)
    f_val = phi * weighted_consensus(params, measure)
    e_val = phi * mean_point(measure)
    return drift(x, lam, f_val, e_val)


def constant_test_function():
    """phi = 1. Every weak-form residual vanishes identically on it."""

    def parts(x, lam, out):
        value, grad_x, grad_lambda, laplacian_x = out
        value.fill(1.0)
        for part in (grad_x, grad_lambda, laplacian_x):
            part.fill(0.0)
        return out

    return TestFunction(name="constant", parts=parts)


def coordinate_window():
    """phi(x) = prod_k 1 / (1 + x_k^2), independent of lambda.

    w = 1/(1+t^2) has w'/w = -2t/(1+t^2) and w''/w = (6t^2 - 2)/(1+t^2)^2,
    all bounded, which is what the product derivatives below use.
    """

    def parts(x, lam, out):
        value, grad_x, grad_lambda, laplacian_x = out
        w_inv = 1.0 + x * x
        np.prod(1.0 / w_inv, axis=1, out=value)
        scale_rows(value, -2.0 * x / w_inv, out=grad_x)
        grad_lambda.fill(0.0)
        np.multiply(value, np.sum((6.0 * x * x - 2.0) / w_inv**2, axis=1), out=laplacian_x)
        return out

    return TestFunction(name="coordinate_window", parts=parts)


def elementwise_bump_parts(scale, x, lam):
    """gaussian_bump(scale).evaluate(x, lam) as the formula reads, with
    cos(pi lam) and sin(pi lam) computed for every agent."""
    s2 = scale * scale
    norm_sq = sq_norm(x)
    radial = np.exp(-norm_sq / (2.0 * s2))
    value = radial * (0.5 * (1.0 + np.cos(np.pi * lam)))
    return (
        value,
        scale_rows(-value / s2, x),
        radial * (-0.5 * np.pi * np.sin(np.pi * lam)),
        value * (norm_sq / (s2 * s2) - x.shape[1] / s2),
    )
