"""Discrete measures on R^d: moments, Wasserstein-1 distances, smoothed mass.

All measures here are finite collections of weighted atoms. The W1 routines
offer an exact path where a tractable algorithm exists (sorted CDF coupling in
one dimension, optimal assignment for small uniform ensembles) and a sliced
Monte Carlo surrogate everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import rng_from_seed, row_sum

MASS_TOL = 1e-12

# Hungarian assignment is cubic in the atom count; refuse silly sizes.
ASSIGNMENT_LIMIT = 256


class MeasureError(ValueError):
    """Invalid measure construction or unsupported distance request."""


@dataclass
class EmpiricalMeasure:
    """Probability measure sum_i masses[i] * delta(atoms[i]).

    atoms: (n, d) array; a 1-d array of length n is promoted to (n, 1).
    masses: (n,) nonnegative, summing to 1 within MASS_TOL.
    """

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] == 0:
            raise MeasureError("atoms must form a nonempty (n, d) array")
        masses = np.asarray(self.masses, dtype=float)
        if masses.shape != (atoms.shape[0],):
            raise MeasureError("masses must be a vector matching the atom count")
        if np.any(masses < 0):
            raise MeasureError("masses must be nonnegative")
        total = float(masses.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(f"masses sum to {total!r}, expected 1 within {MASS_TOL}")
        self.atoms = atoms
        self.masses = masses

    @classmethod
    def uniform(cls, atoms: np.ndarray) -> "EmpiricalMeasure":
        atoms = np.asarray(atoms, dtype=float)
        n = atoms.shape[0]
        return cls(atoms, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @property
    def dimension(self) -> int:
        return self.atoms.shape[1]


def mean_point(measure: EmpiricalMeasure) -> np.ndarray:
    """Barycenter sum_i masses[i] * atoms[i]."""
    return measure.masses @ measure.atoms


def moment_p(measure: EmpiricalMeasure, p: float) -> float:
    """(sum_i masses[i] * ||atoms[i]||^p)^(1/p) for p >= 1."""
    if p < 1:
        raise MeasureError("moment order must satisfy p >= 1")
    norms = np.linalg.norm(measure.atoms, axis=1)
    return float((measure.masses @ norms**p) ** (1.0 / p))


def _w1_sorted_1d(x1, m1, x2, m2) -> float:
    # integral of |F1 - F2| over the merged support
    pos = np.concatenate([x1, x2])
    delta = np.concatenate([m1, -m2])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    cdf_gap = np.cumsum(delta[order])
    return float(np.abs(cdf_gap[:-1]) @ np.diff(pos))


def w1_exact(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """Exact Wasserstein-1 distance where an exact algorithm is available.

    d = 1: quantile (sorted CDF) coupling, any atom counts and masses.
    d >= 2: optimal assignment, equal atom counts <= ASSIGNMENT_LIMIT with
    uniform masses on both sides, and scipy (the extra infocbo[exact]).
    Anything else raises; use w1_sliced there.
    """
    if mu1.dimension != mu2.dimension:
        raise MeasureError("measures live in different dimensions")
    if mu1.dimension == 1:
        return _w1_sorted_1d(
            mu1.atoms[:, 0], mu1.masses, mu2.atoms[:, 0], mu2.masses
        )
    if mu1.size != mu2.size:
        raise MeasureError(
            "exact W1 in d >= 2 needs equal atom counts; use w1_sliced"
        )
    if mu1.size > ASSIGNMENT_LIMIT:
        raise MeasureError(
            f"exact W1 in d >= 2 capped at {ASSIGNMENT_LIMIT} atoms; use w1_sliced"
        )
    uniform = 1.0 / mu1.size
    if np.any(np.abs(mu1.masses - uniform) > MASS_TOL) or np.any(
        np.abs(mu2.masses - uniform) > MASS_TOL
    ):
        raise MeasureError(
            "exact W1 in d >= 2 needs uniform masses on both sides; use w1_sliced"
        )
    try:  # imported here: the package itself needs no scipy and loads none
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist
    except ImportError as exc:
        raise MeasureError("exact W1 in d >= 2 needs scipy, which the extra "
                           "infocbo[exact] installs; or use w1_sliced") from exc

    cost = cdist(mu1.atoms, mu2.atoms)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


@dataclass(frozen=True)
class SlicedW1:
    value: float
    stderr: float
    projection_count: int


def w1_sliced(
    mu1: EmpiricalMeasure,
    mu2: EmpiricalMeasure,
    projection_count: int = 128,
    rng_seed: int = 0,
) -> SlicedW1:
    """Monte Carlo surrogate: mean exact 1-d W1 over random unit directions.

    A surrogate, not the distance itself; the standard error quantifies the
    projection noise only.
    """
    if mu1.dimension != mu2.dimension:
        raise MeasureError("measures live in different dimensions")
    if projection_count < 2:
        raise MeasureError("need at least 2 projections for a standard error")
    rng = rng_from_seed(rng_seed)
    directions = rng.standard_normal((projection_count, mu1.dimension))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    proj1 = mu1.atoms @ directions.T
    proj2 = mu2.atoms @ directions.T
    values = np.array(
        [
            _w1_sorted_1d(proj1[:, k], mu1.masses, proj2[:, k], mu2.masses)
            for k in range(projection_count)
        ]
    )
    return SlicedW1(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(projection_count)),
        projection_count=projection_count,
    )


def _alpha_profile(r: float, t: np.ndarray) -> np.ndarray:
    """Radial mollifier profile exp(1 - r^2/(r^2 - t^2)) for t < r, else 0:
    1 at t = 0, decaying smoothly to 0 at t = r."""
    out = np.zeros_like(t, dtype=float)
    inside = t < r
    out[inside] = np.exp(1.0 - r * r / (r * r - t[inside] ** 2))
    return out


def phi_r_expectation(r: float, measure: EmpiricalMeasure) -> float:
    """Expectation of the mollified indicator x -> _alpha_profile(r, ||x||)."""
    if r <= 0:
        raise MeasureError("mollifier radius must be positive")
    norms = np.linalg.norm(measure.atoms, axis=1)
    return float(measure.masses @ _alpha_profile(r, norms))


def mass_in_ball(measure: EmpiricalMeasure, r: float) -> float:
    """Mass of the open ball {||x|| < r}, decided as ||x||^2 < r * r on
    squared norms: the rule the trajectory recorder counts by."""
    if r <= 0:
        raise MeasureError("ball radius must be positive")
    norms_sq = row_sum(measure.atoms * measure.atoms)
    return float(measure.masses[norms_sq < r * r].sum())
