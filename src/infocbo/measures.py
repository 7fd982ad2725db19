"""Discrete measures on R^d: the barycenter and the smoothed mass near the origin.

All measures here are finite collections of weighted atoms. Moments, mass
in a ball and Wasserstein-1 distances, which only the tests compute, live
in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import require_finite

MASS_TOL = 1e-12


class MeasureError(ValueError):
    """Invalid measure construction or parameter."""


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
        if not np.isfinite(masses).all():  # abs(nan - 1) > MASS_TOL is false
            raise MeasureError("masses must be finite")
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


def _alpha_profile(r: float, t: np.ndarray) -> np.ndarray:
    """Radial mollifier profile exp(1 - r^2/(r^2 - t^2)) for t < r, else 0:
    1 at t = 0, decaying smoothly to 0 at t = r."""
    out = np.zeros_like(t, dtype=float)
    inside = t < r
    out[inside] = np.exp(1.0 - r * r / (r * r - t[inside] ** 2))
    return out


def phi_r_expectation(r: float, measure: EmpiricalMeasure) -> float:
    """Expectation of the mollified indicator x -> _alpha_profile(r, ||x||)."""
    require_finite(MeasureError, r=r)
    if r <= 0:
        raise MeasureError("mollifier radius must be positive")
    norms = np.linalg.norm(measure.atoms, axis=1)
    return float(measure.masses @ _alpha_profile(r, norms))
