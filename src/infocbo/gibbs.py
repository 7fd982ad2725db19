"""Consensus functionals: Gibbs-weighted observable, mean operator, drift field.

The weighted consensus at sharpness n averages g under weights proportional
to exp(-n E). Weights are always computed after subtracting the smallest
finite energy, which leaves every ratio unchanged and keeps the exponentials
in range for any n; it also makes the consensus exactly invariant under
energy shifts E -> E + c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, mean_point, moment_p
from .objectives import (
    ObjectiveSpec,
    ObservableMap,
    eval_objective_batch,
    eval_observable_batch,
)

__all__ = [
    "GibbsError",
    "ConsensusParams",
    "DriftParams",
    "gibbs_weights",
    "weighted_consensus",
    "consensus_from_energies",
    "mean_point",
    "drift",
    "cutoff_eta",
    "cutoff_phi_measure",
    "truncated_drift",
]


class GibbsError(ValueError):
    """Degenerate weight request or invalid parameters."""


@dataclass(frozen=True)
class ConsensusParams:
    """Sharpness n >= 0 (real-valued), objective, and observable map."""

    sharpness: float
    objective: ObjectiveSpec
    observable: ObservableMap

    def __post_init__(self) -> None:
        if not (self.sharpness >= 0) or not math.isfinite(self.sharpness):
            raise GibbsError("sharpness must be a finite nonnegative real")


@dataclass(frozen=True)
class DriftParams:
    """Drift gain (nu > 0) and noise strength (sigma >= 0) of the dynamics."""

    drift_gain: float = 1.0
    noise_strength: float = 0.0

    def __post_init__(self) -> None:
        if self.drift_gain <= 0:
            raise GibbsError("drift gain must be positive")
        if self.noise_strength < 0:
            raise GibbsError("noise strength must be nonnegative")

    def contraction_margin(self, dimension: int) -> float:
        """2 - sigma^2 d. Concentration diagnostics need this positive."""
        return 2.0 - self.noise_strength**2 * dimension


def _stabilized_weights(sharpness: float, energies: np.ndarray, prior: np.ndarray):
    finite = np.isfinite(energies)
    if not finite.any():
        raise GibbsError("every atom has infinite energy; weights are undefined")
    if sharpness == 0.0:
        # exp(-0 * E) = 1 by convention, infinite energies included
        weights = prior.copy()
    else:
        shifted = energies - energies[finite].min()
        weights = np.zeros_like(prior)
        weights[finite] = prior[finite] * np.exp(-sharpness * shifted[finite])
    total = weights.sum()
    if total <= 0.0:
        raise GibbsError("all weights vanished; atoms carry no usable mass")
    return weights / total


def gibbs_weights(params: ConsensusParams, points: np.ndarray) -> np.ndarray:
    """Normalized weights exp(-n E(x_i)) / sum_j exp(-n E(x_j)).

    Atoms at infinite energy get weight 0 (for n > 0); if every atom is
    infinite the request is degenerate and raises.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    energies = eval_objective_batch(params.objective, points)
    prior = np.full(points.shape[0], 1.0 / points.shape[0])
    return _stabilized_weights(params.sharpness, energies, prior)


def consensus_from_energies(
    params: ConsensusParams,
    atoms: np.ndarray,
    masses: np.ndarray,
    energies: np.ndarray,
) -> np.ndarray:
    """Weighted consensus given precomputed energies (the hot path)."""
    weights = _stabilized_weights(params.sharpness, energies, masses)
    return weights @ eval_observable_batch(params.observable, atoms)


def weighted_consensus(params: ConsensusParams, measure: EmpiricalMeasure) -> np.ndarray:
    """Gibbs-weighted observable average over the measure's atoms."""
    if measure.dimension != params.objective.dimension:
        raise GibbsError("measure dimension does not match the objective")
    energies = eval_objective_batch(params.objective, measure.atoms)
    return consensus_from_energies(params, measure.atoms, measure.masses, energies)


def drift(x: np.ndarray, lam, f_val: np.ndarray | None, e_val: np.ndarray) -> np.ndarray:
    """Drift field -x + lam * f + (1 - lam) * e.

    f_val None drops the consensus term, which gives the consensus-free
    (auxiliary) field -x + (1 - lam) * e. Accepts a single point (x: (d,),
    lam scalar) or a batch (x: (N, d), lam: (N,)).
    """
    x = np.asarray(x, dtype=float)
    f_val = None if f_val is None else np.asarray(f_val, dtype=float)
    e_val = np.asarray(e_val, dtype=float)
    d = x.shape[-1]
    if e_val.shape != (d,) or (f_val is not None and f_val.shape != (d,)):
        raise GibbsError("consensus and mean points must match the state dimension")
    lam = np.asarray(lam, dtype=float)
    if x.ndim == 2:
        lam = lam.reshape(-1, 1)
    pull = -x if f_val is None else -x + lam * f_val
    return pull + (1.0 - lam) * e_val


def _bump_tail(t: float) -> float:
    # exp(-1/t) extended by 0 for t <= 0; smooth at the splice
    return math.exp(-1.0 / t) if t > 0.0 else 0.0


def cutoff_eta(radius: float, z: float) -> float:
    """Smooth cutoff in the scalar z: 1 on (-inf, R], 0 on [R+1, inf).

    eta_R(z) = h(R+1-z) / (h(R+1-z) + h(z-R)) with h(t) = exp(-1/t) 1_{t>0};
    the two branches overlap only on (R, R+1), where both are positive.
    """
    if radius <= 0:
        raise GibbsError("cutoff radius must be positive")
    if z <= radius:
        return 1.0
    if z >= radius + 1.0:
        return 0.0
    up = _bump_tail(radius + 1.0 - z)
    down = _bump_tail(z - radius)
    return up / (up + down)


def cutoff_phi_measure(radius: float, measure: EmpiricalMeasure) -> float:
    """Cutoff evaluated at the first moment of the measure."""
    return cutoff_eta(radius, moment_p(measure, 1))


def truncated_drift(
    radius: float,
    params: ConsensusParams,
    measure: EmpiricalMeasure,
    x: np.ndarray,
    lam,
) -> np.ndarray:
    """Drift with both attraction targets scaled by the measure cutoff."""
    phi = cutoff_phi_measure(radius, measure)
    f_val = phi * weighted_consensus(params, measure)
    e_val = phi * mean_point(measure)
    return drift(x, lam, f_val, e_val)
