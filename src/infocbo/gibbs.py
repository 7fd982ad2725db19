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

from .measures import EmpiricalMeasure
from .objectives import (
    ObjectiveSpec,
    ObservableMap,
    eval_objective_batch,
    eval_observable_batch,
)
from .util import require_finite

__all__ = [
    "GibbsError",
    "ConsensusParams",
    "weighted_consensus",
    "consensus_from_energies",
    "drift",
    "cutoff_eta",
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
        require_finite(GibbsError, sharpness=self.sharpness)
        if self.sharpness < 0:
            raise GibbsError("sharpness must be nonnegative")


def _require_per_population(ok: np.ndarray, message: str) -> None:
    """Raise GibbsError unless ok holds; a stack names its first failing row."""
    if not ok.all():
        where = f" (replica {int(np.argmin(ok))})" if ok.ndim else ""
        raise GibbsError(message + where)


def _stabilized_weights(sharpness: float, energies: np.ndarray, prior):
    """Normalized weights along the last axis: one population, or a stack of
    them (energies (R, N)) sharing the prior, (N,) float64 masses or one
    scalar mass, finite and nonnegative.

    At sharpness > 0, float64 energies whose plain row minima are finite (so
    no NaN and no -inf anywhere) are weighted in one buffer: an energy of +inf
    gets exp(-inf) = 0, the zero the masked copy writes, and the in-place
    steps take the masked path's operations in its order with only the
    operands of * swapped, so the bits are the masked path's. Anything else,
    the errors included, takes the masked path.
    """
    if sharpness > 0.0 and energies.dtype == np.float64:
        lowest = energies.min(axis=-1, keepdims=True, initial=np.inf)  # inf for N = 0
        if np.isfinite(lowest).all():
            weights = energies - lowest
            weights *= -sharpness
            np.exp(weights, out=weights)
            weights *= prior
            weights /= _total(weights)
            return weights
    finite = np.isfinite(energies)
    _require_per_population(
        finite.any(axis=-1), "every atom has infinite energy; weights are undefined"
    )
    if sharpness == 0.0:
        # exp(-0 * E) = 1 by convention, infinite energies included
        weights = np.broadcast_to(prior, energies.shape).copy()
    else:
        # a +-0 lowest gives the same weights: exp(-n * +-0) = 1
        lowest = energies.min(axis=-1, keepdims=True, where=finite, initial=np.inf)
        weights = prior * np.exp(-sharpness * (energies - lowest))
        np.copyto(weights, 0.0, where=~finite)
    return weights / _total(weights)


def _total(weights: np.ndarray) -> np.ndarray:
    """The sums of weights along the last axis, kept as an axis; each must be > 0."""
    total = weights.sum(axis=-1, keepdims=True)
    _require_per_population(
        total[..., 0] > 0.0, "all weights vanished; atoms carry no usable mass"
    )
    return total


def consensus_from_energies(
    params: ConsensusParams,
    atoms: np.ndarray,
    masses,
    energies: np.ndarray,
) -> np.ndarray:
    """Weighted consensus given precomputed energies (the hot path).

    masses is (N,), or one scalar for equal masses. A stack of populations
    (atoms (R, N, d), energies (R, N)) sharing the masses gets one consensus
    row per population, each equal bit for bit to the consensus of that
    population alone.
    """
    weights = _stabilized_weights(params.sharpness, energies, masses)
    atoms = np.asarray(atoms, dtype=float)
    flat = atoms.reshape(-1, atoms.shape[-1])
    observed = eval_observable_batch(params.observable, flat).reshape(atoms.shape)
    return (weights[..., None, :] @ observed)[..., 0, :]


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
    lam scalar), a batch (x: (N, d), lam: (N,)) or a stack of batches
    (x: (R, N, d), lam: (R, N)) with targets of shape (R, 1, d); the
    targets and lam broadcast against x, whose shape the result has. Each
    coordinate column is computed on its own, in the broadcast expression's
    order, with -x + y taken as y - x: IEEE subtraction adds the negation,
    so the bits are numpy's.
    """
    x = np.asarray(x, dtype=float)
    f_val = None if f_val is None else np.asarray(f_val, dtype=float)
    e_val = np.asarray(e_val, dtype=float)
    d = x.shape[-1]
    if e_val.shape[-1:] != (d,) or (f_val is not None and f_val.shape[-1:] != (d,)):
        raise GibbsError("consensus and mean points must match the state dimension")
    lam = np.asarray(lam, dtype=float)
    stay = 1.0 - lam
    out = np.empty(x.shape)
    for k in range(d):  # per column: numpy is slow to broadcast along a short axis
        if f_val is None:
            np.subtract(stay * e_val[..., k], x[..., k], out=out[..., k])
        else:
            np.add(lam * f_val[..., k] - x[..., k], stay * e_val[..., k], out=out[..., k])
    return out


def _bump_tail(t: float) -> float:
    # exp(-1/t) extended by 0 for t <= 0; smooth at the splice
    return math.exp(-1.0 / t) if t > 0.0 else 0.0


def cutoff_eta(radius: float, z: float) -> float:
    """Smooth cutoff in the scalar z: 1 on (-inf, R], 0 on [R+1, inf).

    eta_R(z) = h(R+1-z) / (h(R+1-z) + h(z-R)) with h(t) = exp(-1/t) 1_{t>0};
    the two branches overlap only on (R, R+1), where both are positive.
    """
    require_finite(GibbsError, radius=radius, z=z)
    if radius <= 0:
        raise GibbsError("cutoff radius must be positive")
    if z <= radius:
        return 1.0
    if z >= radius + 1.0:
        return 0.0
    up = _bump_tail(radius + 1.0 - z)
    down = _bump_tail(z - radius)
    return up / (up + down)
