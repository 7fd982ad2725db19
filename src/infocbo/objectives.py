"""Objective catalog with machine-checkable growth metadata, plus observables.

Every objective carries the constants of its two-sided growth envelope

    c2 * ||x||^p  <=  E(x)  <=  c3 * (1 + ||x||^p)

with the minimizer normalized to the origin (E(0) = 0). The envelope is not
taken on faith: verify_growth samples it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .util import (apply_field_rules, is_whole, require_finite, rng_from_seed, row_sum,
                   sq_norm, uniform_ball)

GROWTH_RTOL = 1e-9


class ObjectiveError(ValueError):
    """Malformed objective or evaluation request."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """An objective E: R^d -> [0, inf) plus its declared growth envelope.

    fn maps an (m, d) batch of points to an (m,) array of energies.
    growth_exponent is the shared exponent p of both envelope sides; c2 and
    c3 are the lower and upper constants.
    """

    name: str
    dimension: int
    c2: float
    c3: float
    growth_exponent: float
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (is_whole(self.dimension) and self.dimension >= 1):
            raise ObjectiveError(f"dimension must be a whole number >= 1, got {self.dimension!r}")
        apply_field_rules(self, ObjectiveError)  # name and constants by kind; 2.0 stored as 2
        if self.c2 <= 0 or self.c3 <= 0:
            raise ObjectiveError("growth constants c2, c3 must be positive")
        if self.growth_exponent < 0:
            raise ObjectiveError("growth exponent must be nonnegative")
        at_origin = float(
            np.asarray(self.fn(np.zeros((1, self.dimension)))).reshape(-1)[0]
        )
        if at_origin != 0.0:
            raise ObjectiveError(
                f"objective {self.name!r} must vanish at the origin, got {at_origin!r}"
            )


def quadratic(dimension: int) -> ObjectiveSpec:
    """E(x) = ||x||^2. Envelope is tight: c2 = c3 = 1, exponent 2."""
    return ObjectiveSpec(
        name="quadratic",
        dimension=dimension,
        c2=1.0,
        c3=1.0,
        growth_exponent=2.0,
        fn=sq_norm,
    )


def rastrigin_like(dimension: int) -> ObjectiveSpec:
    """Multimodal benchmark: sum_i x_i^2 + 10 (1 - cos 2 pi x_i).

    Per coordinate the oscillation adds at most 20, so
    ||x||^2 <= E(x) <= ||x||^2 + 20 d <= (1 + 20 d)(1 + ||x||^2).
    """
    return ObjectiveSpec(
        name="rastrigin",
        dimension=dimension,
        c2=1.0,
        c3=1.0 + 20.0 * dimension,
        growth_exponent=2.0,
        fn=lambda pts: row_sum(pts * pts + 10.0 * (1.0 - np.cos(2.0 * np.pi * pts))),
    )


def custom_objective(
    name: str,
    dimension: int,
    fn: Callable,
    c2: float,
    c3: float,
    growth_exponent: float,
    vectorized: bool = False,
) -> ObjectiveSpec:
    """Wrap a user objective with user-declared envelope constants.

    fn takes a single (d,) point unless vectorized, in which case it must
    accept (m, d) batches. Tabulated objectives enter by wrapping an
    interpolator in the closure. Declared constants are trusted here;
    verify_growth is the audit.
    """
    if vectorized:
        batch = fn
    else:

        def batch(pts: np.ndarray) -> np.ndarray:
            return np.array([float(fn(p)) for p in np.atleast_2d(pts)])

    return ObjectiveSpec(
        name=name,
        dimension=dimension,
        c2=c2,
        c3=c3,
        growth_exponent=growth_exponent,
        fn=batch,
    )


def eval_objective_batch(spec: ObjectiveSpec, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.dimension:
        raise ObjectiveError(
            f"batch has shape {points.shape}, expected (m, {spec.dimension})"
        )
    return np.asarray(spec.fn(points), dtype=float).reshape(points.shape[0])


@dataclass(frozen=True)
class GrowthViolation:
    point: np.ndarray
    value: float
    lower: float
    upper: float


@dataclass(frozen=True)
class GrowthReport:
    sample_count: int
    radius: float
    violations: tuple[GrowthViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_growth(
    spec: ObjectiveSpec,
    sample_count: int = 2000,
    radius: float = 10.0,
    rng_seed: int = 0,
) -> GrowthReport:
    """Sample the declared envelope on a ball and report every violation.

    Comparisons carry a small relative tolerance so a tight envelope
    (quadratic with c2 = c3 = 1) is not flagged on rounding dust.
    """
    require_finite(ObjectiveError, radius=radius)
    if not is_whole(sample_count) or sample_count < 1 or radius <= 0:
        raise ObjectiveError("need a whole sample_count >= 1 and radius > 0")
    sample_count = int(sample_count)
    rng = rng_from_seed(rng_seed)
    pts = uniform_ball(rng, sample_count, spec.dimension, radius)
    values = eval_objective_batch(spec, pts)
    norms = np.linalg.norm(pts, axis=1)
    lower = spec.c2 * norms**spec.growth_exponent
    upper = spec.c3 * (1.0 + norms**spec.growth_exponent)
    slack = GROWTH_RTOL * np.maximum(1.0, np.abs(values))
    bad = (values < lower - slack) | (values > upper + slack) | (values < -slack)
    violations = tuple(
        GrowthViolation(pts[i].copy(), float(values[i]), float(lower[i]), float(upper[i]))
        for i in np.flatnonzero(bad)
    )
    return GrowthReport(sample_count=sample_count, radius=radius, violations=violations)


@dataclass(frozen=True)
class ObservableMap:
    """Map g applied under the Gibbs average.

    identity: g(x) = x (m_g fixed at 1, linear growth bound ||g(x)|| <= ||x||).
    saturated: g(x) = m_g * x / (1 + ||x||), bounded by m_g.
    """

    variant: str = "identity"
    m_g: float = 1.0

    def __post_init__(self) -> None:
        apply_field_rules(self, ObjectiveError)
        if self.variant not in ("identity", "saturated"):
            raise ObjectiveError(f"unknown observable variant {self.variant!r}")
        if self.m_g <= 0:
            raise ObjectiveError("observable bound m_g must be positive")
        if self.variant == "identity" and self.m_g != 1.0:
            raise ObjectiveError("identity observable fixes m_g = 1")


def eval_observable_batch(obs: ObservableMap, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ObjectiveError("observable batch must be (m, d)")
    if obs.variant == "identity":
        return points
    return obs.m_g * points / (1.0 + np.sqrt(sq_norm(points)))[:, None]

