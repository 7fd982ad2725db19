"""Information-rate laws T(x, lambda; population) and their contract.

A kernel sees the population only through a PopulationSummary, its crowd
mean. It is admissible when it is (i) Lipschitz in the agent state and the
population, (ii) range-preserving: lambda + theta * T stays in [0, 1]
for steps up to theta, and (iii) strictly activating at lambda = 0. The two
shipped variants satisfy all three by construction; check_kernel_contract
probes them numerically anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .util import agent_mean, apply_field_rules, in_unit_interval, rng_from_seed, sq_norm

VARIANTS = ("logistic", "crowd-coupled")

# slack for the range check: pure float dust, not a modelling tolerance
RANGE_EPS = 1e-12

# the sample size of every contract probe, which ContractReport.trial_count reports
CONTRACT_TRIALS = 2000


class KernelError(ValueError):
    """Invalid kernel parameters or evaluation request."""


@dataclass(frozen=True)
class KernelSpec:
    """Rate law parameters.

    logistic:      T = a (1 - lambda) - b lambda          (state-independent)
    crowd-coupled: T = (1 - lambda) a / (1 + ||x - mean_x||) - b lambda

    a > 0 keeps the rate strictly positive at lambda = 0; theta defaults to
    the largest step 1 / (a + b) for which the Euler update is a convex
    combination of values in [0, 1].
    """

    variant: str
    a: float
    b: float = 0.0
    theta: float | None = None

    def __post_init__(self) -> None:
        apply_field_rules(self, KernelError)
        if self.variant not in VARIANTS:
            raise KernelError(f"unknown kernel variant {self.variant!r}")
        if not self.a > 0:
            raise KernelError("kernel gain a must be strictly positive")
        if self.b < 0:
            raise KernelError("kernel damping b must be nonnegative")
        if self.theta is None:
            object.__setattr__(self, "theta", 1.0 / (self.a + self.b))
        if not self.theta > 0:
            raise KernelError("stability step theta must be positive")
        if self.theta * (self.a + self.b) > 1.0 + RANGE_EPS:
            raise KernelError(
                "theta * (a + b) must not exceed 1, otherwise Euler steps "
                "can leave [0, 1]"
            )


class PopulationSummary(NamedTuple):
    """What a kernel may see of the ensemble: its crowd mean, one (d,) row per
    population, or (R, d) for a stack of R; the logistic kernel reads none."""

    mean_x: np.ndarray

    @classmethod
    def from_arrays(cls, x: np.ndarray, lam: np.ndarray, mean_x=None) -> "PopulationSummary":
        """The summary of one population (x: (N, d), lam: (N,)) or a stack
        (x: (R, N, d), lam: (R, N)): the given mean, else agent_mean(x)."""
        return cls(agent_mean(x) if mean_x is None else mean_x)


def eval_kernel(kernel: KernelSpec, summary: PopulationSummary, x: np.ndarray, lam):
    """Rate at one state (x: (d,), lam scalar), a batch (x: (N, d), lam: (N,)),
    or a stack of batches (x: (R, N, d), lam: (R, N)) summarized per batch."""
    lam_arr = np.asarray(lam, dtype=float)
    if not in_unit_interval(lam_arr):
        raise KernelError("lambda outside [0, 1]")
    rate = _rate(kernel, summary, np.asarray(x, dtype=float), lam_arr)
    return float(rate) if lam_arr.ndim == 0 else rate


def _rate(kernel: KernelSpec, summary: PopulationSummary, x: np.ndarray, lam: np.ndarray):
    """eval_kernel's arithmetic on float arrays, lam not checked: the step
    keeps lam in [0, 1] by construction (Ensemble checks the initial lam,
    em_step clips it, and x is checked finite, so the rate is finite)."""
    if kernel.variant == "logistic":
        return kernel.a * (1.0 - lam) - kernel.b * lam
    mean_x = np.asarray(summary.mean_x, dtype=float)
    if mean_x.ndim > 1:  # one mean per stacked batch
        mean_x = mean_x[..., None, :]
    gap = np.empty_like(x)  # x's layout, which np.sum's order follows from d = 8
    for k in range(x.shape[-1]):  # x - mean_x per column, as in gibbs.drift
        np.subtract(x[..., k], mean_x[..., k], out=gap[..., k])
    dist = np.sqrt(sq_norm(gap))
    return (1.0 - lam) * kernel.a / (1.0 + dist) - kernel.b * lam


@dataclass(frozen=True)
class ContractReport:
    trial_count: int
    t1_lipschitz_estimate: float
    t2_violations: int
    t3_violations: int

    @property
    def ok(self) -> bool:
        return self.t2_violations == 0 and self.t3_violations == 0


def _random_summary(rng: np.random.Generator, dim: int) -> tuple[PopulationSummary, float]:
    """A random summary and a joint first moment m1 to go with it."""
    mean_x = rng.normal(scale=2.0, size=dim)
    # m1 >= ||mean_x|| always holds for a real ensemble (Jensen)
    m1 = float(np.linalg.norm(mean_x)) + abs(rng.normal(scale=1.0))
    return PopulationSummary(mean_x), m1


def check_kernel_contract(kernel: KernelSpec, rng_seed: int = 0) -> ContractReport:
    """Sample the three-part contract on CONTRACT_TRIALS trials and report
    what was observed.

    The Lipschitz ratio uses a population distance ||mean_1 - mean_2|| +
    |m1_1 - m1_2|, with m1 a joint first moment drawn beside each summary;
    both components are 1-Lipschitz images of the population law under W1,
    and the shipped kernels read only the mean, so a finite ratio here
    certifies the contract on what they read.
    """
    rng = rng_from_seed(rng_seed)
    worst_ratio = 0.0
    t2_bad = 0
    t3_bad = 0
    for _ in range(CONTRACT_TRIALS):
        dim = int(rng.integers(1, 4))
        s1, m1_1 = _random_summary(rng, dim)
        s2, m1_2 = _random_summary(rng, dim)
        x1 = rng.normal(scale=2.0, size=dim)
        x2 = rng.normal(scale=2.0, size=dim)
        l1 = float(rng.uniform())
        l2 = float(rng.uniform())
        gap = (
            float(np.linalg.norm(x1 - x2))
            + abs(l1 - l2)
            + float(np.linalg.norm(s1.mean_x - s2.mean_x))
            + abs(m1_1 - m1_2)
        )
        if gap > 1e-12:
            diff = abs(
                eval_kernel(kernel, s1, x1, l1) - eval_kernel(kernel, s2, x2, l2)
            )
            worst_ratio = max(worst_ratio, diff / gap)
        stepped = l1 + kernel.theta * eval_kernel(kernel, s1, x1, l1)
        if stepped < -RANGE_EPS or stepped > 1.0 + RANGE_EPS:
            t2_bad += 1
        if not eval_kernel(kernel, s1, x1, 0.0) > 0.0:
            t3_bad += 1
    return ContractReport(
        trial_count=CONTRACT_TRIALS,
        t1_lipschitz_estimate=worst_ratio,
        t2_violations=t2_bad,
        t3_violations=t3_bad,
    )


def logistic_closed_form(kernel: KernelSpec, lam0: float, t) -> np.ndarray:
    """Exact relaxation a/(a+b) + (lam0 - a/(a+b)) exp(-(a+b) t).

    Only the logistic variant has state-free dynamics with this solution.
    """
    if kernel.variant != "logistic":
        raise KernelError("closed form applies to the logistic variant only")
    rate = kernel.a + kernel.b
    fixed = kernel.a / rate
    return fixed + (lam0 - fixed) * np.exp(-rate * np.asarray(t, dtype=float))
