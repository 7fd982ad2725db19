"""Information-rate laws T(x, lambda; population) and their contract.

A kernel is admissible when it is (i) Lipschitz in the agent state and the
population summary, (ii) range-preserving: lambda + theta * T stays in [0, 1]
for steps up to theta, and (iii) strictly activating at lambda = 0. The two
shipped variants satisfy all three by construction; check_kernel_contract
probes them numerically anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import agent_mean, require_finite, rng_from_seed, row_sum

VARIANTS = ("logistic", "crowd-coupled")

# slack for the range check: pure float dust, not a modelling tolerance
RANGE_EPS = 1e-12


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
        if self.variant not in VARIANTS:
            raise KernelError(f"unknown kernel variant {self.variant!r}")
        require_finite(KernelError, a=self.a, b=self.b, theta=self.theta)
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


class PopulationSummary:
    """What a kernel may see of the ensemble: spatial mean and joint first moment.

    from_arrays takes one population (x: (N, d), lam: (N,)) or a stack of R
    (x: (R, N, d), lam: (R, N)), which gets one mean_x row and one m1 per
    population. No shipped kernel reads m1, so a summary built from arrays
    computes it when it is first read.
    """

    def __init__(self, mean_x: np.ndarray, m1=None, *, arrays=None):
        self.mean_x = mean_x
        self._m1 = m1
        self._arrays = arrays

    @classmethod
    def from_arrays(cls, x: np.ndarray, lam: np.ndarray) -> "PopulationSummary":
        return cls(mean_x=agent_mean(x), arrays=(x, lam))

    @property
    def m1(self):
        if self._m1 is None:
            x, lam = self._arrays
            joint = np.sqrt(row_sum(x * x) + lam * lam).mean(axis=-1)
            self._m1 = float(joint) if joint.ndim == 0 else joint
        return self._m1


def eval_kernel(kernel: KernelSpec, summary: PopulationSummary, x: np.ndarray, lam):
    """Rate at one state (x: (d,), lam scalar), a batch (x: (N, d), lam: (N,)),
    or a stack of batches (x: (R, N, d), lam: (R, N)) summarized per batch."""
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0) or np.any(lam_arr > 1):
        raise KernelError("lambda outside [0, 1]")
    x = np.asarray(x, dtype=float)
    if kernel.variant == "logistic":
        rate = kernel.a * (1.0 - lam_arr) - kernel.b * lam_arr
        return float(rate) if lam_arr.ndim == 0 else rate
    mean_x = np.asarray(summary.mean_x, dtype=float)
    if mean_x.ndim > 1:  # one mean per stacked batch
        mean_x = mean_x[..., None, :]
    gap = x - mean_x
    dist = np.sqrt(row_sum(gap * gap))
    rate = (1.0 - lam_arr) * kernel.a / (1.0 + dist) - kernel.b * lam_arr
    return float(rate) if lam_arr.ndim == 0 else rate


@dataclass(frozen=True)
class ContractReport:
    trial_count: int
    t1_lipschitz_estimate: float
    t2_violations: int
    t3_violations: int

    @property
    def ok(self) -> bool:
        return self.t2_violations == 0 and self.t3_violations == 0


def _random_summary(rng: np.random.Generator, dim: int) -> PopulationSummary:
    mean_x = rng.normal(scale=2.0, size=dim)
    # m1 >= ||mean_x|| always holds for a real ensemble (Jensen)
    m1 = float(np.linalg.norm(mean_x)) + abs(rng.normal(scale=1.0))
    return PopulationSummary(mean_x=mean_x, m1=m1)


def check_kernel_contract(
    kernel: KernelSpec, trial_count: int = 2000, rng_seed: int = 0
) -> ContractReport:
    """Sample the three-part contract and report what was observed.

    The Lipschitz ratio uses a summary distance ||mean_1 - mean_2|| +
    |m1_1 - m1_2|; both components are 1-Lipschitz images of the population
    law under W1, so a finite ratio here certifies the contract on the
    summary statistics the shipped kernels actually read.
    """
    if trial_count < 1:
        raise KernelError("need at least one trial")
    rng = rng_from_seed(rng_seed)
    worst_ratio = 0.0
    t2_bad = 0
    t3_bad = 0
    for _ in range(trial_count):
        dim = int(rng.integers(1, 4))
        s1 = _random_summary(rng, dim)
        s2 = _random_summary(rng, dim)
        x1 = rng.normal(scale=2.0, size=dim)
        x2 = rng.normal(scale=2.0, size=dim)
        l1 = float(rng.uniform())
        l2 = float(rng.uniform())
        gap = (
            float(np.linalg.norm(x1 - x2))
            + abs(l1 - l2)
            + float(np.linalg.norm(s1.mean_x - s2.mean_x))
            + abs(s1.m1 - s2.m1)
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
        trial_count=trial_count,
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
