"""Host-speed probes: fixed work, timed beside each measurement.

On a shared host one vCPU's speed drifts by up to 1.7x for tens of seconds
(busy sibling hyperthreads, neighbours), which moves a run's median by more
than any bound worth having. Each timing is therefore divided by the time of
a probe measured next to it and multiplied by the probe's reference time, so
it reads as seconds at reference host speed. The probes call no infocbo code,
so a change to the program cannot move them. Importing this module loads no
numpy, so a set-up probe can run before the import it times.
"""

from __future__ import annotations

import marshal
import time
from dataclasses import dataclass

# class definitions like the ones importing infocbo executes
_DEFINITIONS = marshal.dumps(compile("\n".join(
    f"@dataclass(frozen=True)\nclass C{i}:\n    a: int = {i}\n    b: float = 1.0\n\n"
    f"    def f(self, x):\n        return [self.a * x + k for k in range(3)]\n"
    for i in range(60)), "<setup probe>", "exec", dont_inherit=True))
SETUP_REFERENCE_S = 0.165  # median on the host the benchmark was defined on


def setup_probe_seconds() -> float:
    """Unmarshal and execute fixed class definitions, the work an import does."""
    start = time.perf_counter()
    for _ in range(3):
        exec(marshal.loads(_DEFINITIONS), {"__name__": "probe", "dataclass": dataclass})
    return time.perf_counter() - start


@dataclass(frozen=True)
class Probe:
    """EM-like numpy step loop; a workload's probe runs at its agent count."""

    n_agents: int
    steps: int
    reference_s: float  # median probe time on the host the benchmark was defined on

    def seconds(self) -> float:
        import numpy as np

        rng = np.random.Generator(np.random.Philox(0))
        x = rng.standard_normal((self.n_agents, 2))
        lam = np.full(self.n_agents, 0.3)
        start = time.perf_counter()
        for _ in range(self.steps):
            e = x.mean(axis=0)
            v = -x + (1.0 - lam)[:, None] * e
            noise = rng.standard_normal(x.shape)
            x = x + 0.01 * v + 0.1 * np.linalg.norm(v, axis=1)[:, None] * noise
            rate = (1.0 - lam) / (1.0 + np.linalg.norm(x - e, axis=1)) - lam
            lam = np.clip(lam + 0.01 * rate, 0.0, 1.0)
            if not np.isfinite(x).all():
                raise RuntimeError("host-speed probe diverged")
        return time.perf_counter() - start

    def scale(self, measured_s: float) -> float:
        """Factor that turns a time measured beside `measured_s` into reference seconds."""
        return self.reference_s / measured_s
