"""Timed spans around infocbo's layer functions, installed from outside.

A Tracer keeps per-name aggregates in memory: call count, busy time (summed
span duration) and self time (duration minus the part covered by direct
child spans). Spans are recorded only inside an open root span, so work the
benchmark does around an iteration (output verification, for instance) is
not attributed to any layer.

`install` replaces each function named in LAYERS by a timed wrapper in every
loaded infocbo module that holds a reference to it, and puts the originals
back on exit. Nothing under src/ is edited. A name the code no longer has is
returned as unmeasured instead of being reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Nested span timing with per-name aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # name -> [calls, busy seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, start, child seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def wrap(self, name: str, fn: Callable, account: Callable | None = None) -> Callable:
        """Timed stand-in for fn; account(tracer, args, result) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if account is not None:
                account(self, args, result)
            return result

        return traced


def _count_em_step_bytes(tracer: Tracer, args, result) -> None:
    # computed from shapes, not measured: state (x, lam) read and written,
    # plus the (N, d) noise draw when the run is noisy
    ensemble, config = args[0], args[1]
    n, d = ensemble.x.shape
    noise = n * d if config.noise_strength > 0 else 0
    tracer.count("sde.em_step.bytes_computed", 8 * (2 * n * d + 2 * n + noise))


def _count_csv_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("trajectory.to_csv.bytes", len(result.encode()))


@dataclass(frozen=True)
class Layer:
    module: str  # infocbo submodule
    qualname: str  # function, or Class.method
    account: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS = (
    Layer("sde", "simulate"),
    Layer("sde", "em_step", _count_em_step_bytes),
    Layer("sde", "consensus_fields"),
    Layer("objectives", "eval_objective_batch"),
    Layer("gibbs", "consensus_from_energies"),
    Layer("infokernel", "PopulationSummary.from_arrays"),
    Layer("infokernel", "eval_kernel"),
    Layer("diagnostics", "g_phi_residual"),
    Layer("diagnostics", "mean_decay_check"),
    Layer("diagnostics", "second_moment_bound_check"),
    Layer("diagnostics", "lambda_persistence_check"),
    Layer("diagnostics", "mass_bound_fit"),
    Layer("trajectory", "TrajectoryRecord.to_csv", _count_csv_bytes),
    Layer("harness", "parse_flat_config"),
    Layer("harness", "run"),
    Layer("cli", "main"),
)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "infocbo" or n.startswith("infocbo."))]


def _patch_method(tracer: Tracer, layer: Layer, owner: type, attr: str, undo: list) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        new = classmethod(tracer.wrap(layer.name, raw.__func__, layer.account))
    else:
        new = tracer.wrap(layer.name, raw, layer.account)
    setattr(owner, attr, new)
    undo.append((owner, attr, raw))


def _patch_function(tracer: Tracer, layer: Layer, original: Callable, undo: list) -> None:
    # every module that imported the function by name holds its own reference
    new = tracer.wrap(layer.name, original, layer.account)
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, new)
                undo.append((module, attr, original))


@contextmanager
def install(tracer: Tracer, layers=LAYERS):
    """Wrap every layer function for the duration; yields the unmeasured names."""
    undo: list = []
    unmeasured: list[str] = []
    try:
        for layer in layers:
            module = importlib.import_module(f"infocbo.{layer.module}")
            *path, attr = layer.qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            if isinstance(owner, type) and attr in owner.__dict__:
                _patch_method(tracer, layer, owner, attr, undo)
            elif owner is module and callable(getattr(module, attr, None)):
                _patch_function(tracer, layer, getattr(module, attr), undo)
            else:
                unmeasured.append(layer.name)
        yield unmeasured
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, iterations: int, layers=LAYERS, unmeasured=()) -> dict:
    """Per-iteration metrics {name: (value, unit)} from a traced phase."""
    out: dict[str, tuple[float, str]] = {}
    per = 1.0 / iterations
    for layer in layers:
        if layer.name in unmeasured:
            continue
        calls, busy, self_s = tracer.stats.get(layer.name, [0, 0.0, 0.0])
        out[f"{layer.name}.calls"] = (calls * per, "count")
        out[f"{layer.name}.busy_ms"] = (busy * 1e3 * per, "ms")
        out[f"{layer.name}.self_ms"] = (self_s * 1e3 * per, "ms")
    root = tracer.stats.get("iteration", [0, 0.0, 0.0])
    out["iteration.self_ms"] = (root[2] * 1e3 * per, "ms")

    steps = tracer.calls("sde.em_step")
    for derived, source in (
        ("sde.consensus_fields.calls_per_step", "sde.consensus_fields"),
        ("infokernel.PopulationSummary.calls_per_step",
         "infokernel.PopulationSummary.from_arrays"),
    ):
        if source not in unmeasured and "sde.em_step" not in unmeasured:
            out[derived] = (tracer.calls(source) / steps if steps else 0.0, "ratio")
    if "sde.em_step" not in unmeasured:
        out["sde.em_step.bytes_computed"] = (
            tracer.counters.get("sde.em_step.bytes_computed", 0.0) * per, "B")
    if "trajectory.TrajectoryRecord.to_csv" not in unmeasured:
        csv_bytes = tracer.counters.get("trajectory.to_csv.bytes", 0.0)
        csv_busy = tracer.stats.get("trajectory.TrajectoryRecord.to_csv", [0, 0.0])[1]
        out["trajectory.to_csv.bytes"] = (csv_bytes * per, "B")
        out["trajectory.to_csv.mb_per_s"] = (
            csv_bytes / 1e6 / csv_busy if csv_busy else 0.0, "MB/s")
    return out
