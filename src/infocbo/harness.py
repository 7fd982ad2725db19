"""Experiment runner: flat config files, replica execution, manifests.

A run directory holds one statistics CSV per replica, one JSON per requested
check, and a manifest written last; the manifest's presence marks the run as
complete. Reruns of the same config produce byte-identical CSVs.

Three tables declare what a config may say: CONFIG_KEYS (every flat key and
the constructor field that states its rule and default), SWEEP_AXES (the sim
keys a sweep may vary) and CHECKS (every check).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from . import __version__
from .diagnostics import (
    DiagnosticsError,
    lambda_persistence_check,
    mass_bound_fit,
    mean_decay_check,
    require_consensus_free,
    second_moment_bound_check,
    second_moment_constant,
)
from .infokernel import KernelSpec
from .objectives import ObjectiveSpec, ObservableMap, quadratic, rastrigin_like
from .sde import (ConfigError, InitialLaw, SimConfig, SimulationError, _observer_radii,
                  _simulate_batch)
from .trajectory import TrajectoryRecord
from .util import (GENERATOR_NAME, apply_field_rules, derive_seed, field_value, is_whole,
                   jsonable)

ENV_OUTPUT_ROOT = "INFOCBO_OUTPUT_ROOT"

MANIFEST_NAME = "manifest.json"

OBJECTIVES = {"quadratic": quadratic, "rastrigin": rastrigin_like}

# axis a sets the key sim.a
SWEEP_AXES = ("n", "N", "noise_strength", "dt")

# name -> report on one replica's record: one report, or one per ball radius
CHECKS: dict[str, Callable[[TrajectoryRecord, ExperimentConfig], object]] = {
    "mean_decay": lambda record, _: mean_decay_check(record),
    "second_moment_bound": lambda record, exp: second_moment_bound_check(record, exp.sim),
    "lambda_persistence": lambda record, _: lambda_persistence_check(record),
    "mass_bound": lambda record, exp: [
        mass_bound_fit(record, r) for r in exp.observers.ball_radii
    ],
}


class RunDirectoryError(OSError):
    """Output directory conflicts (existing manifest without force, etc.)."""


@dataclass(frozen=True)
class ObserverConfig:
    stride: int = 1
    snapshot_stride: int | None = None
    ball_radii: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        apply_field_rules(self, ConfigError)


@dataclass(frozen=True)  # so the checks of __post_init__ hold for its whole life
class ExperimentConfig:
    sim: SimConfig
    observers: ObserverConfig = ObserverConfig()
    output_dir: str | os.PathLike | None = None
    replicas: int = 1
    checks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        apply_field_rules(self, ConfigError)
        if self.replicas < 1:
            raise ConfigError(f"replicas must be at least 1, got {self.replicas!r}")
        # the hypotheses of every requested check, before any replica runs
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        if len(set(self.checks)) < len(self.checks):  # one report file per check
            raise ConfigError(f"check {max(self.checks, key=self.checks.count)!r} is given twice")
        try:
            for name in self.checks:
                if name in ("mean_decay", "second_moment_bound"):
                    require_consensus_free(self.sim.mode)
                if name == "second_moment_bound":
                    second_moment_constant(self.sim.noise_strength, self.sim.d)
                    init = self.sim.init  # an atom whose |c|^2 is 0 gives the ceiling no base
                    if init.spatial_kind == "point" and not any(c * c for c in init.center):
                        raise DiagnosticsError("initial second moment must be positive")
        except DiagnosticsError as exc:
            raise ConfigError(f"{name} check: {exc}") from exc
        if "mass_bound" in self.checks:
            if self.observers.snapshot_stride is None:
                raise ConfigError("mass_bound check needs observers.snapshot_stride")
            if not self.observers.ball_radii:
                raise ConfigError("mass_bound check needs observers.ball_radii")
        obs = self.observers  # its rules hold before anything is written
        _observer_radii(self.sim.n_steps, obs.stride, obs.snapshot_stride, obs.ball_radii,
                        names=("observers.stride", "observers.snapshot_stride"))


# flat key -> (the constructor it feeds, the field it sets). The field states
# the key's rule (by its annotation; see util.FIELD_KINDS), its default and,
# by having none, that the key is required. init.lambda sets no field: it
# names the lambda law, and LAMBDA_LAWS the keys that law reads.
CONFIG_KEYS: dict[str, tuple[type, str] | None] = {
    "sim.d": (SimConfig, "d"),
    "sim.N": (SimConfig, "n_particles"),
    "sim.n": (SimConfig, "sharpness"),
    "sim.drift_gain": (SimConfig, "drift_gain"),
    "sim.noise_strength": (SimConfig, "noise_strength"),
    "sim.dt": (SimConfig, "dt"),
    "sim.t_end": (SimConfig, "t_end"),
    "sim.seed": (SimConfig, "seed"),
    "sim.mode": (SimConfig, "mode"),
    "sim.truncation_radius": (SimConfig, "truncation_radius"),
    "sim.shared_noise": (SimConfig, "shared_noise"),
    "objective.name": (ObjectiveSpec, "name"),
    "observable.variant": (ObservableMap, "variant"),
    "observable.m_g": (ObservableMap, "m_g"),
    "kernel.variant": (KernelSpec, "variant"),
    "kernel.a": (KernelSpec, "a"),
    "kernel.b": (KernelSpec, "b"),
    "kernel.theta": (KernelSpec, "theta"),
    "init.spatial": (InitialLaw, "spatial_kind"),
    "init.center": (InitialLaw, "center"),
    "init.spread": (InitialLaw, "spread"),
    "init.lambda": None,
    "init.lambda_value": (InitialLaw, "lambda_lo"),
    "init.lambda_min": (InitialLaw, "lambda_lo"),
    "init.lambda_max": (InitialLaw, "lambda_hi"),
    "observers.stride": (ObserverConfig, "stride"),
    "observers.snapshot_stride": (ObserverConfig, "snapshot_stride"),
    "observers.ball_radii": (ObserverConfig, "ball_radii"),
    "run.output_dir": (ExperimentConfig, "output_dir"),
    "run.replicas": (ExperimentConfig, "replicas"),
    "run.checks": (ExperimentConfig, "checks"),
}

# init.lambda -> the keys that law reads: const sets lambda_lo = lambda_hi
# (both default to 0.5), uniform needs both of its keys
LAMBDA_LAWS = {"const": ("init.lambda_value",), "uniform": ("init.lambda_min", "init.lambda_max")}


def _keys_of(law: str) -> list[str]:
    """The flat keys a document whose init.lambda is law may state."""
    unread = {key for keys in LAMBDA_LAWS.values() for key in keys} - set(LAMBDA_LAWS[law])
    return [key for key in CONFIG_KEYS if key not in unread]


def _field(key: str) -> dataclasses.Field:
    """The constructor field that states key's rule and default."""
    owner, name = CONFIG_KEYS[key]
    return owner.__dataclass_fields__[name]


def _parsed(key: str, value):
    """value of key under the rule of its field."""
    field = _field(key)
    kind = field.type.removesuffix(" | None")
    if value is None:
        if kind == field.type:
            raise ConfigError(f"config key {key!r} may not be null")
        return None
    try:
        return field_value(ValueError, kind, field.name, value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: bad value {value!r} ({exc})") from None


def parse_flat_config(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat dotted-key document.

    Unknown keys are errors, not warnings: a typo silently reverting a
    parameter to its default would poison every downstream number. So is a
    key the chosen lambda law does not read.
    """
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    law = mapping.get("init.lambda", "const")
    if not isinstance(law, str) or law not in LAMBDA_LAWS:
        raise ConfigError(f"unknown lambda init {law!r}; known: {', '.join(LAMBDA_LAWS)}")
    stray = sorted(set(mapping) - set(_keys_of(law)))
    if stray:
        raise ConfigError(f"config key {stray[0]!r} does not apply to init.lambda {law!r}")
    if law == "uniform" and not all(key in mapping for key in LAMBDA_LAWS[law]):
        raise ConfigError("uniform lambda init needs init.lambda_min and init.lambda_max")
    args: dict[type, dict[str, object]] = defaultdict(dict)
    for key, where in CONFIG_KEYS.items():
        if where is None:  # init.lambda, read above
            continue
        owner, name = where
        if key in mapping:
            args[owner][name] = _parsed(key, mapping[key])
        elif _field(key).default is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {key!r}")
    init = args[InitialLaw]
    if law == "const" and "lambda_lo" in init:
        init["lambda_hi"] = init["lambda_lo"]
    objective_name = args[ObjectiveSpec]["name"]
    if objective_name not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective_name!r}; known: {', '.join(OBJECTIVES)}"
        )
    sim = SimConfig(
        objective=OBJECTIVES[objective_name](args[SimConfig]["d"]),
        observable=ObservableMap(**args[ObservableMap]),
        kernel=KernelSpec(**args[KernelSpec]),
        init=InitialLaw(**init),
        **args[SimConfig],
    )
    return ExperimentConfig(sim, ObserverConfig(**args[ObserverConfig]), **args[ExperimentConfig])


def flat_document(experiment: ExperimentConfig) -> dict:
    """The flat document that parse_flat_config turns into experiment, with
    every key the run reads, defaults included. An experiment that no
    document states (an objective outside OBJECTIVES, say) is a ConfigError.
    """
    sim = experiment.sim
    owners = {SimConfig: sim, ObjectiveSpec: sim.objective, ObservableMap: sim.observable,
              KernelSpec: sim.kernel, InitialLaw: sim.init,
              ObserverConfig: experiment.observers, ExperimentConfig: experiment}
    law = "const" if sim.init.lambda_lo == sim.init.lambda_hi else "uniform"
    doc = jsonable({key: law if CONFIG_KEYS[key] is None else
                    getattr(owners[CONFIG_KEYS[key][0]], CONFIG_KEYS[key][1])
                    for key in _keys_of(law)})
    parsed = parse_flat_config(doc)
    # ObjectiveSpec leaves fn out of ==; each library objective builds its fn
    # from one code object
    library, own = parsed.sim.objective, sim.objective
    if library != own or getattr(own.fn, "__code__", None) is not library.fn.__code__:
        raise ConfigError(f"no flat document states this experiment: its objective "
                          f"{library.name!r} is not the library objective of that name")
    if parsed != experiment:
        raise ConfigError("no flat document states this experiment: it reads back differently")
    return doc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's mapping; a key given twice is refused, not read at its last value."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ConfigError(f"config key {key!r} is given twice")
        mapping[key] = value
    return mapping


def load_config_file(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise RunDirectoryError(f"cannot read config {path}: {exc}") from exc
    try:
        mapping = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ConfigError("config must be a JSON object with dotted keys")
    return parse_flat_config(mapping)


def _check_report(name: str, record: TrajectoryRecord, experiment: ExperimentConfig) -> dict:
    report = CHECKS[name](record, experiment)
    if isinstance(report, list):
        return {"passed": all(r.ok for r in report), "report": [jsonable(r) for r in report]}
    return {"passed": report.ok, "report": jsonable(report)}


def _replica_seeds(master: int, start: int, stop: int) -> list[int]:
    """Derived seeds of replicas start to stop - 1 of a run on seed master."""
    return [derive_seed(master, i) for i in range(start, stop)]


def _replica_batch(document: dict, start: int, stop: int) -> list[TrajectoryRecord]:
    """Records of replicas start to stop - 1 of the experiment a flat
    document states, stepped as one batch. An error names the failing
    replica by its index in the run."""
    experiment = parse_flat_config(document)
    obs = experiment.observers
    try:
        return _simulate_batch(experiment.sim, _replica_seeds(experiment.sim.seed, start, stop),
                               obs.stride, obs.snapshot_stride, obs.ball_radii)
    except SimulationError as exc:
        # sde names replica k of this batch; the run knows it as start + k
        message = re.sub(r"replica (\d+)", lambda m: f"replica {start + int(m[1])}", str(exc))
        raise SimulationError(message) from exc


def _write_atomic(path: Path, text: str) -> str:
    """Write text to path.tmp and move it in, so path never holds part of it.
    Returns the sha256 digest of the bytes written."""
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_text(text, encoding="utf-8", newline="\n")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    directory: Path
    manifest: dict
    checks_passed: bool
    failed_checks: tuple[str, ...]


def _resolve_output_dir(experiment: ExperimentConfig, output_dir) -> Path:
    chosen = output_dir or experiment.output_dir
    if chosen is None:
        raise ConfigError("no output directory: set run.output_dir or pass --out")
    root = os.environ.get(ENV_OUTPUT_ROOT)
    path = Path(chosen)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def run(
    experiment: ExperimentConfig,
    output_dir: str | Path | None = None,
    force: bool = False,
    workers: int | None = None,
) -> RunResult:
    """Execute every replica, write CSVs and check reports, manifest last.

    Replica i runs on the derived seed hash(master, i), so replica streams
    never overlap and adding replicas never perturbs existing ones. The
    replicas step as one batch; workers > 1 splits it into contiguous
    sub-batches, one per process. Every batch executes, and the manifest
    records, the flat document rendered from experiment. workers is None (one
    process) or a whole number >= 1, else ConfigError before any directory exists.
    """
    if workers is not None and not (is_whole(workers) and workers >= 1):
        raise ConfigError(f"workers must be a whole number >= 1, got {workers!r}")
    document = flat_document(experiment)
    outdir = _resolve_output_dir(experiment, output_dir)
    if (outdir / MANIFEST_NAME).exists() and not force:
        raise RunDirectoryError(
            f"{outdir} already holds a completed run; pass force to overwrite"
        )
    n_workers = min(int(workers or 1), experiment.replicas)
    outdir.mkdir(parents=True, exist_ok=True)

    started = datetime.now(timezone.utc).isoformat()
    if n_workers > 1:
        # imported here: a one-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        bounds = [w * experiment.replicas // n_workers for w in range(n_workers + 1)]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = pool.map(_replica_batch, [document] * n_workers,
                             bounds[:-1], bounds[1:])
            records = [record for part in parts for record in part]
    else:
        records = _replica_batch(document, 0, experiment.replicas)
    # a check that raises leaves an earlier run in the directory untouched
    reports = {
        name: [
            {**_check_report(name, record, experiment), "replica": i}
            for i, record in enumerate(records)
        ]
        for name in experiment.checks
    }

    # from here on the directory is mid-rewrite; a manifest left from an
    # earlier run would list hashes of files about to change, and files of
    # that run which this one does not write would outlive it. Those are
    # the names a run writes; every other file stays.
    manifest_path = outdir / MANIFEST_NAME
    manifest_path.unlink(missing_ok=True)
    for path in [*outdir.glob("replica_*.csv"), *outdir.glob("check_*.json")]:
        path.unlink(missing_ok=True)
    files: dict[str, str] = {}
    for i, record in enumerate(records):
        csv_name = f"replica_{i:03d}.csv"
        files[csv_name] = _write_atomic(outdir / csv_name, record.to_csv())

    failed: list[str] = []
    for name, per_replica in reports.items():
        passed = all(r["passed"] for r in per_replica)
        if not passed:
            failed.append(name)
        report = {"check": name, "passed": passed, "replicas": per_replica}
        files[f"check_{name}.json"] = _write_atomic(
            outdir / f"check_{name}.json", json.dumps(report, indent=2, sort_keys=True) + "\n")

    manifest = {
        "schema_version": 1,
        "code_version": __version__,
        # numpy's exp, log and power round differently on different SIMD targets
        "generator": {"name": GENERATOR_NAME, "numpy": np.__version__,
                      "simd": [t for t in __cpu_dispatch__ if __cpu_features__[t]]},
        "started_utc": started,
        "completed_utc": datetime.now(timezone.utc).isoformat(),
        "config": document,
        "replicas": experiment.replicas,
        "replica_seeds": _replica_seeds(experiment.sim.seed, 0, experiment.replicas),
        # the lambda invariant, which no CSV column holds: clamps and extremes over every step
        "replica_lambda": [{"clamp_events": r.clamp_events, "lambda_min": r.lambda_min,
                            "lambda_max": r.lambda_max} for r in records],
        "checks": list(experiment.checks),
        "checks_passed": not failed if experiment.checks else None,
        "files": files,
    }
    _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunResult(
        directory=outdir,
        manifest=manifest,
        checks_passed=not failed,
        failed_checks=tuple(failed),
    )


def _point_dir_name(axis: str, value) -> str:
    """axis=value with the short :g form when it reads back as the same
    value, else the exact repr, so distinct values never share a directory."""
    short = f"{value:g}"
    return f"{axis}={short if float(short) == value else repr(value)}"


def sweep(
    experiment: ExperimentConfig,
    axis: str,
    values,
    output_dir: str | Path | None = None,
    force: bool = False,
    workers: int | None = None,
) -> list[RunResult]:
    """One run per axis value in subdirectories axis=value, plus an index.

    Axis a sets the key sim.a, and its values are coerced like that key, so
    a particle count must be integral. Every point is built, and values that
    would share a directory are refused, before any run starts.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; known: {', '.join(SWEEP_AXES)}")
    key = f"sim.{axis}"
    document = flat_document(experiment)
    root = _resolve_output_dir(experiment, output_dir)
    points: dict[str, tuple[object, ExperimentConfig]] = {}
    for raw in values:
        point = parse_flat_config({**document, key: raw, "run.output_dir": None})
        value = getattr(point.sim, CONFIG_KEYS[key][1])
        name = _point_dir_name(axis, value)
        if name in points:
            raise ConfigError(
                f"sweep values {points[name][0]!r} and {value!r} share the directory {name}"
            )
        points[name] = value, point
    results = []
    entries = []
    for name, (value, point) in points.items():
        results.append(run(point, output_dir=root / name, force=force, workers=workers))
        entries.append({"value": value, "dir": name})
    index = {"axis": axis, "points": entries}
    root.mkdir(parents=True, exist_ok=True)
    _write_atomic(root / "index.json", json.dumps(index, indent=2, sort_keys=True) + "\n")
    return results


def load_manifest(run_dir: str | Path) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise RunDirectoryError(f"{run_dir} has no {MANIFEST_NAME}; run incomplete?")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise RunDirectoryError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise RunDirectoryError(f"{path} is not a JSON object")
    files = manifest.get("files", {})
    if not isinstance(files, dict) or not all(isinstance(v, str) for v in files.values()):
        raise RunDirectoryError(f"{path}: files must map names to digest strings")
    generator = manifest.get("generator", {})
    if not isinstance(generator, dict):
        raise RunDirectoryError(f"{path}: generator must be a JSON object")
    simd = generator.get("simd", [])  # absent from manifests written before it was recorded
    if not isinstance(simd, list) or not all(isinstance(target, str) for target in simd):
        raise RunDirectoryError(f"{path}: generator.simd must be a list of target names")
    lam = manifest.get("replica_lambda", [])
    if not isinstance(lam, list) or not all(isinstance(entry, dict) for entry in lam):
        raise RunDirectoryError(f"{path}: replica_lambda must be a list of JSON objects")
    return manifest
