"""Experiment runner: flat config files, replica execution, manifests.

A run directory holds one statistics CSV per replica, one JSON per requested
check, and a manifest written last; the manifest's presence marks the run as
complete. Reruns of the same config produce byte-identical CSVs.

Three tables declare what a config may say: CONFIG_KEYS (every flat key),
SWEEP_AXES (the sim keys a sweep may vary) and CHECKS (every check).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .diagnostics import (
    DiagnosticsError,
    lambda_persistence_check,
    mass_bound_fit,
    mean_decay_check,
    second_moment_bound_check,
    second_moment_constant,
)
from .infokernel import KernelSpec
from .objectives import ObservableMap, quadratic, rastrigin_like
from .sde import ConfigError, InitialLaw, SimConfig, _simulate_batch
from .trajectory import TrajectoryRecord
from .util import GENERATOR_NAME, derive_seed, jsonable

ENV_WORKERS = "INFOCBO_WORKERS"
ENV_OUTPUT_ROOT = "INFOCBO_OUTPUT_ROOT"

MANIFEST_NAME = "manifest.json"

OBJECTIVES = {"quadratic": quadratic, "rastrigin": rastrigin_like}


def _integer(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true/false")
    return value


def _floats(value) -> tuple[float, ...]:
    return tuple(float(v) for v in value)


REQUIRED = object()


class Key(NamedTuple):
    """A flat key's coercion, default (REQUIRED for none) and the field it
    sets on the constructor its section names (sim: SimConfig, observers:
    ObserverConfig, run: ExperimentConfig, and so on). parse_flat_config
    reads the keys without a field itself."""

    coerce: Callable
    default: object
    field: str | None


CONFIG_KEYS: dict[str, Key] = {
    "sim.d": Key(_integer, REQUIRED, "d"),
    "sim.N": Key(_integer, REQUIRED, "n_particles"),
    "sim.n": Key(float, 1.0, "sharpness"),
    "sim.drift_gain": Key(float, 1.0, "drift_gain"),
    "sim.noise_strength": Key(float, 0.0, "noise_strength"),
    "sim.dt": Key(float, REQUIRED, "dt"),
    "sim.t_end": Key(float, REQUIRED, "t_end"),
    "sim.seed": Key(_integer, REQUIRED, "seed"),
    "sim.mode": Key(str, "full", "mode"),
    "sim.truncation_radius": Key(float, None, "truncation_radius"),
    "sim.shared_noise": Key(_bool, False, "shared_noise"),
    "objective.name": Key(str, REQUIRED, None),
    "observable.variant": Key(str, "identity", "variant"),
    "observable.m_g": Key(float, 1.0, "m_g"),
    "kernel.variant": Key(str, REQUIRED, "variant"),
    "kernel.a": Key(float, REQUIRED, "a"),
    "kernel.b": Key(float, 0.0, "b"),
    "kernel.theta": Key(float, None, "theta"),
    "init.spatial": Key(str, REQUIRED, "spatial_kind"),
    "init.center": Key(_floats, REQUIRED, "center"),
    "init.spread": Key(float, 0.0, "spread"),
    "init.lambda": Key(str, "const", None),
    "init.lambda_value": Key(float, 0.5, None),
    "init.lambda_min": Key(float, None, None),
    "init.lambda_max": Key(float, None, None),
    "observers.stride": Key(_integer, 1, "stride"),
    "observers.snapshot_stride": Key(_integer, None, "snapshot_stride"),
    "observers.ball_radii": Key(_floats, (), "ball_radii"),
    "run.output_dir": Key(str, None, "output_dir"),
    "run.replicas": Key(_integer, 1, "replicas"),
    "run.checks": Key(lambda value: tuple(str(v) for v in value), (), "checks"),
}

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


@dataclass(frozen=True)  # so the checks of __post_init__ hold for its whole life
class ExperimentConfig:
    sim: SimConfig
    observers: ObserverConfig = ObserverConfig()
    output_dir: str | None = None
    replicas: int = 1
    checks: tuple[str, ...] = ()
    flat: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        # the hypotheses of every requested check, before any replica runs
        if self.replicas < 1:
            raise ConfigError("replicas must be at least 1")
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        for name in ("mean_decay", "second_moment_bound"):
            if name in self.checks and self.sim.mode != "auxiliary":
                raise ConfigError(f'{name} check: needs sim.mode "auxiliary"; its law '
                                  "holds for the consensus-free flow only")
        if "second_moment_bound" in self.checks:
            try:
                second_moment_constant(self.sim.noise_strength, self.sim.d)
            except DiagnosticsError as exc:
                raise ConfigError(f"second_moment_bound check: {exc}") from exc
        if "mass_bound" in self.checks:
            if self.observers.snapshot_stride is None:
                raise ConfigError("mass_bound check needs observers.snapshot_stride")
            if not self.observers.ball_radii:
                raise ConfigError("mass_bound check needs observers.ball_radii")


def _coerce(key: str, value):
    row = CONFIG_KEYS[key]
    if value is None:
        if row.default is None:
            return None
        raise ConfigError(f"config key {key!r} may not be null")
    try:
        return row.coerce(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: bad value {value!r} ({exc})") from exc


def parse_flat_config(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat dotted-key document.

    Unknown keys are errors, not warnings: a typo silently reverting a
    parameter to its default would poison every downstream number.
    """
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values: dict[str, object] = {}
    for key, row in CONFIG_KEYS.items():
        if key in mapping:
            values[key] = _coerce(key, mapping[key])
        elif row.default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            values[key] = row.default

    def fields(section: str) -> dict[str, object]:
        return {
            row.field: values[key]
            for key, row in CONFIG_KEYS.items()
            if row.field is not None and key.startswith(section + ".")
        }

    objective_name = values["objective.name"]
    if objective_name not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective_name!r}; known: {', '.join(OBJECTIVES)}"
        )
    lam_kind = values["init.lambda"]
    if lam_kind == "const":
        lo = hi = values["init.lambda_value"]
    elif lam_kind == "uniform":
        if values["init.lambda_min"] is None or values["init.lambda_max"] is None:
            raise ConfigError("uniform lambda init needs init.lambda_min and init.lambda_max")
        lo, hi = values["init.lambda_min"], values["init.lambda_max"]
    else:
        raise ConfigError(f"unknown lambda init {lam_kind!r}")
    sim = SimConfig(
        objective=OBJECTIVES[objective_name](values["sim.d"]),
        observable=ObservableMap(**fields("observable")),
        kernel=KernelSpec(**fields("kernel")),
        init=InitialLaw(**fields("init"), lambda_lo=lo, lambda_hi=hi),
        **fields("sim"),
    )
    return ExperimentConfig(
        sim=sim,
        observers=ObserverConfig(**fields("observers")),
        flat=dict(mapping),
        **fields("run"),
    )


def load_config_file(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise RunDirectoryError(f"cannot read config {path}: {exc}") from exc
    try:
        mapping = json.loads(text)
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


def _replica_batch(experiment: ExperimentConfig | dict, start: int, stop: int
                   ) -> list[TrajectoryRecord]:
    """Records of replicas start to stop - 1, stepped as one batch; a worker
    process gets the experiment as its flat document."""
    if isinstance(experiment, dict):
        experiment = parse_flat_config(experiment)
    seeds = [derive_seed(experiment.sim.seed, i) for i in range(start, stop)]
    obs = experiment.observers
    return _simulate_batch(experiment.sim, seeds, obs.stride, obs.snapshot_stride,
                          obs.ball_radii, first_replica=start)


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path.tmp and move it in, so path never holds part of it."""
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_text(text, newline="\n")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return f"sha256:{digest}"


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


def worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(ENV_WORKERS)
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(f"{ENV_WORKERS} must be an integer, got {env!r}") from None


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
    sub-batches, one per process, which requires the config to carry its
    flat-document form (configs loaded from files always do).
    """
    outdir = _resolve_output_dir(experiment, output_dir)
    if (outdir / MANIFEST_NAME).exists() and not force:
        raise RunDirectoryError(
            f"{outdir} already holds a completed run; pass force to overwrite"
        )
    n_workers = min(worker_count(workers), experiment.replicas)
    outdir.mkdir(parents=True, exist_ok=True)

    started = datetime.now(timezone.utc).isoformat()
    seeds = [derive_seed(experiment.sim.seed, i) for i in range(experiment.replicas)]

    if n_workers > 1 and experiment.flat:
        bounds = [w * experiment.replicas // n_workers for w in range(n_workers + 1)]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = pool.map(_replica_batch, [experiment.flat] * n_workers,
                             bounds[:-1], bounds[1:])
            records = [record for part in parts for record in part]
    else:
        records = _replica_batch(experiment, 0, experiment.replicas)
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
    # that run which this one does not write would outlive it
    manifest_path = outdir / MANIFEST_NAME
    stale = _earlier_artifacts(outdir)
    manifest_path.unlink(missing_ok=True)
    for path in stale:
        path.unlink(missing_ok=True)
    files: dict[str, str] = {}
    for i, record in enumerate(records):
        csv_path = outdir / f"replica_{i:03d}.csv"
        _write_atomic(csv_path, record.to_csv())
        files[csv_path.name] = _sha256(csv_path)

    failed: list[str] = []
    for name, per_replica in reports.items():
        passed = all(r["passed"] for r in per_replica)
        if not passed:
            failed.append(name)
        check_path = outdir / f"check_{name}.json"
        _write_atomic(check_path, json.dumps(
            {"check": name, "passed": passed, "replicas": per_replica},
            indent=2, sort_keys=True) + "\n")
        files[check_path.name] = _sha256(check_path)

    manifest = {
        "schema_version": 1,
        "code_version": __version__,
        "generator": {"name": GENERATOR_NAME, "numpy": np.__version__},
        "started_utc": started,
        "completed_utc": datetime.now(timezone.utc).isoformat(),
        "config": jsonable(experiment.flat) if experiment.flat else None,
        "replicas": experiment.replicas,
        "replica_seeds": seeds,
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


def _earlier_artifacts(outdir: Path) -> list[Path]:
    """Files an earlier run left: those its manifest lists, and every
    replica CSV and check report, listed or not."""
    paths = {*outdir.glob("replica_*.csv"), *outdir.glob("check_*.json")}
    try:
        listed = load_manifest(outdir).get("files", {})
    except OSError:  # no manifest, or a damaged one
        listed = {}
    # a listed name is a file of the run directory itself, never a path
    paths.update(outdir / name for name in listed if Path(name).name == name)
    return sorted(paths)


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
    root = _resolve_output_dir(experiment, output_dir)
    points: dict[str, tuple[object, ExperimentConfig]] = {}
    for raw in values:
        value = _coerce(key, raw)
        name = _point_dir_name(axis, value)
        if name in points:
            raise ConfigError(
                f"sweep values {points[name][0]!r} and {value!r} share the directory {name}"
            )
        points[name] = value, replace(
            experiment,
            sim=replace(experiment.sim, **{CONFIG_KEYS[key].field: value}),
            output_dir=None,
            flat={**experiment.flat, key: value} if experiment.flat else {},
        )
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
    if not isinstance(manifest.get("generator", {}), dict):
        raise RunDirectoryError(f"{path}: generator must be a JSON object")
    return manifest
