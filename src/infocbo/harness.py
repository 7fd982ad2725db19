"""Experiment runner: flat config files, replica execution, manifests.

A run directory holds one statistics CSV per replica, one JSON per requested
check, and a manifest written last; the manifest's presence marks the run as
complete. Reruns of the same config produce byte-identical CSVs.

Three tables declare what a config may say: CONFIG_KEYS (every flat key),
SWEEP_AXES (the sim keys a sweep may vary) and CHECKS (every check).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
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
    require_consensus_free,
    second_moment_bound_check,
    second_moment_constant,
)
from .infokernel import KernelSpec
from .objectives import ObservableMap, quadratic, rastrigin_like
from .sde import (ConfigError, InitialLaw, SimConfig, SimulationError, _observer_radii,
                  _simulate_batch)
from .trajectory import TrajectoryRecord
from .util import GENERATOR_NAME, derive_seed, is_real, is_whole, jsonable, real_tuple

ENV_OUTPUT_ROOT = "INFOCBO_OUTPUT_ROOT"

MANIFEST_NAME = "manifest.json"

OBJECTIVES = {"quadratic": quadratic, "rastrigin": rastrigin_like}


def _integer(value) -> int:
    if not is_whole(value):
        raise ValueError("not an integer")
    return int(value)


def _real(value) -> float:
    if not is_real(value):
        raise ValueError("not a number")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("not a string")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true/false")
    return value


def _list_of(item: Callable) -> Callable:
    """Coercion of a list each of whose entries coerces by item."""
    def coerce(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError("not a list")
        return tuple(item(v) for v in value)
    return coerce


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
    "sim.n": Key(_real, 1.0, "sharpness"),
    "sim.drift_gain": Key(_real, 1.0, "drift_gain"),
    "sim.noise_strength": Key(_real, 0.0, "noise_strength"),
    "sim.dt": Key(_real, REQUIRED, "dt"),
    "sim.t_end": Key(_real, REQUIRED, "t_end"),
    "sim.seed": Key(_integer, REQUIRED, "seed"),
    "sim.mode": Key(_text, "full", "mode"),
    "sim.truncation_radius": Key(_real, None, "truncation_radius"),
    "sim.shared_noise": Key(_bool, False, "shared_noise"),
    "objective.name": Key(_text, REQUIRED, None),
    "observable.variant": Key(_text, "identity", "variant"),
    "observable.m_g": Key(_real, 1.0, "m_g"),
    "kernel.variant": Key(_text, REQUIRED, "variant"),
    "kernel.a": Key(_real, REQUIRED, "a"),
    "kernel.b": Key(_real, 0.0, "b"),
    "kernel.theta": Key(_real, None, "theta"),
    "init.spatial": Key(_text, REQUIRED, "spatial_kind"),
    "init.center": Key(_list_of(_real), REQUIRED, "center"),
    "init.spread": Key(_real, 0.0, "spread"),
    "init.lambda": Key(_text, "const", None),
    "init.lambda_value": Key(_real, 0.5, None),
    "init.lambda_min": Key(_real, None, None),
    "init.lambda_max": Key(_real, None, None),
    "observers.stride": Key(_integer, 1, "stride"),
    "observers.snapshot_stride": Key(_integer, None, "snapshot_stride"),
    "observers.ball_radii": Key(_list_of(_real), (), "ball_radii"),
    "run.output_dir": Key(_text, None, "output_dir"),
    "run.replicas": Key(_integer, 1, "replicas"),
    "run.checks": Key(_list_of(_text), (), "checks"),
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

    def __post_init__(self) -> None:
        # the forms parse_flat_config builds, so a hand-built config equals it
        object.__setattr__(self, "ball_radii",
                           real_tuple(ConfigError, "ball_radii", self.ball_radii))
        for name in ("stride", "snapshot_stride"):  # 2.0 is stored as 2
            if is_whole(getattr(self, name)):
                object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True)  # so the checks of __post_init__ hold for its whole life
class ExperimentConfig:
    sim: SimConfig
    observers: ObserverConfig = ObserverConfig()
    output_dir: str | None = None
    replicas: int = 1
    checks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # the forms parse_flat_config builds, so a hand-built config equals it
        if not isinstance(self.checks, (list, tuple)):  # not a string's characters
            raise ConfigError(f"checks must be a list of check names, got {self.checks!r}")
        object.__setattr__(self, "checks", tuple(self.checks))
        if self.output_dir is not None:
            if not isinstance(self.output_dir, (str, os.PathLike)):  # 5 is no path
                raise ConfigError(f"output_dir must be a path, got {self.output_dir!r}")
            object.__setattr__(self, "output_dir", str(self.output_dir))
        if not (is_whole(self.replicas) and self.replicas >= 1):
            raise ConfigError(f"replicas must be a whole number >= 1, got {self.replicas!r}")
        object.__setattr__(self, "replicas", int(self.replicas))
        # the hypotheses of every requested check, before any replica runs
        for name in self.checks:
            if not isinstance(name, str) or name not in CHECKS:
                raise ConfigError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        try:
            for name in self.checks:
                if name in ("mean_decay", "second_moment_bound"):
                    require_consensus_free(self.sim.mode)
                if name == "second_moment_bound":
                    second_moment_constant(self.sim.noise_strength, self.sim.d)
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
        **fields("run"),
    )


def flat_document(experiment: ExperimentConfig) -> dict:
    """The flat document that parse_flat_config turns into experiment, with
    every key the run reads, defaults included. An experiment that no
    document states (an objective outside OBJECTIVES, say) is a ConfigError.
    """
    sim = experiment.sim
    owners = {"sim": sim, "observable": sim.observable, "kernel": sim.kernel,
              "init": sim.init, "observers": experiment.observers, "run": experiment}
    doc = {key: getattr(owners[key.split(".")[0]], row.field)
           for key, row in CONFIG_KEYS.items() if row.field is not None}
    doc["objective.name"] = sim.objective.name
    lo, hi = sim.init.lambda_lo, sim.init.lambda_hi
    doc.update({"init.lambda": "const", "init.lambda_value": lo} if lo == hi else
               {"init.lambda": "uniform", "init.lambda_min": lo, "init.lambda_max": hi})
    doc = jsonable(doc)
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


def worker_count(workers: int | None) -> int:
    """Worker processes for a run: one by default, never fewer than one."""
    return 1 if workers is None else max(1, int(workers))


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
    records, the flat document rendered from experiment.
    """
    document = flat_document(experiment)
    outdir = _resolve_output_dir(experiment, output_dir)
    if (outdir / MANIFEST_NAME).exists() and not force:
        raise RunDirectoryError(
            f"{outdir} already holds a completed run; pass force to overwrite"
        )
    n_workers = min(worker_count(workers), experiment.replicas)
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
        "generator": {"name": GENERATOR_NAME, "numpy": np.__version__},
        "started_utc": started,
        "completed_utc": datetime.now(timezone.utc).isoformat(),
        "config": document,
        "replicas": experiment.replicas,
        "replica_seeds": _replica_seeds(experiment.sim.seed, 0, experiment.replicas),
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
        value = getattr(point.sim, CONFIG_KEYS[key].field)
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
    if not isinstance(manifest.get("generator", {}), dict):
        raise RunDirectoryError(f"{path}: generator must be a JSON object")
    return manifest
