"""Experiment runner: flat config files, replica execution, manifests.

A run directory holds one statistics CSV per replica, one JSON per requested
check, and a manifest written last; the manifest's presence marks the run as
complete. Reruns of the same config produce byte-identical CSVs.
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

import numpy as np

from . import __version__
from .diagnostics import (
    DiagnosticsError,
    lambda_persistence_check,
    mass_bound_fit,
    mean_decay_check,
    second_moment_bound_check,
)
from .infokernel import KernelSpec
from .objectives import ObservableMap, quadratic, rastrigin_like
from .sde import ConfigError, InitialLaw, SimConfig, SimulationError, simulate
from .trajectory import TrajectoryRecord
from .util import GENERATOR_NAME, derive_seed, jsonable

ENV_WORKERS = "INFOCBO_WORKERS"
ENV_OUTPUT_ROOT = "INFOCBO_OUTPUT_ROOT"

MANIFEST_NAME = "manifest.json"

CHECK_NAMES = ("mean_decay", "second_moment_bound", "lambda_persistence", "mass_bound")

SWEEP_AXES = {
    "n": ("sharpness", float),
    "N": ("n_particles", int),
    "noise_strength": ("noise_strength", float),
    "dt": ("dt", float),
}

OBJECTIVES = {"quadratic": quadratic, "rastrigin": rastrigin_like}

# key -> (required, default); values are validated while building SimConfig
CONFIG_KEYS: dict[str, tuple[bool, object]] = {
    "sim.d": (True, None),
    "sim.N": (True, None),
    "sim.n": (False, 1.0),
    "sim.drift_gain": (False, 1.0),
    "sim.noise_strength": (False, 0.0),
    "sim.dt": (True, None),
    "sim.t_end": (True, None),
    "sim.seed": (True, None),
    "sim.mode": (False, "full"),
    "sim.truncation_radius": (False, None),
    "sim.shared_noise": (False, False),
    "objective.name": (True, None),
    "observable.variant": (False, "identity"),
    "observable.m_g": (False, 1.0),
    "kernel.variant": (True, None),
    "kernel.a": (True, None),
    "kernel.b": (False, 0.0),
    "kernel.theta": (False, None),
    "init.spatial": (True, None),
    "init.center": (True, None),
    "init.spread": (False, 0.0),
    "init.lambda": (False, "const"),
    "init.lambda_value": (False, 0.5),
    "init.lambda_min": (False, None),
    "init.lambda_max": (False, None),
    "observers.stride": (False, 1),
    "observers.snapshot_stride": (False, None),
    "observers.ball_radii": (False, ()),
    "run.output_dir": (False, None),
    "run.replicas": (False, 1),
    "run.checks": (False, ()),
}


class RunDirectoryError(OSError):
    """Output directory conflicts (existing manifest without force, etc.)."""


@dataclass(frozen=True)
class ObserverConfig:
    stride: int = 1
    snapshot_stride: int | None = None
    ball_radii: tuple[float, ...] = ()


@dataclass
class ExperimentConfig:
    sim: SimConfig
    observers: ObserverConfig = ObserverConfig()
    output_dir: str | None = None
    replicas: int = 1
    checks: tuple[str, ...] = ()
    flat: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError("replicas must be at least 1")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ConfigError(
                    f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}"
                )
        if "mass_bound" in self.checks and not self.observers.ball_radii:
            raise ConfigError("mass_bound check needs observers.ball_radii")


def _coerce(key: str, value):
    if value is None:
        return None
    try:
        if key in ("sim.d", "sim.N", "sim.seed", "observers.stride",
                   "observers.snapshot_stride", "run.replicas"):
            if isinstance(value, float) and not value.is_integer():
                raise ValueError("not an integer")
            return int(value)
        if key in ("sim.shared_noise",):
            if not isinstance(value, bool):
                raise ValueError("expected true/false")
            return value
        if key in ("init.center", "observers.ball_radii"):
            return tuple(float(v) for v in value)
        if key in ("run.checks",):
            return tuple(str(v) for v in value)
        if key in ("sim.mode", "objective.name", "observable.variant",
                   "kernel.variant", "init.spatial", "init.lambda",
                   "run.output_dir"):
            return str(value)
        return float(value)
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
    for key, (required, default) in CONFIG_KEYS.items():
        if key in mapping:
            values[key] = _coerce(key, mapping[key])
        elif required:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            values[key] = default

    objective_name = values["objective.name"]
    if objective_name not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective_name!r}; known: {', '.join(OBJECTIVES)}"
        )
    objective = OBJECTIVES[objective_name](values["sim.d"])
    observable = ObservableMap(values["observable.variant"], values["observable.m_g"])
    kernel = KernelSpec(
        variant=values["kernel.variant"],
        a=values["kernel.a"],
        b=values["kernel.b"],
        theta=values["kernel.theta"],
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
    init = InitialLaw(
        spatial_kind=values["init.spatial"],
        center=values["init.center"],
        spread=values["init.spread"],
        lambda_lo=lo,
        lambda_hi=hi,
    )
    sim = SimConfig(
        d=values["sim.d"],
        n_particles=values["sim.N"],
        dt=values["sim.dt"],
        t_end=values["sim.t_end"],
        seed=values["sim.seed"],
        objective=objective,
        observable=observable,
        kernel=kernel,
        init=init,
        sharpness=values["sim.n"],
        drift_gain=values["sim.drift_gain"],
        noise_strength=values["sim.noise_strength"],
        mode=values["sim.mode"],
        truncation_radius=values["sim.truncation_radius"],
        shared_noise=values["sim.shared_noise"],
    )
    observers = ObserverConfig(
        stride=values["observers.stride"],
        snapshot_stride=values["observers.snapshot_stride"],
        ball_radii=values["observers.ball_radii"],
    )
    snapshot_stride = observers.snapshot_stride
    if "mass_bound" in values["run.checks"] and snapshot_stride is None:
        raise ConfigError("mass_bound check needs observers.snapshot_stride")
    return ExperimentConfig(
        sim=sim,
        observers=observers,
        output_dir=values["run.output_dir"],
        replicas=values["run.replicas"],
        checks=values["run.checks"],
        flat=dict(mapping),
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


def _run_checks(record: TrajectoryRecord, experiment: ExperimentConfig) -> dict:
    """One report dict per requested check name for a single replica."""
    sim = experiment.sim
    reports: dict[str, dict] = {}
    for name in experiment.checks:
        if name == "mean_decay":
            rep = mean_decay_check(record)
            reports[name] = {"passed": rep.ok, "report": jsonable(rep)}
        elif name == "second_moment_bound":
            rep = second_moment_bound_check(record, sim)
            reports[name] = {"passed": rep.ok, "report": jsonable(rep)}
        elif name == "lambda_persistence":
            rep = lambda_persistence_check(record)
            reports[name] = {"passed": rep.ok, "report": jsonable(rep)}
        elif name == "mass_bound":
            per_radius = [
                mass_bound_fit(record, r) for r in experiment.observers.ball_radii
            ]
            reports[name] = {
                "passed": all(r.ok for r in per_radius),
                "report": [jsonable(r) for r in per_radius],
            }
    return reports


def _replica_record(experiment: ExperimentConfig, index: int) -> TrajectoryRecord:
    sim = replace(experiment.sim, seed=derive_seed(experiment.sim.seed, index))
    try:
        return simulate(
            sim,
            record_stride=experiment.observers.stride,
            snapshot_stride=experiment.observers.snapshot_stride,
            ball_radii=experiment.observers.ball_radii,
        )
    except SimulationError as exc:
        raise SimulationError(f"replica {index}: {exc}") from exc


def _replica_record_from_flat(flat: dict, index: int) -> TrajectoryRecord:
    return _replica_record(parse_flat_config(flat), index)


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
    return max(1, int(env)) if env else 1


def run(
    experiment: ExperimentConfig,
    output_dir: str | Path | None = None,
    force: bool = False,
    workers: int | None = None,
) -> RunResult:
    """Execute every replica, write CSVs and check reports, manifest last.

    Replica i runs on the derived seed hash(master, i), so replica streams
    never overlap and adding replicas never perturbs existing ones. With
    workers > 1 replicas run in separate processes; this requires the config
    to carry its flat-document form (configs loaded from files always do).
    """
    outdir = _resolve_output_dir(experiment, output_dir)
    if (outdir / MANIFEST_NAME).exists() and not force:
        raise RunDirectoryError(
            f"{outdir} already holds a completed run; pass force to overwrite"
        )
    outdir.mkdir(parents=True, exist_ok=True)

    started = datetime.now(timezone.utc).isoformat()
    seeds = [derive_seed(experiment.sim.seed, i) for i in range(experiment.replicas)]

    n_workers = worker_count(workers)
    if n_workers > 1 and experiment.flat:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = list(
                pool.map(
                    _replica_record_from_flat,
                    [experiment.flat] * experiment.replicas,
                    range(experiment.replicas),
                )
            )
    else:
        records = [
            _replica_record(experiment, i) for i in range(experiment.replicas)
        ]

    # from here on the directory is mid-rewrite; a manifest left from an
    # earlier run would list hashes of files about to change
    manifest_path = outdir / MANIFEST_NAME
    manifest_path.unlink(missing_ok=True)
    files: dict[str, str] = {}
    for i, record in enumerate(records):
        csv_path = outdir / f"replica_{i:03d}.csv"
        csv_path.write_text(record.to_csv(), newline="\n")
        files[csv_path.name] = _sha256(csv_path)

    failed: list[str] = []
    replica_reports = [_run_checks(record, experiment) for record in records]
    for name in experiment.checks:
        per_replica = []
        for i, reports in enumerate(replica_reports):
            report = reports[name]
            report["replica"] = i
            per_replica.append(report)
        passed = all(r["passed"] for r in per_replica)
        if not passed:
            failed.append(name)
        check_path = outdir / f"check_{name}.json"
        check_path.write_text(
            json.dumps({"check": name, "passed": passed, "replicas": per_replica},
                       indent=2, sort_keys=True)
            + "\n"
        )
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
    partial = manifest_path.with_name(MANIFEST_NAME + ".tmp")
    partial.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(partial, manifest_path)
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
    """One run per axis value in subdirectories axis=value, plus an index."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; known: {', '.join(SWEEP_AXES)}")
    field_name, cast = SWEEP_AXES[axis]
    root = _resolve_output_dir(experiment, output_dir)
    results = []
    entries = []
    flat_key = {"n": "sim.n", "N": "sim.N", "noise_strength": "sim.noise_strength",
                "dt": "sim.dt"}[axis]
    for raw in values:
        value = cast(raw)
        sub = replace(experiment.sim, **{field_name: value})
        flat = dict(experiment.flat)
        if flat:
            flat[flat_key] = value
        point = ExperimentConfig(
            sim=sub,
            observers=experiment.observers,
            output_dir=None,
            replicas=experiment.replicas,
            checks=experiment.checks,
            flat=flat,
        )
        subdir = root / _point_dir_name(axis, value)
        results.append(run(point, output_dir=subdir, force=force, workers=workers))
        entries.append({"value": value, "dir": subdir.name})
    index = {"axis": axis, "points": entries}
    root.mkdir(parents=True, exist_ok=True)
    (root / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return results


def load_manifest(run_dir: str | Path) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise RunDirectoryError(f"{run_dir} has no {MANIFEST_NAME}; run incomplete?")
    return json.loads(path.read_text())
