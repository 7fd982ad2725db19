"""Runner tests: flat configs, run directories, sweeps, and the CLI.

Everything here drives tiny ensembles (N = 8, a handful of steps) so the
file stays fast; physics-scale runs live in test_acceptance.py.
"""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from infocbo import harness
from infocbo import cli, validation
from infocbo.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INTERNAL, main
from infocbo.diagnostics import DiagnosticsError, mean_decay_check
from infocbo.harness import (
    CONFIG_KEYS,
    MANIFEST_NAME,
    ExperimentConfig,
    ObserverConfig,
    RunDirectoryError,
    _replica_batch,
    flat_document,
    load_config_file,
    load_manifest,
    parse_flat_config,
    run,
    sweep,
)
from infocbo.infokernel import KernelError, KernelSpec
from infocbo.objectives import ObjectiveError, ObjectiveSpec, ObservableMap, quadratic
from infocbo.sde import ConfigError, InitialLaw, SimConfig, SimulationError, simulate
from infocbo.util import derive_seed, jsonable, row_sum

BASE = {
    "sim.d": 2,
    "sim.N": 8,
    "sim.dt": 0.1,
    "sim.t_end": 1.0,
    "sim.seed": 77,
    "objective.name": "quadratic",
    "kernel.variant": "logistic",
    "kernel.a": 1.0,
    "init.spatial": "gaussian",
    "init.center": [1.0, -1.0],
    "init.spread": 0.5,
}

# auxiliary run whose Euler factor on deviations is -2 per step: the second
# moment quadruples each step and crosses any fixed ceiling, while the kernel
# (theta = 1/a = 4) still tolerates dt = 3
DIVERGENT = {
    "sim.mode": "auxiliary",
    "sim.dt": 3.0,
    "sim.t_end": 12.0,
    "kernel.a": 0.25,
    "run.checks": ["second_moment_bound"],
}


# configs that CI runs through the installed entry point, committed once
CONFIGS = Path(__file__).resolve().parent / "configs"


def config(**overrides):
    doc = dict(BASE)
    doc.update(overrides)
    return doc


def default(key):
    """The default of the field key sets; dataclasses.MISSING for a required key."""
    return harness._field(key).default


REQUIRED_KEYS = {key for key, where in CONFIG_KEYS.items()
                 if where and default(key) is dataclasses.MISSING}


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# flat config parsing


def test_base_covers_exactly_the_required_keys():
    assert REQUIRED_KEYS <= set(BASE)


def test_readme_config_section_names_exactly_the_table_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"\b[a-z]+\.[A-Za-z_]+\b", section)) == set(CONFIG_KEYS)


def test_readme_config_example_parses_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    exp = parse_flat_config(example)
    doc = flat_document(exp)
    assert {key: doc[key] for key in example} == example
    assert parse_flat_config(doc) == exp


def test_parse_minimal_fills_defaults():
    exp = parse_flat_config(config())
    assert exp.sim.d == 2
    assert exp.sim.n_particles == 8
    assert exp.sim.sharpness == 1.0
    assert exp.sim.drift_gain == 1.0
    assert exp.sim.noise_strength == 0.0
    assert exp.sim.mode == "full"
    assert exp.sim.shared_noise is False
    assert exp.sim.kernel.b == 0.0
    assert exp.sim.kernel.theta == pytest.approx(1.0)
    assert exp.sim.init.lambda_lo == exp.sim.init.lambda_hi == 0.5
    assert exp.observers == ObserverConfig(stride=1, snapshot_stride=None, ball_radii=())
    assert exp.replicas == 1
    assert exp.checks == ()
    assert parse_flat_config(flat_document(exp)) == exp


def test_parse_uniform_lambda_window():
    doc = config(**{"init.lambda": "uniform",
                    "init.lambda_min": 0.1, "init.lambda_max": 0.9})
    exp = parse_flat_config(doc)
    assert exp.sim.init.lambda_lo == 0.1
    assert exp.sim.init.lambda_hi == 0.9


def test_parse_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: sim.sharpness"):
        parse_flat_config(config(**{"sim.sharpness": 2.0}))


@pytest.mark.parametrize("missing", ["sim.d", "sim.seed", "kernel.a", "init.center"])
def test_parse_missing_required_key(missing):
    doc = config()
    del doc[missing]
    with pytest.raises(ConfigError, match=f"missing required config key '{missing}'"):
        parse_flat_config(doc)


BAD_VALUES = [
        ("sim.N", 7.5),           # integer keys refuse fractional floats
        ("sim.dt", "fast"),
        ("sim.shared_noise", 1),  # truthiness is not a bool
        ("init.center", 3.0),     # must be a sequence of floats
        # a number key takes no bool and no numeral string
        ("sim.N", True),
        ("sim.N", "8"),
        ("sim.dt", "0.1"),
        ("kernel.a", False),
        # a list key takes no string, whose characters would be its entries
        ("init.center", "12"),
        ("observers.ball_radii", "5"),
        ("run.checks", "mean_decay"),
        ("init.center", [1.0, "2"]),
        # a string key takes nothing else
        ("sim.mode", 1),
        ("objective.name", ["quadratic"]),
        ("run.checks", ["mean_decay", 1]),
        ("run.output_dir", 5),
]


@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_parse_bad_values(key, value):
    with pytest.raises(ConfigError, match=f"^config key '{re.escape(key)}': bad value"):
        parse_flat_config(config(**{key: value}))


# each section's constructor, found on a parsed experiment, and the error it raises
OWNERS = {
    "sim": (lambda exp: exp.sim, ConfigError),
    "objective": (lambda exp: exp.sim.objective, ObjectiveError),
    "kernel": (lambda exp: exp.sim.kernel, KernelError),
    "init": (lambda exp: exp.sim.init, ConfigError),
    "observers": (lambda exp: exp.observers, ConfigError),
    "run": (lambda exp: exp, ConfigError),
}


@pytest.mark.parametrize("key, value", sorted(  # objective last: a list value's id is its index
    [(key, value) for key, value in BAD_VALUES if key.split(".")[0] in OWNERS],
    key=lambda case: case[0].startswith("objective.")))
def test_constructors_refuse_what_the_parser_refuses(key, value):
    owner, error = OWNERS[key.split(".")[0]]
    with pytest.raises(error):
        dataclasses.replace(owner(parse_flat_config(config())), **{CONFIG_KEYS[key][1]: value})


@pytest.mark.parametrize("build, match", [
    (lambda sim: ObserverConfig(ball_radii=("0.5",)),
     r"ball_radii\[0\] must be finite and real, got '0.5'"),
    (lambda sim: ObserverConfig(ball_radii=(True,)),
     r"ball_radii\[0\] must be finite and real, got True"),
    (lambda sim: ExperimentConfig(sim, checks="mean_decay"),
     "checks must be a list of strings, got 'mean_decay'"),
    (lambda sim: ExperimentConfig(sim, replicas=True), "replicas must be a whole number, got True"),
    (lambda sim: ExperimentConfig(sim, replicas=2.5), "replicas must be a whole number, got 2.5"),
    (lambda sim: ExperimentConfig(sim, checks=("lambda_persistence", "lambda_persistence")),
     "check 'lambda_persistence' is given twice"),
], ids=["numeral_radius", "bool_radius", "checks_string", "bool_replicas", "fractional_replicas",
        "check_twice"])
def test_hand_built_experiments_keep_the_parser_rules(build, match):
    with pytest.raises(ConfigError, match=f"^{match}$"):
        build(parse_flat_config(config()).sim)


def test_an_integral_float_replica_count_is_stored_as_an_int():
    exp = ExperimentConfig(parse_flat_config(config()).sim, replicas=2.0)
    assert exp.replicas == 2 and type(exp.replicas) is int
    assert exp == parse_flat_config(config(**{"run.replicas": 2}))


def test_integral_float_strides_are_stored_as_ints():
    steps8 = {"sim.t_end": 0.8, "observers.stride": 2, "observers.snapshot_stride": 4}
    parsed = parse_flat_config(config(**steps8))
    hand = ExperimentConfig(parsed.sim, ObserverConfig(stride=2.0, snapshot_stride=4.0))
    assert type(hand.observers.stride) is int and type(hand.observers.snapshot_stride) is int
    # the manifest records this document: 2.0 would be written where the parsed run writes 2
    assert json.dumps(flat_document(hand)) == json.dumps(flat_document(parsed))
    # and 1.0 where a hand-built 1 is given for a real
    ints = parse_flat_config(config(**{"sim.noise_strength": 0, "kernel.a": 1, "init.spread": 1}))
    sim = dataclasses.replace(ints.sim, noise_strength=0, kernel=KernelSpec("logistic", a=1),
                              init=InitialLaw("gaussian", (1, -1), 1))
    assert type(sim.noise_strength) is type(sim.kernel.a) is type(sim.init.spread) is float
    assert json.dumps(flat_document(ExperimentConfig(sim))) == json.dumps(flat_document(ints))
    # a stride that is no whole number is refused by the observers alone
    for stride in ({"stride": "2"}, {"snapshot_stride": 2.5}, {"snapshot_stride": True}):
        with pytest.raises(ConfigError, match=f"^{next(iter(stride))} must be a whole number"):
            ObserverConfig(**stride)


def test_the_required_keys_alone_parse_to_the_constructor_defaults():
    # the constructors state every default; this pins the parser's own init.lambda* defaults
    doc = {"sim.d": 2, "sim.N": 8, "sim.dt": 0.1, "sim.t_end": 1.0, "sim.seed": 77,
           "objective.name": "quadratic", "kernel.variant": "logistic", "kernel.a": 1.0,
           "init.spatial": "point", "init.center": [1.0, -1.0]}
    assert set(doc) == REQUIRED_KEYS
    sim = SimConfig(d=2, n_particles=8, dt=0.1, t_end=1.0, seed=77, objective=quadratic(2),
                    observable=ObservableMap(), kernel=KernelSpec("logistic", a=1.0),
                    init=InitialLaw("point", (1.0, -1.0)))
    assert parse_flat_config(doc) == ExperimentConfig(sim)


def test_parse_integral_float_accepted_for_int_keys():
    exp = parse_flat_config(config(**{"sim.N": 8.0}))
    assert exp.sim.n_particles == 8
    assert isinstance(exp.sim.n_particles, int)


def test_parse_unknown_objective():
    with pytest.raises(ConfigError, match="unknown objective"):
        parse_flat_config(config(**{"objective.name": "ackley"}))


def test_parse_uniform_lambda_needs_both_bounds():
    doc = config(**{"init.lambda": "uniform", "init.lambda_min": 0.1})
    with pytest.raises(ConfigError, match="lambda_max"):
        parse_flat_config(doc)


@pytest.mark.parametrize("doc, key", [
    ({"init.lambda_min": 0.1, "init.lambda_max": 0.9}, "init.lambda_max"),
    ({"init.lambda": "const", "init.lambda_min": 0.1}, "init.lambda_min"),
    ({"init.lambda": "uniform", "init.lambda_value": 0.2,
      "init.lambda_min": 0.1, "init.lambda_max": 0.9}, "init.lambda_value"),
])
def test_parse_refuses_lambda_keys_the_law_does_not_read(doc, key):
    # forgetting "init.lambda": "uniform" would otherwise run lambda_0 = 0.5
    with pytest.raises(ConfigError, match=f"^config key '{key}' does not apply to init.lambda"):
        parse_flat_config(config(**doc))


def test_parse_unknown_lambda_kind():
    with pytest.raises(ConfigError, match="unknown lambda init"):
        parse_flat_config(config(**{"init.lambda": "beta"}))


def test_parse_unknown_check_name():
    with pytest.raises(ConfigError, match="unknown check"):
        parse_flat_config(config(**{"run.checks": ["mean_decay", "entropy"]}))


def test_parse_mass_bound_needs_snapshot_stride():
    doc = config(**{"run.checks": ["mass_bound"], "observers.ball_radii": [1.0]})
    with pytest.raises(ConfigError, match="snapshot_stride"):
        parse_flat_config(doc)


def test_parse_mass_bound_needs_ball_radii():
    doc = config(**{"run.checks": ["mass_bound"], "observers.snapshot_stride": 10})
    with pytest.raises(ConfigError, match="ball_radii"):
        parse_flat_config(doc)


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"run.checks": ["mean_decay"]}, 'mean_decay check: needs sim.mode "auxiliary"'),
        ({"run.checks": ["second_moment_bound"]}, "second_moment_bound check: needs sim.mode"),
        ({"run.checks": ["second_moment_bound"], "sim.mode": "auxiliary",
          "sim.noise_strength": 1.0}, r"noise_strength\^2 \* d < 2 violated \(2 >= 2\)"),
    ],
)
def test_parse_check_hypotheses(overrides, match):
    with pytest.raises(ConfigError, match=match):
        parse_flat_config(config(**overrides))


# an atom at the origin, and one whose |c|^2 underflows to 0 (1e-200 squared)
@pytest.mark.parametrize("center", [[0.0, 0.0], [1e-200, -0.0]])
def test_second_moment_bound_on_an_atom_at_the_origin_is_refused_before_any_run(
        tmp_path, center):
    # every agent starts where m2_sq(0) = 0, so the ceiling C * m2_sq(0) has no base
    doc = config(**{"sim.mode": "auxiliary", "init.spatial": "point",
                    "init.center": center, "run.checks": ["second_moment_bound"]})
    with pytest.raises(ConfigError, match="^second_moment_bound check: initial second "
                                          "moment must be positive$"):
        parse_flat_config(doc)
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert not out.exists()


def test_hand_built_mass_bound_experiment_is_refused_before_writing(tmp_path):
    sim = parse_flat_config(config()).sim
    with pytest.raises(ConfigError, match="snapshot_stride"):
        run(ExperimentConfig(sim=sim, observers=ObserverConfig(ball_radii=(1.0,)),
                             checks=("mass_bound",)),
            output_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_parse_replicas_must_be_positive():
    with pytest.raises(ConfigError, match="replicas"):
        parse_flat_config(config(**{"run.replicas": 0}))


def test_a_checked_experiment_cannot_be_changed():
    experiment = parse_flat_config(config())
    with pytest.raises(dataclasses.FrozenInstanceError):
        experiment.replicas = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        experiment.checks = ("nonsense",)


def test_load_config_file_roundtrip(tmp_path):
    path = write_config(tmp_path, config())
    assert load_config_file(path) == parse_flat_config(config())


def test_load_config_file_errors(tmp_path):
    with pytest.raises(RunDirectoryError, match="cannot read"):
        load_config_file(tmp_path / "missing.json")
    bad = write_config(tmp_path, {}, name="bad.json")
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(bad)
    arr = write_config(tmp_path, {}, name="arr.json")
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(arr)


# ---------------------------------------------------------------------------
# run directories


def test_run_writes_replicas_checks_and_manifest(tmp_path):
    doc = config(**{"run.replicas": 2, "run.checks": ["lambda_persistence"]})
    result = run(parse_flat_config(doc), output_dir=tmp_path / "out")
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == [
        "check_lambda_persistence.json",
        "manifest.json",
        "replica_000.csv",
        "replica_001.csv",
    ]
    assert result.checks_passed
    assert result.failed_checks == ()
    manifest = load_manifest(tmp_path / "out")
    assert manifest["replica_seeds"] == [derive_seed(77, 0), derive_seed(77, 1)]
    assert manifest["config"] == flat_document(parse_flat_config(doc))
    assert parse_flat_config(manifest["config"]) == parse_flat_config(doc)
    assert manifest["checks"] == ["lambda_persistence"]
    assert manifest["checks_passed"] is True


def test_manifest_inventory_matches_disk(tmp_path):
    doc = config(**{"run.replicas": 2, "run.checks": ["lambda_persistence"]})
    result = run(parse_flat_config(doc), output_dir=tmp_path / "out")
    files = result.manifest["files"]
    assert MANIFEST_NAME not in files
    assert len(files) == 3
    for name, digest in files.items():
        recomputed = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert digest == f"sha256:{recomputed}"


@pytest.mark.parametrize("overrides, clamped", [
    ({}, False),
    # dt past theta = 1 / a by the float slack SimConfig allows: each lambda < 1 steps past 1
    ({"kernel.b": 0.0, "sim.dt": 1 + 5e-13, "sim.t_end": 2 * (1 + 5e-13)}, True),
], ids=["stable", "clamped"])
def test_manifest_and_report_carry_each_replicas_lambda_invariant(
    tmp_path, capsys, overrides, clamped
):
    doc = config(**{"run.replicas": 3, "sim.noise_strength": 0.5, "init.lambda": "uniform",
                    "init.lambda_min": 0.1, "init.lambda_max": 0.4, **overrides})
    run(parse_flat_config(doc), output_dir=tmp_path / "out")
    records = _replica_batch(flat_document(parse_flat_config(doc)), 0, 3)
    assert load_manifest(tmp_path / "out")["replica_lambda"] == [
        {"clamp_events": r.clamp_events, "lambda_min": r.lambda_min, "lambda_max": r.lambda_max}
        for r in records
    ]
    assert all((r.clamp_events > 0) == clamped for r in records)
    assert main(["report", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    for i, r in enumerate(records):
        assert (f"  replica {i}: clamp_events {r.clamp_events}, lambda_min {r.lambda_min!r}, "
                f"lambda_max {r.lambda_max!r}\n") in out


def test_rerun_refused_then_forced(tmp_path):
    exp = parse_flat_config(config())
    outdir = tmp_path / "out"
    first = run(exp, output_dir=outdir)
    with pytest.raises(RunDirectoryError, match="force"):
        run(exp, output_dir=outdir)
    second = run(exp, output_dir=outdir, force=True)
    assert second.manifest["files"] == first.manifest["files"]


def test_failed_forced_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    run(parse_flat_config(config(**{"run.replicas": 2})), output_dir=outdir)
    real_write_text = Path.write_text
    csv_writes = []

    def failing_second_csv(self, *args, **kwargs):
        if self.name.endswith(".csv.tmp"):  # each CSV is written beside its final name
            csv_writes.append(self.name)
            if len(csv_writes) == 2:
                raise OSError("injected write failure")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_second_csv)
    rerun = parse_flat_config(config(**{"run.replicas": 2, "sim.seed": 78}))
    with pytest.raises(OSError, match="injected"):
        run(rerun, output_dir=outdir, force=True)
    # replica_000.csv now holds the new run, so the old manifest would lie
    assert csv_writes == ["replica_000.csv.tmp", "replica_001.csv.tmp"]
    with pytest.raises(RunDirectoryError):
        load_manifest(outdir)


def test_a_failed_csv_write_leaves_no_partial_csv_and_no_manifest(tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    real_write_text = Path.write_text

    def disk_full_in_second_csv(self, text, *args, **kwargs):
        if self.name.startswith("replica_001"):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("injected: no space left on device")
        return real_write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_full_in_second_csv)
    with pytest.raises(OSError, match="injected"):
        run(parse_flat_config(config(**{"run.replicas": 3})), output_dir=outdir)
    assert sorted(p.name for p in outdir.iterdir()) == ["replica_000.csv"]


def test_check_that_raises_leaves_the_earlier_run_intact(tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    run(parse_flat_config(config(**{"run.replicas": 2})), output_dir=outdir)
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}

    def refuse(record, exp):  # a check that fails to report once every replica has run
        raise DiagnosticsError("no report on this record")

    monkeypatch.setitem(harness.CHECKS, "lambda_persistence", refuse)
    doc = config(**{"run.checks": ["lambda_persistence"]})
    with pytest.raises(DiagnosticsError, match="no report on this record"):
        run(parse_flat_config(doc), output_dir=outdir, force=True)
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before


def test_forced_rerun_removes_files_the_new_run_does_not_write(tmp_path):
    outdir = tmp_path / "out"
    run(parse_flat_config(config(**{"run.replicas": 2,
                                    "run.checks": ["lambda_persistence"]})),
        output_dir=outdir)
    (outdir / "replica_007.csv").write_text("stray\n")
    (outdir / "notes.txt").write_text("kept\n")
    result = run(parse_flat_config(config()), output_dir=outdir, force=True)
    assert sorted(result.manifest["files"]) == ["replica_000.csv"]
    assert sorted(p.name for p in outdir.iterdir()) == [
        MANIFEST_NAME, "notes.txt", "replica_000.csv"]


def test_forced_rerun_keeps_a_user_file_the_old_manifest_lists(tmp_path):
    outdir = tmp_path / "out"
    run(parse_flat_config(config()), output_dir=outdir)
    (outdir / "notes.txt").write_text("kept\n")
    manifest = json.loads((outdir / MANIFEST_NAME).read_text())
    manifest["files"]["notes.txt"] = "sha256:0"
    (outdir / MANIFEST_NAME).write_text(json.dumps(manifest))
    run(parse_flat_config(config()), output_dir=outdir, force=True)
    assert (outdir / "notes.txt").read_text() == "kept\n"


def test_forced_rerun_deletes_only_listed_names_inside_the_run_directory(tmp_path):
    outdir = tmp_path / "out"
    outside = tmp_path / "outside.txt"
    outside.write_text("not a run file\n")
    run(parse_flat_config(config()), output_dir=outdir)
    manifest = json.loads((outdir / MANIFEST_NAME).read_text())
    manifest["files"]["../outside.txt"] = "sha256:0"
    (outdir / MANIFEST_NAME).write_text(json.dumps(manifest))
    run(parse_flat_config(config()), output_dir=outdir, force=True)
    assert outside.exists()


def test_forced_rerun_over_a_manifest_with_a_bad_files_field(tmp_path):
    outdir = tmp_path / "out"
    run(parse_flat_config(config()), output_dir=outdir)
    (outdir / MANIFEST_NAME).write_text('{"files": [1, 2]}')
    result = run(parse_flat_config(config()), output_dir=outdir, force=True)
    assert sorted(result.manifest["files"]) == ["replica_000.csv"]


def test_reruns_are_byte_identical(tmp_path):
    doc = config(**{"sim.noise_strength": 0.3, "run.replicas": 2,
                    "run.checks": ["lambda_persistence"]})
    exp = parse_flat_config(doc)
    a = run(exp, output_dir=tmp_path / "a")
    b = run(exp, output_dir=tmp_path / "b")
    assert a.manifest["files"]
    for name in a.manifest["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("stem", ["run", "blocks", "crowd", "ball"])
def test_worker_pool_matches_serial(tmp_path, stem):
    # CI's cross-worker configs, three replicas each: three workers get one
    # replica each, two an uneven split. The block lengths of blocks, crowd and
    # ball (tier1.yml gives them) divide none of their steps; ball draws each
    # replica from a ball into whichever batch rows its worker gives it
    exp = load_config_file(CONFIGS / f"{stem}.json")
    serial = run(exp, output_dir=tmp_path / "1", workers=1)
    for workers in (2, 3):
        parallel = run(exp, output_dir=tmp_path / str(workers), workers=workers)
        assert serial.manifest["files"] == parallel.manifest["files"]
        assert serial.manifest["replica_lambda"] == parallel.manifest["replica_lambda"]
        for name in serial.manifest["files"]:
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / str(workers) / name).read_bytes()


@pytest.mark.parametrize("overrides, message", [
    # the consensus of the first state reached sees only infinite energies
    ({"sim.drift_gain": 1e300},
     r"step 1/10: every atom has infinite energy.*\(replica 2\)$"),
    # the consensus-free flow overflows one step later
    ({"sim.drift_gain": 1e300, "sim.mode": "auxiliary"},
     r"step 2/10: non-finite position in replica 2 leaving"),
    # the consensus of the initial state already sees only infinite energies
    ({"init.spatial": "point", "init.center": [1e200, 0.0]},
     r"step 0/10: every atom has infinite energy.*\(replica 2\)$"),
], ids=["full", "auxiliary", "initial_state"])
def test_a_sub_batch_names_the_run_replica_and_the_step(overrides, message):
    doc = config(**overrides, **{"run.replicas": 4})
    with np.errstate(all="ignore"), pytest.raises(SimulationError, match=f"^{message}"):
        _replica_batch(doc, 2, 4)


def assert_same_files(a, b):
    assert a.manifest["files"]
    assert a.manifest["files"] == b.manifest["files"]
    for name in a.manifest["files"]:
        assert (a.directory / name).read_bytes() == (b.directory / name).read_bytes()


def test_hand_built_config_runs_through_the_worker_pool(tmp_path, monkeypatch):
    pools = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    # run imports the pool from concurrent.futures when it starts workers
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
    sim = parse_flat_config(config(**{"sim.noise_strength": 0.25})).sim
    bare = ExperimentConfig(sim=sim, observers=ObserverConfig(ball_radii=(1.0,)), replicas=3)
    serial = run(bare, output_dir=tmp_path / "1", workers=1)
    parallel = run(bare, output_dir=tmp_path / "2", workers=2)
    assert pools == [2]
    assert_same_files(serial, parallel)
    assert parse_flat_config(parallel.manifest["config"]) == bare


def test_hand_built_list_and_path_fields_read_back_as_parsed(tmp_path):
    sim = parse_flat_config(config()).sim
    observers = ObserverConfig(snapshot_stride=10, ball_radii=[1, 3.0])
    exp = ExperimentConfig(sim=sim, observers=observers, output_dir=tmp_path / "out",
                           checks=["mass_bound"])
    assert exp.observers.ball_radii == (1.0, 3.0)
    assert exp.checks == ("mass_bound",)
    assert exp.output_dir == str(tmp_path / "out")
    result = run(exp)
    assert parse_flat_config(result.manifest["config"]) == exp
    assert result.manifest["config"]["run.output_dir"] == str(tmp_path / "out")


def test_a_replaced_config_runs_and_records_what_it_states(tmp_path):
    # the stepped, the recorded and the worker-parsed experiment are one
    exp = parse_flat_config(config(**{"sim.noise_strength": 0.25, "run.replicas": 2}))
    changed = dataclasses.replace(exp, sim=dataclasses.replace(exp.sim, seed=99, n_particles=5))
    serial = run(changed, output_dir=tmp_path / "1", workers=1)
    parallel = run(changed, output_dir=tmp_path / "2", workers=2)
    assert_same_files(serial, parallel)
    for result in (serial, parallel):
        assert result.manifest["replica_seeds"] == [derive_seed(99, 0), derive_seed(99, 1)]
        assert parse_flat_config(result.manifest["config"]) == changed
    alone = simulate(dataclasses.replace(changed.sim, seed=derive_seed(99, 0)))
    assert (tmp_path / "1" / "replica_000.csv").read_text() == alone.to_csv()


def test_the_manifest_config_reproduces_the_run(tmp_path):
    doc = config(**{"sim.noise_strength": 0.3, "init.lambda": "uniform",
                    "init.lambda_min": 0.1, "init.lambda_max": 0.7,
                    "observers.ball_radii": [0.5, 2.0], "run.replicas": 2,
                    "run.checks": ["lambda_persistence"]})
    first = tmp_path / "first"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(first)]) == 0
    recorded = load_manifest(first)["config"]
    again = tmp_path / "again"
    path = write_config(tmp_path, recorded, name="recorded.json")
    assert main(["run", str(path), "--out", str(again)]) == 0
    assert load_manifest(again)["config"] == recorded
    files = load_manifest(first)["files"]
    assert files == load_manifest(again)["files"]
    for name in files:
        assert (first / name).read_bytes() == (again / name).read_bytes()


def _elsewhere(points):
    return 10.0 * row_sum(points * points)


@pytest.mark.parametrize("objective, match", [
    (ObjectiveSpec("scaled", 2, 10.0, 10.0, 2.0, _elsewhere), "unknown objective 'scaled'"),
    # a name OBJECTIVES knows, with constants its objective does not have
    (ObjectiveSpec("quadratic", 2, 10.0, 10.0, 2.0, _elsewhere), "no flat document states"),
    # the library's name and constants, but an objective of its own: == ignores fn
    (ObjectiveSpec("quadratic", 2, 1.0, 1.0, 2.0, _elsewhere), "not the library objective"),
])
def test_an_experiment_without_a_document_is_refused_before_writing(tmp_path, objective, match):
    exp = parse_flat_config(config())
    unstated = dataclasses.replace(exp, sim=dataclasses.replace(exp.sim, objective=objective))
    assert dataclasses.replace(unstated.sim, objective=quadratic(2)) == exp.sim
    with pytest.raises(ConfigError, match=match):
        run(unstated, output_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match=match):
        sweep(unstated, axis="n", values=[1.0, 2.0], output_dir=tmp_path / "sw")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "sw").exists()


def test_zero_horizon_run_records_a_single_row(tmp_path):
    exp = parse_flat_config(config(**{"sim.t_end": 0.0}))
    run(exp, output_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "replica_000.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("time,")


def test_record_stride_thins_csv_rows(tmp_path):
    exp = parse_flat_config(config(**{"observers.stride": 5}))
    run(exp, output_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "replica_000.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # t = 0, 0.5, 1.0


def test_run_mass_bound_check(tmp_path):
    doc = config(**{
        "observers.snapshot_stride": 10,
        "observers.ball_radii": [3.0, 5.0],
        "run.checks": ["mass_bound"],
    })
    result = run(parse_flat_config(doc), output_dir=tmp_path / "out")
    assert result.checks_passed
    payload = json.loads((tmp_path / "out" / "check_mass_bound.json").read_text())
    assert payload["passed"] is True
    assert len(payload["replicas"][0]["report"]) == 2


def test_failing_check_is_reported_not_raised(tmp_path):
    result = run(parse_flat_config(config(**DIVERGENT)), output_dir=tmp_path / "out")
    assert not result.checks_passed
    assert result.failed_checks == ("second_moment_bound",)
    payload = json.loads((tmp_path / "out" / "check_second_moment_bound.json").read_text())
    assert payload["passed"] is False
    assert payload["replicas"][0]["report"]["violated_at"] is not None
    assert result.manifest["checks_passed"] is False


def test_run_needs_an_output_directory():
    with pytest.raises(ConfigError, match="output"):
        run(parse_flat_config(config()))


def test_output_root_env_redirects_relative_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("INFOCBO_OUTPUT_ROOT", str(tmp_path))
    exp = parse_flat_config(config(**{"run.output_dir": "rel/out"}))
    result = run(exp)
    assert result.directory == tmp_path / "rel" / "out"
    assert (tmp_path / "rel" / "out" / MANIFEST_NAME).exists()


def test_output_root_env_leaves_absolute_dirs_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("INFOCBO_OUTPUT_ROOT", str(tmp_path / "elsewhere"))
    outdir = tmp_path / "abs"
    run(parse_flat_config(config()), output_dir=outdir)
    assert (outdir / MANIFEST_NAME).exists()


@pytest.mark.parametrize("workers", [0, -1, 1.5, "2", True])
def test_a_worker_count_that_is_not_a_whole_number_of_at_least_one_is_refused(
        tmp_path, workers):
    # unchecked, each ran one process in silence; refused before any directory is made
    message = f"workers must be a whole number >= 1, got {workers!r}"
    exp = parse_flat_config(config())
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run(exp, output_dir=out, workers=workers)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sweep(exp, axis="n", values=[1.0, 4.0], output_dir=out, workers=workers)
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_refuses_a_worker_count_below_one(tmp_path, workers):
    out = tmp_path / "out"
    path = write_config(tmp_path, config())
    assert main(["run", str(path), "--out", str(out), "--workers", workers]) == EXIT_CONFIG
    assert not out.exists()


def test_load_manifest_requires_completed_run(tmp_path):
    with pytest.raises(RunDirectoryError, match="incomplete"):
        load_manifest(tmp_path)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_layout_and_index(tmp_path):
    exp = parse_flat_config(config())
    # the last two values agree to six significant digits, which is all the
    # short directory name shows, so they fall back to the exact form
    values = [1.0, 4.0, 1.0000001, 1.0000002]
    names = ["n=1", "n=4", "n=1.0000001", "n=1.0000002"]
    results = sweep(exp, axis="n", values=values, output_dir=tmp_path / "sw")
    assert [r.directory.name for r in results] == names
    index = json.loads((tmp_path / "sw" / "index.json").read_text())
    assert index == {
        "axis": "n",
        "points": [{"value": v, "dir": d} for v, d in zip(values, names)],
    }
    for result, value in zip(results, values):
        manifest = load_manifest(result.directory)
        assert manifest["config"]["sim.n"] == value


@pytest.mark.parametrize("force", [False, True])
def test_sweep_refuses_values_sharing_a_directory_before_any_run(tmp_path, force):
    exp = parse_flat_config(config())
    with pytest.raises(ConfigError, match="share the directory n=2"):
        sweep(exp, axis="n", values=[2.0, 2.0], output_dir=tmp_path / "sw", force=force)
    assert not (tmp_path / "sw").exists()


def test_sweep_refuses_particle_counts_equal_after_the_cast(tmp_path):
    exp = parse_flat_config(config())
    with pytest.raises(ConfigError, match="share the directory N=4"):
        sweep(exp, axis="N", values=[4.0, 6.0, 4], output_dir=tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_sweep_casts_particle_counts_to_int(tmp_path):
    exp = parse_flat_config(config())
    results = sweep(exp, axis="N", values=[4.0, 6.0], output_dir=tmp_path / "sw")
    assert [r.directory.name for r in results] == ["N=4", "N=6"]
    assert load_manifest(results[0].directory)["config"]["sim.N"] == 4


def test_sweep_refuses_points_that_break_a_check_hypothesis_before_any_run(tmp_path):
    exp = parse_flat_config(config(**{"sim.mode": "auxiliary",
                                      "run.checks": ["second_moment_bound"]}))
    with pytest.raises(ConfigError, match="second_moment_bound check"):
        sweep(exp, axis="noise_strength", values=[0.1, 1.0], output_dir=tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_sweep_refuses_a_point_its_stride_does_not_divide_before_any_run(tmp_path):
    # dt = 0.01 runs 100 steps, which a stride of 4 divides; dt = 0.02 runs 50
    exp = parse_flat_config(config(**{"sim.dt": 0.01, "observers.stride": 4}))
    with pytest.raises(ConfigError,
                       match="^observers.stride = 4 must be positive and divide 50 steps$"):
        sweep(exp, axis="dt", values=[0.01, 0.02], output_dir=tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_sweep_unknown_axis(tmp_path):
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        sweep(parse_flat_config(config()), axis="theta", values=[1.0],
              output_dir=tmp_path / "sw")


def test_sweep_empty_values_writes_empty_index(tmp_path):
    results = sweep(parse_flat_config(config()), axis="dt", values=[],
                    output_dir=tmp_path / "sw")
    assert results == []
    index = json.loads((tmp_path / "sw" / "index.json").read_text())
    assert index == {"axis": "dt", "points": []}


# ---------------------------------------------------------------------------
# command line


def test_cli_run_success(tmp_path, capsys):
    path = write_config(tmp_path, config(**{"run.checks": ["lambda_persistence"]}))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "run complete" in out
    assert "PASS  lambda_persistence" in out


def test_cli_mean_decay_run_writes_its_verdict_and_reports_it(tmp_path, capsys):
    doc = config(**{"sim.mode": "auxiliary", "run.replicas": 2, "run.checks": ["mean_decay"]})
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    records = _replica_batch(flat_document(parse_flat_config(doc)), 0, 2)
    reports = [mean_decay_check(r) for r in records]
    assert json.loads((out / "check_mean_decay.json").read_text()) == {
        "check": "mean_decay", "passed": True,
        "replicas": [{"passed": True, "replica": i, "report": jsonable(r)}
                     for i, r in enumerate(reports)],
    }
    assert all(math.isfinite(r.max_rel_error) for r in reports)
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "\nchecks: ['mean_decay'] passed=True\n" in capsys.readouterr().out


def test_cli_run_check_failure_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, config(**DIVERGENT))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL  second_moment_bound" in capsys.readouterr().out


def test_cli_config_error_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, config(**{"sim.dt": -1}))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, message", [
    (["run"], {"init.spatial": "cube"}, "unknown initial law 'cube'"),
    (["run"], {"init.spread": 0.0}, "gaussian/ball initial laws need a positive spread"),
    (["run"], {"sim.N": 0}, "need d >= 1 and at least one particle"),
    (["run"], {"sim.noise_strength": -0.5}, "noise strength must be nonnegative"),
    (["run"], {"kernel.theta": 0.0}, "stability step theta must be positive"),
    (["run"], {"observable.variant": "saturated", "observable.m_g": 0.0},
     "observable bound m_g must be positive"),
    (["sweep", "--axis", "n", "--values", ","], {}, "sweep needs at least one value"),
], ids=["spatial", "spread", "particles", "noise", "theta", "m_g", "sweep_values"])
def test_cli_refuses_a_bad_field_with_exit_2_and_no_directory(tmp_path, capsys, command,
                                                               overrides, message):
    path = write_config(tmp_path, config(**overrides))
    out = tmp_path / "out"
    assert main([command[0], str(path), "--out", str(out), *command[1:]]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_cli_nan_parameter_exits_2(tmp_path, capsys):
    # json accepts NaN, and NaN slips through every range comparison
    path = write_config(tmp_path, config(**{"sim.noise_strength": math.nan}))
    assert "NaN" in path.read_text()
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "noise_strength must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_key_given_twice_exits_2(tmp_path, capsys):
    # json.loads alone would run the last value, N = 4
    text = json.dumps(config(**{"sim.N": 8}))
    path = tmp_path / "exp.json"
    path.write_text(text[:-1] + ', "sim.N": 4}')
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: config key 'sim.N' is given twice\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, code", [
    ("sim.d", 2),
    ("sim.N", 2),
    ("kernel.a", 2),
    ("init.center", 2),
    ("run.replicas", 2),
    ("observers.stride", 2),
    ("sim.shared_noise", 2),
    ("sim.truncation_radius", 0),
])
def test_cli_null_is_accepted_only_where_the_default_is_null(tmp_path, capsys, key, code):
    assert (default(key) is None) == (code == 0)
    path = write_config(tmp_path, config(**{key: None}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
    if code:
        assert f"config error: config key {key!r} may not be null" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_divergence_exits_4(tmp_path, capsys):
    initial = {"sim.N": 1, "sim.seed": 4, "init.spread": 1e154, "run.replicas": 3}
    for i, (overrides, workers, message) in enumerate([
        # both replicas reach infinite energies at step 1; the first is named
        ({"sim.drift_gain": 1e300, "run.replicas": 2}, "1", r"step 1/10: .*\(replica 0\)"),
        # one agent per replica; only the last starts beyond float range, and
        # it is named by its index in the run whatever sub-batch steps it
        (initial, "1", r"step 0/10: .*\(replica 2\)"),
        (initial, "2", r"step 0/10: .*\(replica 2\)"),
    ]):
        path = write_config(tmp_path, config(**overrides), name=f"exp{i}.json")
        out = tmp_path / f"out{i}"
        with np.errstate(all="ignore"):
            code = main(["run", str(path), "--out", str(out), "--workers", workers])
        assert code == EXIT_DIVERGED == 4
        err = capsys.readouterr().err
        assert re.search(f"^simulation diverged: {message}$", err, re.M)
        with pytest.raises(RunDirectoryError):
            load_manifest(out)


@pytest.mark.parametrize("failure, message", [
    (BrokenProcessPool("A child process terminated abruptly"),
     "BrokenProcessPool: A child process terminated abruptly"),
    (MemoryError(), "MemoryError"),
], ids=["dead_worker", "out_of_memory"])
def test_cli_internal_failure_exits_5(tmp_path, capsys, monkeypatch, failure, message):
    # neither is a check that failed, so neither may leave with exit 1
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "run", fail)
    path = write_config(tmp_path, config())
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--workers", "2"])
    assert code == EXIT_INTERNAL == 5
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_cli_other_runtime_errors_are_not_internal_failures(tmp_path, capsys, monkeypatch):
    # BrokenProcessPool is a RuntimeError; exit 5 is for it and MemoryError alone
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", fail)
    path = write_config(tmp_path, config())
    with pytest.raises(RuntimeError, match="^boom$"):
        main(["run", str(path), "--out", str(tmp_path / "out"), "--workers", "2"])
    assert "internal error:" not in capsys.readouterr().err


def test_a_one_process_run_never_loads_the_process_pool(tmp_path):
    # a fresh interpreter: this one has loaded multiprocessing already
    path = write_config(tmp_path, config())
    code = f"""
import sys
from infocbo import cli
code = cli.main(["run", {str(path)!r}, "--out", {str(tmp_path / "out")!r}, "--workers", "1"])
print(code, "multiprocessing" in sys.modules, "concurrent.futures.process" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False False"
    assert load_manifest(tmp_path / "out")["files"]


@pytest.mark.parametrize("overrides, message", [
    ({"observers.ball_radii": [1.0, 1.0]}, "ball radius 1.0 is given twice"),
    ({"observers.ball_radii": [2, 0.5, 2.0]}, "ball radius 2.0 is given twice"),
    ({"observers.ball_radii": [-1.0]}, "ball radii must be positive"),
    ({"observers.stride": 4}, "observers.stride = 4 must be positive and divide 10 steps"),
    ({"sim.n": -1.0}, "sharpness must be nonnegative"),
    ({"run.checks": ["mass_bound", "mass_bound"], "observers.snapshot_stride": 10,
      "observers.ball_radii": [3.0]}, "check 'mass_bound' is given twice"),
], ids=["radius_twice", "radius_twice_int_and_float", "negative_radius", "stride_not_dividing",
        "negative_sharpness", "check_twice"])
def test_cli_ball_radius_given_twice_exits_2_before_any_csv(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, config(**overrides, **{"run.replicas": 2}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_wrong_mode_check_exits_2(tmp_path):
    # mean decay is an auxiliary-flow law; requesting it on a full-mode run
    # is a configuration mistake, and the directory stays incomplete
    path = write_config(tmp_path, config(**{"run.checks": ["mean_decay"]}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(RunDirectoryError):
        load_manifest(tmp_path / "out")


def test_cli_forced_rerun_with_a_wrong_mode_check_keeps_the_earlier_run(tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", str(write_config(tmp_path, config())), "--out", out]) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    path = write_config(tmp_path, config(**{"run.checks": ["mean_decay"]}), name="decay.json")
    assert main(["run", str(path), "--out", out, "--force"]) == 2
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


def test_cli_existing_dir_exits_3_without_force(tmp_path, capsys):
    path = write_config(tmp_path, config())
    out = str(tmp_path / "out")
    assert main(["run", str(path), "--out", out]) == 0
    assert main(["run", str(path), "--out", out]) == 3
    assert "error" in capsys.readouterr().err
    assert main(["run", str(path), "--out", out, "--force"]) == 0


def test_cli_missing_config_exits_3(tmp_path):
    missing = str(tmp_path / "none.json")
    assert main(["run", missing, "--out", str(tmp_path / "out")]) == 3


def test_cli_output_under_a_regular_file_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, config())
    (tmp_path / "afile").write_text("")
    assert main(["run", str(path), "--out", str(tmp_path / "afile" / "sub")]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")


def test_cli_sweep_comma_values(tmp_path):
    path = write_config(tmp_path, config())
    code = main(["sweep", str(path), "--axis", "n", "--values", "1,4",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "index.json").exists()
    assert (tmp_path / "sw" / "n=1" / MANIFEST_NAME).exists()
    assert (tmp_path / "sw" / "n=4" / MANIFEST_NAME).exists()


def test_cli_sweep_refuses_a_fractional_particle_count(tmp_path, capsys):
    path = write_config(tmp_path, config())
    code = main(["sweep", str(path), "--axis", "N", "--values", "4,2.5",
                 "--out", str(tmp_path / "sw")])
    assert code == 2
    assert "config key 'sim.N': bad value 2.5 (n_particles must be a whole number, got 2.5)" \
        in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_report_json_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, config())
    main(["run", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    code = main(["report", str(tmp_path / "out"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    manifest = json.loads(out[out.index("{"):])
    assert manifest == load_manifest(tmp_path / "out")


def test_manifest_and_report_name_numpys_simd_dispatch_targets(tmp_path, capsys):
    # exp, log and power round differently per target, so the bits a run
    # directory holds are those of the targets it names
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    path = write_config(tmp_path, config())
    main(["run", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    targets = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    assert load_manifest(tmp_path / "out")["generator"]["simd"] == targets
    assert main(["report", str(tmp_path / "out")]) == 0
    assert (f"generator: numpy.random.Philox (numpy {np.__version__}, SIMD "
            f"{' '.join(targets) or 'baseline'})\n") in capsys.readouterr().out


def test_a_manifest_without_simd_targets_still_reports(tmp_path, capsys):
    # a run directory written before the targets were recorded
    path = write_config(tmp_path, config())
    main(["run", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    manifest_path = tmp_path / "out" / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    del manifest["generator"]["simd"]
    manifest_path.write_text(json.dumps(manifest))
    assert load_manifest(tmp_path / "out") == manifest
    assert main(["report", str(tmp_path / "out")]) == 0
    assert (f"generator: numpy.random.Philox (numpy {np.__version__})\n"
            in capsys.readouterr().out)


def test_cli_report_missing_run_exits_3(tmp_path):
    assert main(["report", str(tmp_path / "nothing")]) == 3


@pytest.mark.parametrize("text", ['{"files": ', "[1, 2]", '{"files": [1, 2]}',
                                  '{"files": {"replica_000.csv": 1}}', '{"generator": "x"}',
                                  '{"generator": {"simd": "AVX2"}}',
                                  '{"generator": {"simd": [1]}}',
                                  '{"replica_lambda": {}}', '{"replica_lambda": [0.5]}'])
def test_cli_report_damaged_manifest_exits_3(tmp_path, capsys, text):
    (tmp_path / MANIFEST_NAME).write_text(text)
    assert main(["report", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(validation.SUITES))
def test_cli_validate_suite(name, capsys, monkeypatch):
    # the heavy runs are cached, so this reuses those test_acceptance.py made
    results = []

    def recording(suite):
        results.append(validation.run_suite(suite))
        return results[-1]

    monkeypatch.setattr(cli, "run_suite", recording)
    code = main(["validate", name])
    out = capsys.readouterr().out.splitlines()
    (result,) = results
    assert code == 0 and result.outcomes
    assert out == result.lines() + [f"suite {name}: PASS"]
    assert all(line.startswith("PASS  ") for line in out[:-1])
