"""Runner tests: flat configs, run directories, sweeps, and the CLI.

Everything here drives tiny ensembles (N = 8, a handful of steps) so the
file stays fast; physics-scale runs live in test_acceptance.py.
"""

import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from infocbo.cli import EXIT_DIVERGED, main
from infocbo.diagnostics import DiagnosticsError
from infocbo.harness import (
    CONFIG_KEYS,
    MANIFEST_NAME,
    REQUIRED,
    ExperimentConfig,
    ObserverConfig,
    RunDirectoryError,
    _replica_batch,
    load_config_file,
    load_manifest,
    parse_flat_config,
    run,
    sweep,
    worker_count,
)
from infocbo.sde import ConfigError, SimulationError
from infocbo.util import derive_seed

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


def config(**overrides):
    doc = dict(BASE)
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# flat config parsing


def test_base_covers_exactly_the_required_keys():
    required = {key for key, row in CONFIG_KEYS.items() if row.default is REQUIRED}
    assert required <= set(BASE)


def test_readme_config_section_names_exactly_the_table_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"\b[a-z]+\.[A-Za-z_]+\b", section)) == set(CONFIG_KEYS)


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
    assert exp.flat == config()


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("sim.N", 7.5),           # integer keys refuse fractional floats
        ("sim.dt", "fast"),
        ("sim.shared_noise", 1),  # truthiness is not a bool
        ("init.center", 3.0),     # must be a sequence of floats
    ],
)
def test_parse_bad_values(key, value):
    with pytest.raises(ConfigError, match="bad value"):
        parse_flat_config(config(**{key: value}))


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
    assert load_config_file(path).flat == config()


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
    assert manifest["config"] == doc
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


def test_check_that_raises_leaves_the_earlier_run_intact(tmp_path):
    outdir = tmp_path / "out"
    run(parse_flat_config(config(**{"run.replicas": 2})), output_dir=outdir)
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}
    # every agent starts at the origin, so the ceiling has no base to scale
    at_origin = config(**{"sim.mode": "auxiliary", "init.spatial": "point",
                          "init.center": [0.0, 0.0],
                          "run.checks": ["second_moment_bound"]})
    with pytest.raises(DiagnosticsError, match="initial second moment"):
        run(parse_flat_config(at_origin), output_dir=outdir, force=True)
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


def test_worker_pool_matches_serial(tmp_path):
    # three workers get one replica each; two get an uneven split
    doc = config(**{"sim.noise_strength": 0.25, "run.replicas": 3})
    exp = parse_flat_config(doc)
    serial = run(exp, output_dir=tmp_path / "1", workers=1)
    for workers in (2, 3):
        parallel = run(exp, output_dir=tmp_path / str(workers), workers=workers)
        assert serial.manifest["files"] == parallel.manifest["files"]
        for name in serial.manifest["files"]:
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / str(workers) / name).read_bytes()


@pytest.mark.parametrize("mode, message", [
    # the consensus of the first state reached sees only infinite energies
    ("full", r"step 1/10: every atom has infinite energy.*\(replica 2\)$"),
    # the consensus-free flow overflows one step later
    ("auxiliary", r"step 2/10: non-finite position in replica 2 leaving"),
])
def test_a_sub_batch_names_the_run_replica_and_the_step(mode, message):
    doc = config(**{"sim.drift_gain": 1e300, "sim.mode": mode, "run.replicas": 4})
    with np.errstate(all="ignore"), pytest.raises(SimulationError, match=f"^{message}"):
        _replica_batch(doc, 2, 4)


def test_worker_pool_needs_flat_document(tmp_path):
    # hand-built configs carry no flat form, so they run serially and the
    # manifest records no config document
    exp = parse_flat_config(config())
    bare = ExperimentConfig(sim=exp.sim, observers=exp.observers)
    result = run(bare, output_dir=tmp_path / "out", workers=4)
    assert result.manifest["config"] is None
    assert (tmp_path / "out" / "replica_000.csv").exists()


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


def test_worker_count_precedence(monkeypatch):
    monkeypatch.delenv("INFOCBO_WORKERS", raising=False)
    assert worker_count(None) == 1
    assert worker_count(3) == 3
    assert worker_count(0) == 1  # floored at one process
    monkeypatch.setenv("INFOCBO_WORKERS", "5")
    assert worker_count(None) == 5
    assert worker_count(2) == 2  # explicit argument wins over the env
    monkeypatch.setenv("INFOCBO_WORKERS", "two")
    with pytest.raises(ConfigError, match="INFOCBO_WORKERS must be an integer, got 'two'"):
        worker_count(None)


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


def test_cli_nan_parameter_exits_2(tmp_path, capsys):
    # json accepts NaN, and NaN slips through every range comparison
    path = write_config(tmp_path, config(**{"sim.noise_strength": math.nan}))
    assert "NaN" in path.read_text()
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "noise_strength must be finite" in capsys.readouterr().err
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
    assert (CONFIG_KEYS[key].default is None) == (code == 0)
    path = write_config(tmp_path, config(**{key: None}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
    if code:
        assert f"config error: config key {key!r} may not be null" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_divergence_exits_4(tmp_path, capsys):
    path = write_config(tmp_path, config(**{"sim.drift_gain": 1e300, "run.replicas": 2}))
    with np.errstate(all="ignore"):
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGED == 4
    err = capsys.readouterr().err
    # both replicas reach infinite energies at step 1; the first is named
    assert re.search(r"^simulation diverged: step 1/10: .*\(replica 0\)$", err, re.M)
    with pytest.raises(RunDirectoryError):
        load_manifest(tmp_path / "out")


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


def test_cli_non_integer_workers_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INFOCBO_WORKERS", "two")
    path = write_config(tmp_path, config())
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "INFOCBO_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert "config key 'sim.N': bad value 2.5 (not an integer)" in capsys.readouterr().err
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


def test_cli_report_missing_run_exits_3(tmp_path):
    assert main(["report", str(tmp_path / "nothing")]) == 3


@pytest.mark.parametrize("text", ['{"files": ', "[1, 2]", '{"files": [1, 2]}',
                                  '{"files": {"replica_000.csv": 1}}', '{"generator": "x"}'])
def test_cli_report_damaged_manifest_exits_3(tmp_path, capsys, text):
    (tmp_path / MANIFEST_NAME).write_text(text)
    assert main(["report", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_validate_suite(capsys):
    code = main(["validate", "decay"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite decay: PASS" in out
