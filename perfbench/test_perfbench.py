"""Tests of the benchmark's own arithmetic: spans, ratios, output digests."""

import spans
import workloads
from infocbo import sde
from infocbo.infokernel import KernelSpec
from infocbo.objectives import ObservableMap, quadratic


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert tracer.stats == {
        "b": [1, 1, 1],
        "a": [1, 3, 2],
        "c": [1, 4, 4],
        "root": [1, 10, 3],
    }


def test_wrapped_calls_outside_a_root_span_are_not_recorded():
    tracer = spans.Tracer()
    double = tracer.wrap("double", lambda v: 2 * v)
    assert double(2) == 4
    assert tracer.stats == {}
    with tracer.span("iteration"):
        assert double(3) == 6
    assert tracer.calls("double") == 1


def tiny_config(steps):
    return sde.SimConfig(
        d=2,
        n_particles=8,
        dt=0.1,
        t_end=0.1 * steps,
        seed=7,
        objective=quadratic(2),
        observable=ObservableMap(),
        kernel=KernelSpec("logistic", a=1.0, b=1.0),
        init=sde.InitialLaw.gaussian(center=(1.0, 1.0), sigma=1.0, lambda_lo=0.2),
        noise_strength=0.5,
    )


def test_calls_per_step_on_a_known_step_count():
    steps = 5
    original = sde.em_step
    tracer = spans.Tracer()
    with spans.install(tracer) as unmeasured:
        assert sde.em_step is not original
        with tracer.span("iteration"):
            sde.simulate(tiny_config(steps), record_stride=1)
    assert sde.em_step is original
    assert unmeasured == []
    metrics = spans.layer_metrics(tracer, iterations=1)
    assert metrics["sde.em_step.calls"] == (steps, "count")
    # one consensus per step, plus one per recorded state (t = 0 and each step)
    assert metrics["sde.consensus_fields.calls_per_step"] == ((2 * steps + 1) / steps, "ratio")
    assert metrics["infokernel.PopulationSummary.calls_per_step"] == (1.0, "ratio")
    assert metrics["sde.em_step.bytes_computed"][0] == steps * 8 * (2 * 16 + 2 * 8 + 16)
    assert metrics["sde.simulate.busy_ms"][0] >= metrics["sde.em_step.busy_ms"][0] > 0


def test_a_name_the_code_lacks_is_unmeasured_not_zero():
    layers = (spans.Layer("sde", "em_step"), spans.Layer("sde", "no_such_step"))
    tracer = spans.Tracer()
    with spans.install(tracer, layers) as unmeasured:
        pass
    assert unmeasured == ["sde.no_such_step"]
    metrics = spans.layer_metrics(tracer, 1, layers, unmeasured)
    assert "sde.no_such_step.calls" not in metrics
    assert metrics["sde.em_step.calls"] == (0, "count")


def test_digest_check_rejects_a_perturbed_output(tmp_path):
    workload = workloads.WORKLOADS["harness_cli"]
    out = tmp_path / "run"
    out.mkdir()
    (out / "replica_000.csv").write_text("time,m2_sq\n0,1.5\n")
    (out / "check_mean_decay.json").write_text('{"passed": true}\n')
    (out / "manifest.json").write_text('{"completed_utc": "a"}\n')
    inputs = (None, None, tmp_path)
    seed = 3
    references = {"harness_cli": [None] * workloads.VARIANTS}
    references["harness_cli"][workloads.variant_of(seed)] = workload.digest(inputs, 0)

    (out / "manifest.json").write_text('{"completed_utc": "b"}\n')
    assert workloads.verify(workload.digest(inputs, 0), references, "harness_cli", seed)
    assert not workloads.verify(workload.digest(inputs, 1), references, "harness_cli", seed)
    (out / "replica_000.csv").write_text("time,m2_sq\n0,1.6\n")
    assert not workloads.verify(workload.digest(inputs, 0), references, "harness_cli", seed)


def test_every_variant_has_a_committed_reference():
    references = workloads.load_references()
    assert sorted(references) == sorted(workloads.WORKLOADS)
    for digests in references.values():
        assert len(digests) == workloads.VARIANTS
        assert len(set(digests)) == workloads.VARIANTS
