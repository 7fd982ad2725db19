"""One benchmark process: a set-up probe, or the measured iterations.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds T --trace 0|1

run.py starts it with PYTHONPATH pointing at the checkout's src/ and reads
the JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HOST_CPUS = sorted(os.sched_getaffinity(0))  # before main() pins the process
WARMUP_ITERATIONS = 1
MIN_ITERATIONS = 3


def check_source() -> None:
    """Refuse to measure an infocbo that is not the checkout's own source."""
    import infocbo

    src = (ROOT / "src").resolve()
    if src not in Path(infocbo.__file__).resolve().parents:
        raise SystemExit(f"infocbo imported from {infocbo.__file__}, not from {src}")


def peak_rss_mib() -> float:
    # VmHWM belongs to this process image; ru_maxrss can carry the parent's
    # high-water mark across exec
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def machine_facts() -> dict:
    import numpy
    import scipy
    from infocbo.util import GENERATOR_NAME

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = platform.processor() or "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(HOST_CPUS),
        "pinned_cpu": min(HOST_CPUS),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "generator": GENERATOR_NAME,
    }


def run_phase(workload, inputs, references, seed, seconds, tracer=None,
              min_iterations=MIN_ITERATIONS) -> dict:
    """Timed iterations for `seconds`, each checked against the reference.

    The host-speed probe runs between iterations; an iteration's time at
    reference speed uses the mean of the probes on either side of it.
    """
    probe = hostspeed.Probe(*workload.probe)
    walls: list[float] = []
    cpus: list[float] = []
    scaled: list[float] = []
    failed = 0
    before = probe.seconds()
    started = time.perf_counter()
    while len(walls) < min_iterations or time.perf_counter() - started < seconds:
        workload.prepare(inputs)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.iterate(inputs)
            else:
                with tracer.span("iteration"):
                    output = workload.iterate(inputs)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            ok = workloads.verify(workload.digest(inputs, output), references,
                                  workload.name, seed)
        except Exception:  # a failed iteration is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            ok = False
        after = probe.seconds()
        walls.append(wall)
        cpus.append(cpu)
        scaled.append(wall * probe.scale(0.5 * (before + after)))
        failed += not ok
        before = after
    return {"wall_s": walls, "cpu_s": cpus, "reference_s": scaled, "failed": failed}


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    check_source()
    references = workloads.load_references()
    inputs = workload.setup(args.seed, workdir)
    warmup = run_phase(workload, inputs, references, args.seed, 0.0,
                       min_iterations=WARMUP_ITERATIONS)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "variant": workloads.variant_of(args.seed),
        "agent_steps_per_iteration": workload.agent_steps(inputs),
        "machine": machine_facts(),
        "warmup_iterations": len(warmup["wall_s"]),
        "warmup_failed": warmup["failed"],
    }
    if not args.trace:
        result["timed"] = run_phase(workload, inputs, references, args.seed, args.seconds)
        result["peak_rss_mib"] = peak_rss_mib()
        return result
    # untraced and traced halves of the same process: the difference of their
    # median iteration walls is the tracing overhead
    result["untraced"] = run_phase(workload, inputs, references, args.seed, args.seconds / 2)
    tracer = spans.Tracer()
    with spans.install(tracer) as unmeasured:
        traced = run_phase(workload, inputs, references, args.seed, args.seconds / 2, tracer)
    result["traced"] = traced
    result["unmeasured"] = unmeasured
    metrics = spans.layer_metrics(tracer, len(traced["wall_s"]), unmeasured=unmeasured)
    result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return result


def setup_probe(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    probe = hostspeed.setup_probe_seconds()
    begin = time.perf_counter()
    workload.setup(args.seed, ROOT / ".perfbench_out")
    setup = time.perf_counter() - begin
    check_source()
    return {"setup_s": setup,
            "setup_reference_s": setup * hostspeed.SETUP_REFERENCE_S / probe}


def main() -> None:
    # one vCPU for the whole process, so the host-speed probe and the timed
    # work always share that vCPU's current speed
    os.sched_setaffinity(0, {min(HOST_CPUS)})
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    result = setup_probe(args) if args.mode == "setup" else measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
