"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the infocbo source in src/ next to this
directory, with no install. With --trace 0 it reports the end-to-end metrics:
agent steps per second of the median timed iteration, set-up time (median of
fresh-process probes) and the measuring process's peak resident memory. With
--trace 1 it reports per-layer metrics from timed wrappers (see spans.py) and
the tracing overhead. Every iteration's output is checked against the digest
committed in reference_digests.json. The last line of output is the result
object; the lines before it, and .perfbench_out/, hold the details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up probes per run, half before and half after the measuring process, so
# the median spans the host's slow speed drift over the run
SETUP_PROBES = 10
DEADLINE_S = 170.0  # the whole run, set-up probes included


class BenchError(RuntimeError):
    pass


def call_worker(argv: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {argv[0]} exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {argv[0]} printed no result")
    return json.loads(lines[-1])


def describe(label: str, phase: dict) -> str:
    ref_q1, ref_q2, ref_q3 = statistics.quantiles([1e3 * w for w in phase["reference_s"]], n=4)
    wall = statistics.median(phase["wall_s"])
    cpu = statistics.median(phase["cpu_s"])
    return (f"{label}: {len(phase['wall_s'])} iterations, at reference speed median "
            f"{ref_q2:.1f} ms (q1 {ref_q1:.1f}, q3 {ref_q3:.1f}); measured wall median "
            f"{1e3 * wall:.1f} ms, cpu median {1e3 * cpu:.1f} ms, cpu/wall {cpu / wall:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "infocbo" / "__init__.py").is_file():
        print(f"error: no infocbo source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    probes: list[dict] = []

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probes.append(call_worker(["setup", *common], left()))

    half = 0 if args.trace else SETUP_PROBES // 2
    try:
        probe_setup(half)
        run = call_worker(["measure", *common, "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], left())
        probe_setup(half)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.update(run)
    report["setup_probes_s"] = probes

    lines = [f"perfbench {args.workload} seed={args.seed} variant={run['variant']} "
             f"trace={args.trace}",
             "machine: " + json.dumps(run["machine"], sort_keys=True)]
    if not args.trace:
        phases = [run["timed"]]
        steps = run["agent_steps_per_iteration"]
        setup = [p["setup_reference_s"] for p in probes]
        metrics = {
            "agent_steps_per_s": {
                "value": steps / statistics.median(run["timed"]["reference_s"]),
                "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mib"], "unit": "MiB"},
        }
        lines.append(describe("timed", run["timed"])
                     + f", after {run['warmup_iterations']} warm-up iterations")
        lines.append("at measured host speed: agent_steps_per_s "
                     f"{steps / statistics.median(run['timed']['wall_s']):.6g}, setup_s "
                     f"{statistics.median(p['setup_s'] for p in probes):.4f}")
        lines.append(f"setup_s: median of {len(probes)} fresh-process probes "
                     + ", ".join(f"{p:.4f}" for p in setup))
    else:
        phases = [run["untraced"], run["traced"]]
        untraced = statistics.median(run["untraced"]["reference_s"])
        traced = statistics.median(run["traced"]["reference_s"])
        metrics = dict(run["layers"])
        metrics["trace.overhead_ms"] = {"value": 1e3 * (traced - untraced), "unit": "ms"}
        metrics["trace.overhead_frac"] = {"value": (traced - untraced) / untraced,
                                          "unit": "ratio"}
        lines.append(describe("untraced", run["untraced"]))
        lines.append(describe("traced", run["traced"]))
        lines.append("unmeasured (names the code no longer has): "
                     + (", ".join(run["unmeasured"]) or "none"))
        lines.append("waiting: absent (single process, no queues between layers)")

    attempted = sum(len(p["wall_s"]) for p in phases) + run["warmup_iterations"]
    failed = sum(p["failed"] for p in phases) + run["warmup_failed"]
    lines.append(f"failed_frac: {failed}/{attempted} = {failed / attempted:g}")
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
