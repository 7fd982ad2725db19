"""Command line entry points.

Exit codes: 0 success, 1 a check or suite failed, 2 configuration error,
3 I/O error, 4 a simulation diverged (non-finite state), 5 an internal
failure (a worker process died, or memory ran out).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    SWEEP_AXES,
    RunDirectoryError,
    load_config_file,
    load_manifest,
    run,
    sweep,
)
from .sde import ConfigError, SimulationError
from .validation import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_INTERNAL = 5


def _internal_failures() -> tuple:
    """MemoryError, and BrokenProcessPool once a worker pool has loaded its module."""
    pool = sys.modules.get("concurrent.futures.process")
    return (MemoryError,) if pool is None else (MemoryError, pool.BrokenProcessPool)


def _cmd_run(args) -> int:
    experiment = load_config_file(args.config)
    result = run(
        experiment,
        output_dir=args.out,
        force=args.force,
        workers=args.workers,
    )
    print(f"run complete: {result.directory}")
    for name in experiment.checks:
        status = "FAIL" if name in result.failed_checks else "PASS"
        print(f"  {status}  {name}")
    return EXIT_OK if result.checks_passed else EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    experiment = load_config_file(args.config)
    values = [v for chunk in args.values for v in chunk.split(",") if v]
    if not values:
        raise ConfigError("sweep needs at least one value")
    results = sweep(
        experiment,
        axis=args.axis,
        values=[float(v) for v in values],
        output_dir=args.out,
        force=args.force,
        workers=args.workers,
    )
    bad = [r for r in results if not r.checks_passed]
    for r in results:
        print(f"{'FAIL' if not r.checks_passed else 'PASS'}  {r.directory}")
    return EXIT_OK if not bad else EXIT_CHECK_FAILED


def _cmd_validate(args) -> int:
    result = run_suite(args.suite)
    for line in result.lines():
        print(line)
    print(f"suite {result.suite}: {'PASS' if result.passed else 'FAIL'}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_report(args) -> int:
    manifest = load_manifest(args.run_dir)
    print(f"run directory: {args.run_dir}")
    print(f"completed: {manifest.get('completed_utc')}")
    print(f"code version: {manifest.get('code_version')}")
    gen = manifest.get("generator", {})
    simd = "" if "simd" not in gen else f", SIMD {' '.join(gen['simd']) or 'baseline'}"
    print(f"generator: {gen.get('name')} (numpy {gen.get('numpy')}{simd})")
    print(f"replicas: {manifest.get('replicas')} seeds {manifest.get('replica_seeds')}")
    for i, lam in enumerate(manifest.get("replica_lambda", [])):
        print(f"  replica {i}: clamp_events {lam.get('clamp_events')}, "
              f"lambda_min {lam.get('lambda_min')!r}, lambda_max {lam.get('lambda_max')!r}")
    checks_passed = manifest.get("checks_passed")
    if checks_passed is not None:
        print(f"checks: {manifest.get('checks')} passed={checks_passed}")
    print("files:")
    for name, digest in sorted(manifest.get("files", {}).items()):
        print(f"  {name}  {digest}")
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infocbo",
        description="Simulate and validate consensus dynamics with an evolving "
        "information rate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of one run, which a sweep makes once per value
    running = argparse.ArgumentParser(add_help=False)
    running.add_argument("config", help="flat JSON config file")
    running.add_argument("--out", help="output directory (overrides run.output_dir)")
    running.add_argument("--force", action="store_true", help="overwrite a completed run")
    running.add_argument("--workers", type=int,
                         help="replica worker processes, a whole number >= 1 (default 1)")

    p_run = sub.add_parser("run", parents=[running], help="execute one experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[running], help="run a config across one axis")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument(
        "--values", required=True, nargs="+",
        help="axis values, space or comma separated",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run a committed validation suite")
    p_val.add_argument("suite", choices=sorted(SUITES))
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("report", help="summarize a completed run directory")
    p_rep.add_argument("run_dir")
    p_rep.add_argument("--json", action="store_true", help="also dump the manifest")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RunDirectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:  # ConfigError and every other parameter error
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _internal_failures() as exc:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
