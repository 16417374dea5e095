#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 benchmarks/perf/run.py --workload single_exact --seed 3
    python3 benchmarks/perf/run.py --workload single_exact --seed 3 --traced
    python3 benchmarks/perf/run.py --all --scale tiny

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` for an untraced run, every per-layer metric
for a traced one.  ``--all`` runs each workload untraced and then traced,
each in its own process, and so prints every metric of every workload.

A run's work is fixed by the scale, not by the clock.  ``--seconds`` is
the cap ``BENCHMARK.json`` declares as ``run_seconds``: a run whose
measured rounds took longer fails, because its sizing no longer fits the
time the benchmark promises.  The exit status is 1 when an operation
failed, 2 when the cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import env  # noqa: E402  (numpy must not be imported before the pin)


def parse_args(declaration, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--workload", choices=[w["name"] for w in declaration["workloads"]]
    )
    target.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"],
                        help="cap on the measured rounds' wall time (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--scale", choices=("tiny", "default"), default="default",
                        help="tiny is for the harness's own tests")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, declaration) -> int:
    """Each (workload, trace) pair in a process of its own, so ``rss_mb``
    and the BLAS pin are those of a single-workload run."""
    status = 0
    for workload in (w["name"] for w in declaration["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--trace", str(trace), "--scale", args.scale,
                "--seconds", str(args.seconds),
            ]
            status = max(status, subprocess.run(command, check=False).returncode)
    return status


def run_one(args: argparse.Namespace, declaration) -> int:
    env.pin_blas_threads()
    env.use_checkout_src()
    from harness import runner
    from harness.ingest import IngestMixed
    from harness.search_workloads import BatchTrace, SingleApprox, SingleExact
    from harness.serving import SimServing

    classes = {cls.name: cls for cls in
               (SingleApprox, SingleExact, BatchTrace, SimServing, IngestMixed)}
    run = runner.Run(
        scale=runner.SCALES[args.scale], seed=args.seed,
        traced=bool(args.trace), cache_root=env.PERF_DIR / ".cache",
    )
    metrics = runner.execute(classes[args.workload](run))
    selected = runner.select(metrics, declaration, traced=bool(args.trace))

    results = env.PERF_DIR / "results"
    results.mkdir(exist_ok=True)
    suffix = ".traced" if args.trace else ""
    with open(results / f"{args.workload}{suffix}.json", "w", encoding="utf-8") as out:
        json.dump({
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "traced": bool(args.trace),
            "attempted": run.attempted, "failed": run.failed,
            "failures": run.failures, "per_round": run.per_round,
            "metrics": metrics,
        }, out, indent=1, sort_keys=True)
    if run.tracer is not None:
        run.tracer.write(str(results / f"{args.workload}.trace.json"))

    print(f"# {args.workload}  seed={args.seed}  scale={args.scale}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"measured {metrics['harness.measured_s']:.1f} s")
    for name, entry in selected.items():
        print(f"{args.workload:14s} {name:42s} {entry['value']:16.6g} {entry['unit']}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if metrics["harness.measured_s"] > args.seconds:
        print(f"benchmark: the measured rounds took "
              f"{metrics['harness.measured_s']:.1f} s, over the cap of "
              f"{args.seconds:g} s", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": selected,
    }))
    return 1 if run.failed else 0


def main(argv=None) -> int:
    declaration = env.load_declaration()
    args = parse_args(declaration, argv)
    return run_all(args, declaration) if args.all else run_one(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
