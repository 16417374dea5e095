#!/usr/bin/env python3
"""Record the benchmark's two run sets into a baseline file.

    python3 benchmarks/perf/record.py --out benchmarks/perf/BENCH_13.json

A *run set* is ``RUNS`` untraced runs of every workload, each with another
seed, plus one traced run per workload.  A file holds ``SETS`` sets of the
same code: they are what ``BENCHMARK.json``'s bounds are judged against.
For every end-to-end metric the file keeps each run's value, the median
and the quartile spread (distance between the first and third quartile as
a share of the median).  The untraced seeds of the sets are disjoint; the
traced run of every set uses ``FIRST_SEED``, so the counts and the
simulated-clock metrics of two sets, or of two files, are those of the
same inputs and can be compared for equality.  ``compare.py`` reads two
such files.

Seeds, run count and scale are constants: every baseline file is then
comparable with every other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import env, stats  # noqa: E402

RUNS = 10
SETS = 2
FIRST_SEED = 1


def one_run(workload: str, seed: int, trace: int) -> Dict[str, object]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode not in (0, 1):  # 1 = operations failed; still a result
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - started
    return result


def run_set(workloads: List[str], seeds: List[int]) -> Dict[str, object]:
    recorded: Dict[str, object] = {}
    for workload in workloads:
        runs = [one_run(workload, seed, 0) for seed in seeds]
        metrics: Dict[str, Dict[str, object]] = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "values": values,
                "median": stats.median(values),
                "spread": stats.quartile_spread(values),
            }
        traced = one_run(workload, FIRST_SEED, 1)
        recorded[workload] = {
            "seeds": seeds,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "wall_s": [round(run["wall_s"], 1) for run in runs],
            "end_to_end": metrics,
            "per_layer": {
                "seed": FIRST_SEED,
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "metrics": {name: entry["value"]
                            for name, entry in traced["metrics"].items()},
            },
        }
        for name, entry in metrics.items():
            print(f"{workload:14s} {name:14s} median {entry['median']:12.5g} "
                  f"spread {100 * entry['spread']:5.1f}%", flush=True)
    return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    declaration = env.load_declaration()
    workloads = [w["name"] for w in declaration["workloads"]]
    sets = []
    for number in range(SETS):
        first = FIRST_SEED + number * RUNS
        print(f"# run set {number + 1} of {SETS}", flush=True)
        sets.append(run_set(workloads, list(range(first, first + RUNS))))
    document = {
        "environment": env.environment(),
        "bounds": {m["name"]: m["bound"] for m in declaration["end_to_end"]},
        "sets": sets,
    }
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
