"""The run loop every workload shares, the scales, and result output.

One run = input generation (not timed as set-up) -> the program's set-up
``SETUP_REPEATS`` times (median reported, in seconds at the yardstick's
nominal speed) -> warm-up -> ``ROUNDS``
measured rounds of a fixed operation count each -> a fixed tail of work
some workloads need -> metrics.

The work of a run is fixed by the scale, never by the clock, so counts
and the simulated-clock metrics repeat exactly for a given seed however
fast the machine is.  A timing metric is the median over rounds of the
per-round statistic.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from . import env, stats
from .data import CollectionSpec, InputCache
from .tracing import Tracer
from .yardstick import Yardstick

#: The program's set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Measured rounds per run.
ROUNDS = 5

#: Neighbours per query (the paper uses 30 throughout).
K = 30

#: The approximate operating point: the paper's DQ recall of about 0.8.
APPROX_CHUNKS = 16


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes of every workload at one scale; op counts are per round.

    ``default`` is what ``BENCHMARK.json`` is measured at: three set-ups,
    a cold input cache and the measured rounds fit a 30-second run on two
    cores, and the rounds take 7-8 s, well under half of ``run_seconds``,
    because the shared sandbox runs up to 1.8x slower for minutes at a
    time.  ``tiny`` exists for the harness's own tests.
    """

    name: str
    main: CollectionSpec
    main_leaf: int
    approx_round: int  # single_approx queries
    exact_round: int  # single_exact queries
    batch_size: int  # queries in the batch_trace batch
    batch_repeats: int  # times the batch runs to completion
    batch_single_calls: int  # one-query search_batch calls
    serving: CollectionSpec
    serving_leaf: int
    serving_cache_mib: float
    serve_requests: int  # phase A requests
    shard_requests: int  # phase B requests
    n_shards: int
    ingest_base: CollectionSpec
    ingest_leaf: int
    ingest_batches: int  # acked batches, with a checkpoint half-way
    recall_queries: int = 32
    reference_subset: int = 8


def _spec(n: int, patterns: int) -> CollectionSpec:
    return CollectionSpec(n_descriptors=n, n_patterns=patterns)


SCALES: Dict[str, Scale] = {
    "tiny": Scale(
        name="tiny",
        main=_spec(12_000, 40), main_leaf=150,
        approx_round=24, exact_round=8,
        batch_size=16, batch_repeats=1, batch_single_calls=8,
        serving=_spec(6_000, 40), serving_leaf=100, serving_cache_mib=0.25,
        serve_requests=40, shard_requests=24, n_shards=4,
        ingest_base=_spec(3_000, 40), ingest_leaf=100,
        ingest_batches=8,
        recall_queries=16, reference_subset=4,
    ),
    "default": Scale(
        name="default",
        main=_spec(500_000, 400), main_leaf=1000,
        approx_round=640, exact_round=36,
        batch_size=64, batch_repeats=3, batch_single_calls=64,
        serving=_spec(200_000, 400), serving_leaf=400, serving_cache_mib=8.0,
        serve_requests=120, shard_requests=40, n_shards=8,
        ingest_base=_spec(50_000, 400), ingest_leaf=400,
        ingest_batches=48,
    ),
}


class Operation:
    """One or ``n`` attempted operations being judged.  Each failed
    expectation fails one of them; an exception fails those that are left."""

    def __init__(self, run: "Run", what: str, n: int):
        self._run = run
        self.what = what
        self.n = n
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        if not ok and self.failed < self.n:
            self.failed += 1
            self._run.fail(f"{self.what}: {what}")


class Run:
    """What one run hands its workload: knobs, scratch space, the tally."""

    def __init__(self, scale: Scale, seed: int, traced: bool, cache_root: Path):
        self.scale = scale
        self.seed = int(seed)
        self.tracer: Optional[Tracer] = Tracer() if traced else None
        self.cache = InputCache(cache_root / "inputs")
        self.workdir = cache_root / f"run-{seed}-{time.time_ns()}"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.yardstick = Yardstick()
        #: Yardstick seconds per round: median of the samples taken at its
        #: two ends and at every seam inside it where the workload ticked.
        self.yardstick_s: List[float] = []
        self._ticks: List[float] = []
        #: Per-round values behind the gated timings, kept for the result file.
        self.per_round: Dict[str, List[float]] = {}

    def tick(self) -> None:
        """Time the yardstick now.  The run loop ticks between rounds; a
        workload also ticks at the seams inside a round, so the reference
        follows the machine as closely as the operations it is compared
        with."""
        self._ticks += self.yardstick.sample()

    def close_round(self) -> None:
        """End-of-round tick; it also opens the next round."""
        self.tick()
        self.yardstick_s.append(stats.median(self._ticks))
        self._ticks = self._ticks[-Yardstick.SAMPLES:]

    @contextmanager
    def operation(self, what: str, n: int = 1) -> Iterator[Operation]:
        """Count ``n`` operations as attempted.  Those that raise or fail
        an expectation inside the block count as failed; an exception
        ends the block and is not passed on."""
        self.attempted += n
        op = Operation(self, what, n)
        try:
            yield op
        except Exception as error:  # an operation that raises has failed
            for _ in range(op.n - op.failed):
                op.expect(False, f"raised {error!r}")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


class SetupTimer:
    """Accumulates host seconds inside the program's set-up calls, by layer."""

    def __init__(self) -> None:
        self.parts: Dict[str, float] = {}

    def time(self, layer: str, call: Callable[[], object]) -> object:
        start = time.perf_counter()
        result = call()
        self.parts[layer] = self.parts.get(layer, 0.0) + time.perf_counter() - start
        return result


class Workload:
    """Base class: the steps the run loop calls, in order."""

    name = "workload"
    #: The issue's names for this workload's ``op_p50_ms`` and ``ops_per_s``.
    op_alias = ""
    rate_alias = ""

    def __init__(self, run: Run):
        self.run = run
        self.scale = run.scale

    def make_inputs(self) -> None:
        """Generate every input from the seed (harness time, not set-up)."""
        raise NotImplementedError

    def setup(self, workdir: Path, timer: SetupTimer) -> None:
        """The program's set-up, every program call made through ``timer``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` opened (called before a repeat and at exit)."""

    def drop_inputs(self) -> None:
        """Free inputs the measured phase no longer needs (before ``rss_mb``)."""

    def warm_up(self) -> None:
        """Untimed operations that fill caches and finish lazy set-up."""

    def round(self, index: int) -> None:
        """One measured round of the workload's fixed operation count."""
        raise NotImplementedError

    def finish(self) -> None:
        """Fixed tail of work after the last round."""

    def gated_rounds(self) -> "tuple[List[float], List[float]]":
        """Per measured round: the median latency of the workload's unit
        operation in ms, and its rate in operations per second."""
        raise NotImplementedError

    def metrics(self) -> Dict[str, float]:
        """Every other metric this workload measures, by declared name."""
        raise NotImplementedError


def execute(workload: Workload) -> Dict[str, float]:
    """Drive one workload through a whole run; returns all its metrics."""
    run = workload.run
    run.workdir.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        workload.make_inputs()
        input_gen_s = time.perf_counter() - started

        setups: List[Dict[str, float]] = []
        setup_units: List[float] = []  # yardstick seconds around each set-up
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            timer = SetupTimer()
            before = run.yardstick.sample()
            workload.setup(run.workdir / f"setup-{repeat}", timer)
            setup_units.append(stats.median(before + run.yardstick.sample()))
            setups.append(timer.parts)
        workload.drop_inputs()
        gc.collect()
        workload.warm_up()

        run.tick()
        started = time.perf_counter()
        for index in range(ROUNDS):
            workload.round(index)
            run.close_round()
        measured_s = time.perf_counter() - started
        workload.finish()

        metrics = workload.metrics()
        metrics.update(gated_metrics(workload))
        del run.yardstick  # 12 MB that are the harness's, not the program's
        gc.collect()
        metrics["rss_mb"] = env.rss_mb()
    finally:
        workload.teardown()
        shutil.rmtree(run.workdir, ignore_errors=True)

    for layer in sorted({name for parts in setups for name in parts}):
        metrics[layer] = stats.median([parts.get(layer, 0.0) for parts in setups])
    wall = [sum(parts.values()) for parts in setups]
    metrics["harness.setup_wall_s"] = stats.median(wall)
    metrics["setup_s"] = stats.median(
        [s * Yardstick.NOMINAL_UNIT_S / unit for s, unit in zip(wall, setup_units)]
    )
    metrics["harness.input_gen_s"] = input_gen_s
    metrics["harness.measured_s"] = measured_s
    metrics["failed_fraction"] = run.failed / max(1, run.attempted)
    return metrics


def gated_metrics(workload: Workload) -> Dict[str, float]:
    """The two timing metrics every workload shares, on the wall clock and
    relative to the yardstick of the same round, each as the median over
    rounds (see :mod:`.yardstick` for why the relative ones are gated)."""
    latency_ms, per_s = workload.gated_rounds()
    unit_s = workload.run.yardstick_s
    workload.run.per_round = {
        "op_p50_ms": latency_ms, "ops_per_s": per_s, "yardstick_s": unit_s,
    }
    out = {
        "op_p50_ms": stats.median(latency_ms),
        "ops_per_s": stats.median(per_s),
        "op_p50_vs_ref": stats.median(
            [ms / (1e3 * unit) for ms, unit in zip(latency_ms, unit_s)]
        ),
        "ops_per_ref": stats.median(
            [rate * unit for rate, unit in zip(per_s, unit_s)]
        ),
        "harness.yardstick_ms": 1e3 * stats.median(unit_s),
    }
    if workload.op_alias:
        out[workload.op_alias] = out["op_p50_ms"]
    if workload.rate_alias:
        out[workload.rate_alias] = out["ops_per_s"]
    return out


def select(
    metrics: Dict[str, float], declaration: Dict[str, object], traced: bool
) -> Dict[str, Dict[str, object]]:
    """The metrics the result line carries: every end-to-end metric of an
    untraced run, every per-layer metric of a traced one.  A per-layer
    metric a workload does not emit reads 0: that layer did no work in it."""
    declared = declaration["per_layer" if traced else "end_to_end"]
    selected: Dict[str, Dict[str, object]] = {}
    for entry in declared:  # type: ignore[union-attr]
        name, unit = entry["name"], entry["unit"]
        if not traced and name not in metrics:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        selected[name] = {"value": float(metrics.get(name, 0.0)), "unit": unit}
    return selected
