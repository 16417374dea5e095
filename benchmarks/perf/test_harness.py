"""Tests of the benchmark harness itself.

Run explicitly (``testpaths`` keeps this file out of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from harness import data, runner, stats, tracing  # noqa: E402
from harness.reference import brute_force_knn  # noqa: E402

ROOT = HERE.parents[1]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]

#: Metrics that must repeat exactly for a given seed: counts, ratios of
#: counts, and everything on the simulated clock.
DETERMINISTIC = compare.BOUND_ZERO + compare.EXACT_COUNTS


# -- stats ---------------------------------------------------------------------


def test_nearest_rank_is_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 50) == 3.0
    assert stats.nearest_rank(values, 100) == 5.0
    assert stats.nearest_rank(values, 1) == 1.0
    with pytest.raises(ValueError):
        stats.nearest_rank(values, 0)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_percentile_refuses_a_thin_tail():
    values = list(range(100))
    with pytest.raises(ValueError):
        stats.percentile(values, 95)  # 5 samples beyond
    assert stats.percentile(values, 90) == 89  # exactly 10 beyond
    assert stats.percentile(list(range(200)), 95) == 189


def test_tail_reports_the_highest_allowed_percentile():
    assert stats.tail(list(range(2000)), 99.0).q == 99.0
    thin = stats.tail(list(range(300)), 99.0)
    assert (thin.q, thin.n) == (95.0, 300)
    assert stats.tail(list(range(12)), 99.0).q == 50.0


def test_median_of_rounds_survives_a_disturbed_minority():
    calm, disturbed = [1.0, 1.1, 0.9], [9.0, 9.5, 8.0]
    assert stats.p50_of_rounds([disturbed, calm, calm, disturbed, calm]) == 1.0
    assert stats.p50_of_rounds([[3.0], []]) == 3.0


def test_quartile_spread_matches_the_drivers_definition():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# -- tracing ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("query", 0.0, 10.0, -1, 7),
        tracing.Span("read", 1.0, 3.0, 0, 7),
        tracing.Span("read", 2.0, 5.0, 0, 7),  # overlaps the first read
        tracing.Span("decode", 2.5, 2.75, 2, 7),  # grandchild: not the query's
        tracing.Span("late", 9.0, 12.0, 0, 7),  # clipped to the parent
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[2] == pytest.approx(3.0 - 0.25)
    assert tracing.total_by_name(spans, own)["read"] == pytest.approx(2.0 + 2.75)


def test_tracer_nests_spans_and_proxied_records():
    tracer = tracing.Tracer()
    with tracer.span("query", 3):
        tracer.record("read", 0.0, 1.0, 3)
        with tracer.span("inner", 3):
            pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("query", -1), ("read", 0), ("inner", 0)]
    assert tracer.spans[0].end >= tracer.spans[2].end


# -- inputs ----------------------------------------------------------------------


SPEC = data.CollectionSpec(n_descriptors=4000, n_patterns=20)


def test_same_seed_gives_byte_identical_inputs():
    first, again = data.generate_collection(SPEC, 5), data.generate_collection(SPEC, 5)
    assert first.vectors.tobytes() == again.vectors.tobytes()
    assert first.labels.tobytes() == again.labels.tobytes()
    pool, pool_again = (data.query_pool(c, SPEC, 5, 64) for c in (first, again))
    assert pool.queries.tobytes() == pool_again.queries.tobytes()
    assert np.array_equal(
        data.delete_schedule(4000, 5, 100), data.delete_schedule(4000, 5, 100)
    )


def test_another_seed_gives_other_inputs_of_the_same_shape():
    first, other = data.generate_collection(SPEC, 5), data.generate_collection(SPEC, 6)
    assert first.vectors.tobytes() != other.vectors.tobytes()
    assert data.query_pool(first, SPEC, 5, 64).queries.tobytes() != (
        data.query_pool(other, SPEC, 6, 64).queries.tobytes()
    )
    shape, same = data.structure(SPEC), data.structure(SPEC)
    assert shape.centers.tobytes() == same.centers.tobytes()


def test_query_pool_interleaves_and_stratifies():
    collection = data.generate_collection(SPEC, 5)
    pool = data.query_pool(collection, SPEC, 5, 64)
    assert pool.kinds[0::2].tolist() == [data.KIND_DQ] * 32
    assert pool.kinds[1::2].tolist() == [data.KIND_SQ] * 32
    # Every DQ query is a collection row.
    rows = {v.tobytes() for v in collection.vectors.astype(np.float64)}
    assert all(q.tobytes() in rows for q in pool.queries[0::2])


def test_delete_schedule_never_repeats():
    schedule = data.delete_schedule(1000, 1, 1000)
    assert sorted(schedule.tolist()) == list(range(1000))
    with pytest.raises(ValueError):
        data.delete_schedule(10, 1, 11)


def test_input_cache_round_trips_and_prunes(tmp_path):
    cache = data.InputCache(tmp_path, keep=2)
    made = []

    def make(i):
        def maker():
            made.append(i)
            return {"ids": np.arange(i + 1)}
        return maker

    for i in range(3):
        assert cache.get("knn", {"seed": i}, make(i))["ids"].size == i + 1
    assert np.array_equal(cache.get("knn", {"seed": 2}, make(2))["ids"], np.arange(3))
    assert made == [0, 1, 2]  # the repeat was served from disk
    assert len(list(tmp_path.glob("knn-*"))) == 2


def test_brute_force_breaks_ties_by_id():
    vectors = np.zeros((6, 2), dtype=np.float32)
    vectors[3:] = 1.0
    ids = np.array([50, 40, 30, 20, 10, 0], dtype=np.int64)
    got = brute_force_knn(vectors, ids, np.zeros((1, 2)), 4)
    assert got.tolist() == [[30, 40, 50, 0]]


# -- the declaration and the command -------------------------------------------


def test_declared_names_are_well_formed_and_unique():
    names = WORKLOADS + [
        m["name"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert any(m["name"] == "setup_s" for m in DECLARATION["end_to_end"])
    # Timings: three times the widest run-to-run spread recorded, capped
    # at the 25% the driver's contract allows (see README); memory: 10%.
    bounds = {m["name"]: m["bound"] for m in DECLARATION["end_to_end"]}
    assert bounds == {
        "setup_s": 0.25, "op_p50_vs_ref": 0.25, "ops_per_ref": 0.25, "rss_mb": 0.10,
    }
    layers = {m["name"] for m in DECLARATION["per_layer"]}
    assert set(DETERMINISTIC) <= layers


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_all() -> dict:
    """``--all`` at the tiny scale: every workload, untraced then traced."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--scale", "tiny",
         "--seed", "3"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = [json.loads(l) for l in done.stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 2 * len(WORKLOADS)
    return {
        (workload, trace): lines[2 * i + trace]
        for i, workload in enumerate(WORKLOADS) for trace in (0, 1)
    }


def test_every_run_is_correct_and_carries_the_declared_metrics(tiny_all):
    e2e = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in DECLARATION["per_layer"]}
    for (workload, trace), line in tiny_all.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        declared = layers if trace else e2e
        assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    for workload in WORKLOADS:
        values = tiny_all[workload, 0]["metrics"]
        assert all(values[name]["value"] > 0 for name in e2e), workload


def test_every_declared_layer_metric_is_measured_somewhere(tiny_all):
    """A per-layer metric may read 0 where its layer does no work, but some
    workload has to measure it: the result files hold what each emitted."""
    emitted = set()
    for workload in WORKLOADS:
        result = json.loads((HERE / "results" / f"{workload}.traced.json").read_text())
        assert result["seed"] == 3 and result["scale"] == "tiny"
        emitted |= set(result["metrics"])
    declared = {m["name"] for m in DECLARATION["per_layer"]}
    assert declared <= emitted, sorted(declared - emitted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_simulated_clock_repeat_exactly(workload, tiny_all):
    again = _run("--workload", workload, "--seed", "3", "--trace", "1")
    first = tiny_all[workload, 1]
    for name in DETERMINISTIC:
        assert again["metrics"][name] == first["metrics"][name], name
    other = _run("--workload", workload, "--seed", "4", "--trace", "1")
    assert any(
        other["metrics"][name] != first["metrics"][name] for name in DETERMINISTIC
    )


def test_a_run_over_its_time_cap_fails_without_a_result():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--workload",
         "single_approx", "--seed", "3", "--seconds", "0.001"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert not any(l.startswith("{") for l in done.stdout.splitlines())


# -- the tally and the comparison ------------------------------------------------


def test_an_operation_is_attempted_once_and_fails_once(tmp_path):
    run = runner.Run(runner.SCALES["tiny"], seed=0, traced=False, cache_root=tmp_path)
    with run.operation("fine") as op:
        op.expect(True, "never")
    with run.operation("checked twice") as op:
        op.expect(False, "first")
        op.expect(False, "second")  # one operation fails at most once
    with run.operation("raises", n=3) as op:
        op.expect(False, "one of three")
        raise RuntimeError("the rest")
    assert (run.attempted, run.failed) == (5, 4)
    assert run.failures[0] == "checked twice: first"
    assert "RuntimeError" in run.failures[-1]


def _baseline(traced: dict, timing: float = 1.0) -> dict:
    """A two-set baseline file whose traced runs read ``traced``."""
    names = compare.BOUND_ZERO + compare.EXACT_COUNTS
    one_set = {
        workload: {
            "attempted": 100, "failed": 0,
            "end_to_end": {
                m["name"]: {"values": [timing * (1 + 0.001 * i) for i in range(10)]}
                for m in DECLARATION["end_to_end"]
            },
            "per_layer": {
                "attempted": 10, "failed": 0,
                "metrics": {**dict.fromkeys(names, 0.0), **traced},
            },
        }
        for workload in WORKLOADS
    }
    return {"sets": [one_set, json.loads(json.dumps(one_set))]}


def _compare(tmp_path, parent: dict, change: dict):
    (tmp_path / "a.json").write_text(json.dumps(parent))
    (tmp_path / "b.json").write_text(json.dumps(change))
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(tmp_path / "a.json"), str(tmp_path / "b.json")],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout


def test_compare_catches_recall_traded_for_speed(tmp_path):
    parent = _baseline({"recall_at_30": 0.8, "search.chunks_read_per_query": 16.0})
    faster = _baseline(
        {"recall_at_30": 0.7, "search.chunks_read_per_query": 12.0}, timing=0.5
    )
    status, out = _compare(tmp_path, parent, faster)
    assert status == 1
    assert re.search(r"single_approx +recall_at_30 .* regressed", out)
    assert re.search(r"single_approx +search.chunks_read_per_query .* changed", out)
    assert re.search(r"single_approx +rss_mb .* improved", out)
    assert _compare(tmp_path, parent, parent)[0] == 0
    better = _baseline({"recall_at_30": 0.9, "search.chunks_read_per_query": 16.0})
    assert _compare(tmp_path, parent, better)[0] == 0


def test_compare_rejects_a_count_that_does_not_repeat_and_a_new_failure(tmp_path):
    parent = _baseline({"sim_query_ms_mean": 30.0})
    drifting = _baseline({"sim_query_ms_mean": 30.0})
    drifting["sets"][1]["ingest_mixed"]["per_layer"]["metrics"]["ingest.splits"] = 1.0
    status, out = _compare(tmp_path, parent, drifting)
    assert status == 1 and re.search(r"ingest.splits .* not repeatable", out)
    failing = _baseline({"sim_query_ms_mean": 30.0})
    failing["sets"][0]["batch_trace"]["failed"] = 1
    status, out = _compare(tmp_path, parent, failing)
    assert status == 1 and re.search(r"batch_trace +failed_fraction .* regressed", out)


def test_no_result_without_the_program(tmp_path):
    """Where only BENCHMARK.json and the benchmark's own files exist, the
    command fails instead of measuring some other ``repro``."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns(".cache", "results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "single_approx",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(l.startswith("{") for l in done.stdout.splitlines())
