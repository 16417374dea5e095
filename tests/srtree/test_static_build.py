"""The in-place static build against its recursive oracle, golden bytes,
its memory contract, and its subtree schedule.

Three independent defences of "every chunk byte-identical":

* a differential property against ``reference_partition.py`` (the old
  recursive routine, verbatim) — same member rows, *same order* — and,
  beneath it, a property that the packed-word sort returns the stable
  argsort's permutation on the keys where bit patterns mislead;
* sha256 digests recorded at the parent commit (``golden_build.json``,
  also read by the ``build-smoke`` CI job), so bit-identity does not
  depend on the oracle file staying honest;
* ``tracemalloc`` guards: the build peaks at ≤ 2.6× the collection and
  leaves nothing but its result behind, cyclic GC or not.

All three hold at every usable-CPU count: the CPU probe is patched to
1–4, and ``TestSubtreeSchedule`` checks that the bytes, the workers
started and the fate of a worker's exception follow the schedule.
"""

import gc
import hashlib
import importlib
import json
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_partition import reference_partition_rows_uniform
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.cli import main
from repro.core.chunk_index import build_chunk_index
from repro.srtree.bulk_load import ordered_partition
from descriptors import from_vectors

# ``repro.srtree.bulk_load`` the attribute is the function; this is the module.
bulk_load_module = importlib.import_module("repro.srtree.bulk_load")

# The usable-CPU counts every schedule test builds at; the build starts one
# worker per subtree beyond the caller's.
CPU_COUNTS = (1, 2, 3, 4)


def at_cpus(cpus):
    """Patch the build's CPU probe to report ``cpus`` usable CPUs."""
    return mock.patch.object(bulk_load_module, "_usable_cpus", lambda: cpus)


with open(os.path.join(os.path.dirname(__file__), "golden_build.json")) as _handle:
    GOLDEN = json.load(_handle)


# -- differential oracle -------------------------------------------------------

VALUE_FAMILIES = (
    "normal", "lattice", "duplicates", "constant_columns", "signed_zero", "offset",
)
LAYOUTS = ("c", "fortran", "strided", "readonly")
# The precision the values are drawn at; the build always sees them as
# float32, so float16 and int64 only add rounding and ties.
DTYPES = ("float32", "float64", "int64", "float16")


def make_values(family, n, d, rng):
    if family == "lattice":  # heavy ties in every column
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if family == "duplicates":  # every row five times, shuffled
        base = rng.standard_normal((n // 5 + 1, d))
        return np.repeat(base, 5, axis=0)[rng.permutation(5 * len(base))[:n]]
    if family == "constant_columns":
        values = rng.standard_normal((n, d))
        values[:, rng.random(d) < 0.5] = 1.5
        return values
    if family == "signed_zero":
        return rng.choice(np.array([-0.0, 0.0, 1.0]), size=(n, d))
    if family == "offset":  # variance small against the mean
        return 1e3 + rng.standard_normal((n, d))
    return rng.standard_normal((n, d))


def lay_out(values, layout, dtype):
    if dtype == "int64":
        values = np.round(values * 4.0)
    values = values.astype(dtype).astype(np.float32)
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "strided":  # every other row and column of a larger matrix
        wide = np.zeros((2 * values.shape[0], 2 * values.shape[1]), dtype=values.dtype)
        wide[::2, ::2] = values
        return wide[::2, ::2]
    if layout == "readonly":
        values.setflags(write=False)
    return values


# Sizes where a cut or a block hand-over sits on an edge; ``k`` is 1..5.
N_SHAPES = {
    "within_leaf": lambda capacity, block_rows, k, rng: int(rng.integers(1, capacity + 1)),
    "below_multiple": lambda capacity, block_rows, k, rng: k * capacity - 1,
    "at_multiple": lambda capacity, block_rows, k, rng: k * capacity,
    "above_multiple": lambda capacity, block_rows, k, rng: k * capacity + 1,
    "below_block": lambda capacity, block_rows, k, rng: block_rows - 1,
    "at_block": lambda capacity, block_rows, k, rng: block_rows,
    "above_block": lambda capacity, block_rows, k, rng: block_rows + 1,
    "twice_block": lambda capacity, block_rows, k, rng: 2 * block_rows,
    "above_twice_block": lambda capacity, block_rows, k, rng: 2 * block_rows + 1,
    "free": lambda capacity, block_rows, k, rng: int(rng.integers(2, 400)),
}


def leaf_groups(vectors, capacity):
    """The member rows of each leaf, as the reference returns them."""
    rows, bounds, _ = ordered_partition(vectors, capacity)
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def assert_same_groups(got, expected):
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert mine.dtype == theirs.dtype == np.intp
        assert np.array_equal(mine, theirs)


class TestDifferentialOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(VALUE_FAMILIES),
        layout=st.sampled_from(LAYOUTS),
        dtype=st.sampled_from(DTYPES),
        shape=st.sampled_from(sorted(N_SHAPES)),
        d=st.integers(1, 6),
        capacity=st.integers(1, 40),
        block_rows=st.sampled_from((1, 2, 3, 7, 32)),
    )
    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
    def test_same_rows_in_the_same_order(
        self, seed, family, layout, dtype, shape, d, capacity, block_rows
    ):
        rng = np.random.default_rng(seed)
        n = max(1, N_SHAPES[shape](capacity, block_rows, int(rng.integers(1, 6)), rng))
        vectors = lay_out(make_values(family, n, d, rng), layout, dtype)
        before = vectors.tobytes()
        # A tiny staging block puts the accumulator hand-over — where a
        # blocked sum goes wrong — inside these small inputs.
        with mock.patch.object(bulk_load_module, "_BLOCK_BYTES", 8 * d * block_rows):
            rows, bounds, ordered = ordered_partition(vectors, capacity)
        got = [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert_same_groups(got, reference_partition_rows_uniform(vectors, capacity))
        assert vectors.tobytes() == before
        # The ordered matrix is the gather the chunker no longer makes.
        assert bounds[0] == 0 and bounds[-1] == n
        assert ordered.dtype == np.float32
        assert ordered.tobytes() == vectors[rows].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 5)])
    def test_real_block_size_edges(self, dtype, blocks, extra):
        """Node sizes around the shipped block size, at the paper's d.

        A float64 caller converts explicitly; the oracle reads its
        float64 matrix, which holds the same (float32-exact) values.
        """
        block_rows = bulk_load_module._BLOCK_BYTES // (8 * 24)
        n = blocks * block_rows + extra
        rng = np.random.default_rng(n)
        # Coarse values: near-tied column variances, tied sort keys.
        vectors = np.round(rng.standard_normal((n, 24)) * 2.0).astype(dtype)
        assert_same_groups(
            leaf_groups(vectors.astype(np.float32), 700),
            reference_partition_rows_uniform(vectors, 700),
        )

    def test_list_input(self):
        """A hand-written list, converted explicitly (the build takes float32 only)."""
        nested = [[0.0, 3.0], [1.0, 1.0], [2.0, 5.0], [3.0, 2.0], [4.0, 4.0]]
        assert_same_groups(
            leaf_groups(np.array(nested, dtype=np.float32), 2),
            reference_partition_rows_uniform(nested, 2),
        )


# -- packed sort words ---------------------------------------------------------

F32 = np.finfo(np.float32)
# Keys where a bit-pattern order can go wrong: both zeros, subnormals of
# both signs, the normal/subnormal edge, and both ends of the range.
EDGE_KEYS = (
    -0.0, 0.0, float(F32.smallest_subnormal), -float(F32.smallest_subnormal),
    3 * float(F32.smallest_subnormal), -float(F32.smallest_subnormal) * 7,
    float(F32.tiny), -float(F32.tiny), float(F32.max), -float(F32.max), 1.0, -1.0,
)
any_finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
KEY_COLUMNS = st.one_of(
    st.lists(st.sampled_from((-0.0, 0.0)), min_size=1, max_size=200),
    st.lists(st.sampled_from(EDGE_KEYS), min_size=1, max_size=200),
    st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=200),  # tiny lattice
    st.builds(lambda value, n: [value] * n, any_finite_f32, st.integers(1, 200)),
    st.lists(st.one_of(st.sampled_from(EDGE_KEYS), any_finite_f32), min_size=1, max_size=200),
)


class TestPackedOrder:
    @given(keys=KEY_COLUMNS, width=st.integers(1, 3), spare=st.integers(0, 3))
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    def test_packed_order_is_the_stable_argsort(self, keys, width, spare):
        # The split column is a strided view of a node, and the scratch
        # columns may be longer than it, as the root's positions are.
        node = np.zeros((len(keys), width), dtype=np.float32)
        node[:, -1] = keys
        before = node.tobytes()
        size = len(keys) + spare
        got = bulk_load_module._stable_order(
            node[:, -1],
            np.empty(size, dtype=np.uint64),
            np.empty(size, dtype=np.float32),
            np.empty(size, dtype=np.int32),
            np.arange(size, dtype=np.uint64),
        )
        assert np.array_equal(got, np.argsort(node[:, -1], kind="stable"))
        assert node.tobytes() == before  # -0.0 is canonicalised in a copy


# -- golden bytes --------------------------------------------------------------


def golden_vectors(n, seed):
    """Clustered 24-d float32 rows with tied columns and exact duplicates."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(32, 24))
    vectors = centers[rng.integers(32, size=n)] + 0.3 * rng.standard_normal((n, 24))
    vectors[:, :4] = np.round(vectors[:, :4] * 8.0) / 8.0
    vectors[n // 2 : n // 2 + n // 10] = vectors[: n // 10]
    return vectors.astype(np.float32)


def file_digests(directory):
    digests = {}
    for name in ("base-000000.dat", "base-000000.idx"):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class TestGoldenBytes:
    """Digests recorded with the recursive build, before the rewrite."""

    def test_index_files_of_a_seeded_collection(self, tmp_path):
        collection = from_vectors(golden_vectors(20_000, 2005))
        for cpus in CPU_COUNTS:
            with at_cpus(cpus):
                result = SRTreeChunker(64).form_chunks(collection)
            directory = str(tmp_path / f"{cpus}-cpus")
            build_chunk_index(collection, result.chunk_set).save(directory)
            assert file_digests(directory) == GOLDEN["seeded_20k_sr64"], cpus

    def test_member_rows_of_a_larger_build(self):
        digest = hashlib.sha256()
        for rows in leaf_groups(golden_vectors(60_000, 2006), 400):
            digest.update(rows.astype("<i8").tobytes())
        assert digest.hexdigest() == GOLDEN["seeded_60k_cap400_member_rows"]

    def test_cli_build(self, tmp_path, capsys):
        """The pair the ``build-smoke`` CI job checks, through the same CLI."""
        collection, system = str(tmp_path / "col.bin"), str(tmp_path / "out")
        assert main(["generate", collection, "--scale", "test"]) == 0
        assert main(["build", collection, system, "--chunker", "sr", "--chunk-size", "64"]) == 0
        capsys.readouterr()
        assert file_digests(system) == GOLDEN["cli_test_scale_sr64"]


# -- memory contract -----------------------------------------------------------


def traced(build):
    """``(peak, retained, result)`` of ``build()`` in traced bytes.

    The cyclic collector is off: what is still traced afterwards is what
    reference counting alone could not free.
    """
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return peak - before, current - before, result


class TestMemoryContract:
    """At one usable CPU here; :class:`TestMemoryContractAtTwoCpus` holds
    a second subtree's staging block and a worker thread to the same bound."""

    N, CAPACITY = 60_000, 400
    SLACK = 64 * 1024
    CPUS = 1

    @pytest.fixture(autouse=True)
    def cpus(self):
        with at_cpus(self.CPUS):
            yield

    def vectors(self, dtype):
        return np.random.default_rng(7).standard_normal((self.N, 24)).astype(dtype)

    # float32 only: the build refuses every other dtype.
    @pytest.mark.parametrize("dtype", [np.float32])
    def test_partition_peak_and_residue(self, dtype):
        vectors = self.vectors(dtype)
        row_array = self.N * np.dtype(np.intp).itemsize
        peak, retained, groups = traced(
            lambda: leaf_groups(vectors, self.CAPACITY)
        )
        # Two working matrices, two id arrays, the packed sort words, their
        # positions and one node's key and sign-mask columns.
        assert peak <= 2.6 * vectors.nbytes + 4 * row_array
        # Only the result survives the call: one row permutation and a
        # view object per group — no working copy parked in a cycle.
        assert retained <= row_array + 256 * len(groups) + self.SLACK

    def test_form_chunks_peak_and_residue(self):
        collection = from_vectors(self.vectors(np.float32))
        row_array = self.N * np.dtype(np.intp).itemsize
        peak, retained, result = traced(
            lambda: SRTreeChunker(self.CAPACITY).form_chunks(collection)
        )
        assert peak <= 2.6 * collection.vectors.nbytes + 4 * row_array
        per_chunk = result.chunk_set[0].centroid.nbytes + 1024
        assert retained <= row_array + per_chunk * len(result.chunk_set) + self.SLACK


class TestMemoryContractAtTwoCpus(TestMemoryContract):
    CPUS = 2


# -- the subtree schedule --------------------------------------------------------

CAPACITY = 16
N_AROUND_CAPACITY = {
    "cap": CAPACITY,
    "cap+1": CAPACITY + 1,
    "2cap+1": 2 * CAPACITY + 1,
    "7cap+3": 7 * CAPACITY + 3,  # four subtrees of unequal sizes at four CPUs
}


def rows_and_cuts_of(vectors, cpus):
    with at_cpus(cpus):
        rows, bounds, ordered = ordered_partition(vectors, CAPACITY)
    return rows.tobytes(), bounds, ordered.tobytes()


class TestSubtreeSchedule:
    @pytest.fixture(autouse=True)
    def frequent_thread_switches(self):
        """More workers than this host has cores, switching often."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("d", [1, 24])
    @pytest.mark.parametrize("n", sorted(N_AROUND_CAPACITY))
    @pytest.mark.parametrize("family", VALUE_FAMILIES)
    def test_every_cpu_count_returns_the_same_bytes(self, family, n, d):
        rng = np.random.default_rng(len(family) * 100 + N_AROUND_CAPACITY[n] + d)
        vectors = make_values(family, N_AROUND_CAPACITY[n], d, rng).astype(np.float32)
        builds = [rows_and_cuts_of(vectors, cpus) for cpus in CPU_COUNTS]
        assert all(build == builds[0] for build in builds[1:])
        rows, bounds, ordered = builds[0]
        rows = np.frombuffer(rows, dtype=np.intp)
        assert ordered == vectors[rows].tobytes()
        got = [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert_same_groups(got, reference_partition_rows_uniform(vectors, CAPACITY))

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_one_cpu_starts_no_thread(self, cpus):
        """One usable CPU runs every node inline; ``k`` start ``k - 1`` workers."""
        vectors = np.random.default_rng(3).standard_normal((40 * CAPACITY, 3))
        start = threading.Thread.start
        started = []

        def spy(thread):
            started.append(thread)
            start(thread)

        with mock.patch.object(threading.Thread, "start", spy):
            rows_and_cuts_of(vectors.astype(np.float32), cpus)
        assert len(started) == cpus - 1

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_an_error_in_a_subtree_reaches_the_caller_after_every_join(self, where):
        vectors = np.random.default_rng(4).standard_normal((40 * CAPACITY, 3))
        caller = threading.current_thread()
        split = bulk_load_module._Tree.split
        finished = []

        def failing_split(tree, lo, hi, side, block):
            in_worker = threading.current_thread() is not caller
            # The caller cuts the top of the tree before any worker starts.
            if hi - lo < len(vectors) // 2 and in_worker == (where == "worker"):
                raise MemoryError(f"cutting [{lo}, {hi})")
            if in_worker:  # still busy when the caller fails: it must wait
                time.sleep(0.005)
            cut = split(tree, lo, hi, side, block)
            finished.append(threading.current_thread())
            return cut

        before = set(threading.enumerate())
        with mock.patch.object(bulk_load_module._Tree, "split", failing_split):
            with pytest.raises(MemoryError, match="cutting"):
                rows_and_cuts_of(vectors.astype(np.float32), 4)
        assert set(threading.enumerate()) == before
        assert any(thread is not caller for thread in finished) == (where == "caller")


# -- non-finite input ----------------------------------------------------------


class TestNonFiniteRefused:
    # numpy warns about inf - inf on the way to the variance, as ``var`` does.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_offending_row_is_named(self, poison, dtype):
        """Poison survives a float64 caller's explicit conversion."""
        vectors = np.random.default_rng(1).standard_normal((200, 4)).astype(dtype)
        vectors[90, 0] = poison
        vectors[17, 2] = poison
        with pytest.raises(ValueError, match=r"row 17\b.*non-finite"):
            leaf_groups(vectors.astype(np.float32), 20)

    def test_huge_finite_coordinates_still_build(self):
        vectors = np.random.default_rng(2).standard_normal((200, 4)).astype(np.float32)
        vectors[::3] *= np.float32(1e18)
        vectors[[4, 5], 1] = (F32.max, -F32.max)
        assert_same_groups(
            leaf_groups(vectors, 20),
            reference_partition_rows_uniform(vectors, 20),
        )
