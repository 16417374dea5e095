"""Tests for the SR-tree and round-robin chunkers and the size cap."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.chunking.base import ChunkingResult
from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker, cap_chunk_sizes
from repro.core.chunk import Chunk, ChunkSet
from descriptors import from_vectors, radii
from repro.srtree.bulk_load import ordered_partition


class TestSRTreeChunker:
    def test_uniform_sizes(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=16).form_chunks(tiny_collection)
        result.validate()
        sizes = result.chunk_set.sizes()
        assert sizes.max() <= 16
        assert (sizes != 16).sum() <= 1  # one remainder chunk at most

    def test_no_outliers(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=10).form_chunks(tiny_collection)
        assert result.n_outliers == 0
        assert result.retained is tiny_collection

    def test_partition(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=7).form_chunks(tiny_collection)
        assert result.chunk_set.is_partition()

    def test_spatial_locality_beats_round_robin(self, tiny_collection):
        """SR chunks should have much smaller radii than round-robin
        chunks of the same size — the whole point of the strategy."""
        sr = SRTreeChunker(leaf_capacity=20).form_chunks(tiny_collection)
        rr = RoundRobinChunker(n_chunks=3).form_chunks(tiny_collection)
        assert radii(sr.chunk_set).mean() < 0.5 * radii(rr.chunk_set).mean()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SRTreeChunker(leaf_capacity=0)

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            SRTreeChunker(leaf_capacity=4).form_chunks(
                from_vectors(np.empty((0, 3)))
            )

    def test_build_info_recorded(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=8).form_chunks(tiny_collection)
        assert "build_seconds" in result.build_info
        assert result.build_info["leaf_capacity"] == 8.0

    def test_summaries_equal_a_gather_of_the_member_rows(self, small_synthetic):
        """The chunker summarises slices of the build's ordered matrix;
        the numbers are those of ``Chunk.from_rows``, bit for bit."""
        result = SRTreeChunker(leaf_capacity=50).form_chunks(small_synthetic)
        assert len(result.chunk_set) > 20
        for chunk in result.chunk_set:
            assert chunk.member_rows.dtype == np.intp
            gathered = Chunk.from_rows(small_synthetic, chunk.member_rows)
            assert chunk.centroid.tobytes() == gathered.centroid.tobytes()
            assert chunk.radius == gathered.radius

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("capacity", [20, 500])  # split root / single leaf
    def test_non_finite_descriptor_refused(self, poison, capacity):
        vectors = np.random.default_rng(1).standard_normal((200, 4)).astype(np.float32)
        vectors[17, 2] = poison
        collection = from_vectors(vectors)
        with pytest.raises(ValueError, match="non-finite"):
            SRTreeChunker(capacity).form_chunks(collection)

    def test_huge_finite_coordinates_build(self):
        vectors = np.random.default_rng(2).standard_normal((200, 4)).astype(np.float32)
        vectors[::3] *= np.float32(1e18)
        result = SRTreeChunker(20).form_chunks(from_vectors(vectors))
        result.validate()
        assert np.isfinite(radii(result.chunk_set)).all()


class TestRoundRobin:
    def test_uniform_assignment(self, tiny_collection):
        result = RoundRobinChunker(n_chunks=6).form_chunks(tiny_collection)
        result.validate()
        sizes = result.chunk_set.sizes()
        assert sizes.max() - sizes.min() <= 1
        assert len(result.chunk_set) == 6

    def test_descriptor_i_in_chunk_i_mod_n(self, tiny_collection):
        result = RoundRobinChunker(n_chunks=4).form_chunks(tiny_collection)
        for c, chunk in enumerate(result.chunk_set):
            assert all(int(r) % 4 == c for r in chunk.member_rows)

    def test_more_chunks_than_descriptors(self):
        col = from_vectors(np.ones((3, 2)))
        result = RoundRobinChunker(n_chunks=10).form_chunks(col)
        assert len(result.chunk_set) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            RoundRobinChunker(n_chunks=0)


class TestCapChunkSizes:
    """``cap_chunk_sizes`` against its contract, over drawn cluster sizes.

    The property must catch the two tempting wrong cuts planted below: a
    leaf of the class mean (the first wording of the dial, which leaves
    remainder leaves and more pieces than the fewest that fit) and a cut
    that loses its remainder leaf.
    """

    @staticmethod
    def clustered(sizes, n_outliers, seed):
        """A result whose chunks are random row sets of the given sizes
        over a random collection, with ``n_outliers`` rows discarded."""
        rng = np.random.default_rng(seed)
        n = int(sum(sizes))
        original = from_vectors(rng.standard_normal((n + n_outliers, 3)))
        keep = np.ones(n + n_outliers, dtype=bool)
        outliers = rng.choice(n + n_outliers, size=n_outliers, replace=False)
        keep[outliers] = False
        retained = original.mask(keep)
        rows = rng.permutation(n)
        cuts = np.cumsum(sizes)[:-1]
        chunks = [Chunk.from_rows(retained, part) for part in np.split(rows, cuts)]
        return ChunkingResult(
            original=original,
            retained=retained,
            chunk_set=ChunkSet(retained, chunks),
            outlier_rows=np.sort(outliers),
        )

    @classmethod
    def check(cls, cap, shrink=True):
        """Run the property over ``cap``, an implementation of the cut;
        a planted twin only has to fail, so it skips the shrinking."""

        @settings(
            max_examples=2 * settings.default.max_examples,
            deadline=None,
            report_multiple_bugs=False,
            phases=tuple(Phase) if shrink else (Phase.generate,),
        )
        @given(
            sizes=st.lists(st.integers(1, 60), min_size=1, max_size=12),
            n_outliers=st.integers(0, 4),
            s=st.floats(1.0, 20.0),
            seed=st.integers(0, 2**16),
        )
        def prop(sizes, n_outliers, s, seed):
            result = cls.clustered(sizes, n_outliers, seed)
            capped = cap(result, s)
            limit = math.floor(s * result.mean_chunk_size)
            assert capped.retained is result.retained
            assert np.array_equal(capped.outlier_rows, result.outlier_rows)
            assert capped.chunk_set.is_partition()
            assert capped.chunk_set.sizes().max() <= limit
            out = iter(capped.chunk_set)
            for chunk in result.chunk_set:
                m = len(chunk)
                if m <= limit:
                    assert next(out) is chunk
                    continue
                pieces = math.ceil(m / limit)
                rows, bounds, _ = ordered_partition(
                    result.retained.vectors[chunk.member_rows], math.ceil(m / pieces)
                )
                assert len(bounds) - 1 == pieces
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    want = chunk.member_rows[rows[lo:hi]]
                    assert np.array_equal(next(out).member_rows, want)
            assert next(out, None) is None

        prop()

    def test_property(self):
        self.check(cap_chunk_sizes)

    @staticmethod
    def planted(result, s, leaf_of, drop_remainder):
        """A wrong cut: leaves of ``leaf_of(m, cap)`` members, optionally
        without the short remainder leaf."""
        limit = s * result.mean_chunk_size
        chunks = []
        for chunk in result.chunk_set:
            m = len(chunk)
            if m <= limit:
                chunks.append(chunk)
                continue
            leaf = leaf_of(m, math.floor(limit), result.mean_chunk_size)
            members = chunk.member_rows
            rows, bounds, _ = ordered_partition(result.retained.vectors[members], leaf)
            if drop_remainder and bounds[-1] - bounds[-2] < leaf:
                bounds = bounds[:-1]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                chunks.append(Chunk.from_rows(result.retained, members[rows[lo:hi]]))
        return dataclasses.replace(
            result, chunk_set=ChunkSet(result.retained, chunks)
        )

    @pytest.mark.parametrize(
        "leaf_of, drop_remainder",
        [
            (lambda m, cap, mean: max(1, round(mean)), False),
            (lambda m, cap, mean: math.ceil(m / math.ceil(m / cap)), True),
        ],
        ids=["leaf_is_the_class_mean", "remainder_leaf_dropped"],
    )
    def test_a_planted_twin_fails(self, leaf_of, drop_remainder):
        def twin(result, s):
            return self.planted(result, s, leaf_of, drop_remainder)

        with pytest.raises(AssertionError):
            self.check(twin, shrink=False)

    def test_every_chunk_under_the_cap_passes_through(self, small_synthetic):
        result = SRTreeChunker(leaf_capacity=50).form_chunks(small_synthetic)
        for s in (50.5 / result.mean_chunk_size, math.inf):
            capped = cap_chunk_sizes(result, s)
            assert all(a is b for a, b in zip(capped.chunk_set, result.chunk_set))
            assert capped.n_chunks == result.n_chunks

    @pytest.mark.parametrize("s", [0.5, 0.999, math.nan])
    def test_a_factor_below_one_is_refused(self, tiny_collection, s):
        result = SRTreeChunker(leaf_capacity=16).form_chunks(tiny_collection)
        with pytest.raises(ValueError, match="at least 1"):
            cap_chunk_sizes(result, s)

    def test_pieces_are_exact_chunks(self, small_synthetic):
        whole = RoundRobinChunker(n_chunks=3).form_chunks(small_synthetic)
        capped = cap_chunk_sizes(whole, 1.0)
        assert capped.n_chunks > whole.n_chunks
        capped.validate()
        for chunk in capped.chunk_set:
            again = Chunk.from_rows(small_synthetic, chunk.member_rows)
            assert np.array_equal(chunk.centroid, again.centroid)
            assert chunk.radius == again.radius
