"""Tests for the BAG clustering algorithm."""

import hashlib
import math

import numpy as np
import pytest

from repro.chunking import bag as bag_module
from repro.chunking.bag import BagClusterer, estimate_mpi
from repro.chunking.srtree_chunker import cap_chunk_sizes
from descriptors import from_vectors


@pytest.fixture()
def three_blob_collection():
    """Three well-separated tight blobs plus two far outlier points."""
    rng = np.random.default_rng(2)
    blobs = [
        np.array([0.0, 0.0]) + 0.05 * rng.standard_normal((30, 2)),
        np.array([10.0, 0.0]) + 0.05 * rng.standard_normal((30, 2)),
        np.array([0.0, 10.0]) + 0.05 * rng.standard_normal((30, 2)),
    ]
    outliers = np.array([[50.0, 50.0], [-50.0, 40.0]])
    vectors = np.vstack(blobs + [outliers]).astype(np.float32)
    return from_vectors(vectors)


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            BagClusterer(mpi=0.0, target_clusters=5)
        with pytest.raises(ValueError):
            BagClusterer(mpi=1.0, target_clusters=0)

    def test_estimate_mpi_positive(self, three_blob_collection):
        mpi = estimate_mpi(three_blob_collection)
        assert mpi > 0

    def test_estimate_mpi_scales_with_data(self, three_blob_collection):
        scaled = from_vectors(
            three_blob_collection.vectors * 10.0
        )
        a = estimate_mpi(three_blob_collection)
        b = estimate_mpi(scaled)
        assert b == pytest.approx(10 * a, rel=0.05)

    def test_estimate_mpi_needs_two_points(self):
        with pytest.raises(ValueError):
            estimate_mpi(from_vectors(np.ones((1, 2))))


class TestClustering:
    def test_finds_natural_blobs(self, three_blob_collection):
        mpi = 0.05
        bag = BagClusterer(mpi=mpi, target_clusters=5)
        result = bag.form_chunks(three_blob_collection)
        result.validate()
        # The three 30-point blobs survive as chunks; the two far points
        # become outliers (each is a tiny cluster below 20% of the mean).
        assert result.n_chunks == 3
        assert result.n_outliers == 2
        sizes = sorted(len(c) for c in result.chunk_set)
        assert sizes == [30, 30, 30]

    def test_chunks_have_minimal_radii(self, three_blob_collection):
        bag = BagClusterer(mpi=0.05, target_clusters=5)
        result = bag.form_chunks(three_blob_collection)
        # Finalize recomputes exact bounding radii: small for tight blobs.
        for chunk in result.chunk_set:
            assert chunk.radius < 1.0

    def test_snapshots_in_succession(self, three_blob_collection):
        bag = BagClusterer(mpi=0.05, target_clusters=3)
        snaps = bag.run_with_snapshots(three_blob_collection, [20, 10, 5])
        assert [s.threshold for s in snaps] == [20, 10, 5]
        counts = [len(s.rows_per_cluster) for s in snaps]
        assert counts[0] <= 20 and counts[1] <= 10 and counts[2] <= 5
        # Later snapshots never have more clusters.
        assert counts == sorted(counts, reverse=True)

    def test_snapshots_partition_collection(self, three_blob_collection):
        bag = BagClusterer(mpi=0.05, target_clusters=5)
        snaps = bag.run_with_snapshots(three_blob_collection, [10])
        rows = np.concatenate(snaps[0].rows_per_cluster)
        assert sorted(rows.tolist()) == list(range(len(three_blob_collection)))

    def test_max_passes_guard(self, three_blob_collection, monkeypatch):
        monkeypatch.setattr(bag_module, "MAX_PASSES", 2)
        bag = BagClusterer(mpi=1e-6, target_clusters=2)
        with pytest.raises(RuntimeError, match="did not reach"):
            bag.form_chunks(three_blob_collection)

    def test_empty_collection_rejected(self):
        bag = BagClusterer(mpi=1.0, target_clusters=1)
        with pytest.raises(ValueError):
            bag.form_chunks(from_vectors(np.empty((0, 2))))

    def test_deterministic(self, three_blob_collection):
        bag = BagClusterer(mpi=0.05, target_clusters=5)
        a = bag.form_chunks(three_blob_collection)
        b = bag.form_chunks(three_blob_collection)
        assert a.n_chunks == b.n_chunks
        assert np.array_equal(a.outlier_rows, b.outlier_rows)

    def test_merge_rule_respected_in_finalized_chunks(
        self, small_synthetic, monkeypatch
    ):
        """Merged chunks carry exact minimum bounding radii: every member
        is inside the radius (ChunkSet.validate checks this)."""
        monkeypatch.setattr(bag_module, "MPI_SAMPLE_SIZE", 300)
        mpi = estimate_mpi(small_synthetic)
        bag = BagClusterer(mpi=mpi, target_clusters=200)
        result = bag.form_chunks(small_synthetic)
        result.validate()
        assert result.n_chunks > 1


class TestOutlierRule:
    def test_outlier_fraction_rule(self):
        """One big blob plus isolated singletons: the singletons fall below
        20% of the mean population and are discarded."""
        rng = np.random.default_rng(4)
        blob = 0.05 * rng.standard_normal((60, 2))
        isolated = np.array([[30.0, 0.0], [0.0, 30.0], [-30.0, 0.0]])
        col = from_vectors(
            np.vstack([blob, isolated]).astype(np.float32)
        )
        bag = BagClusterer(mpi=0.05, target_clusters=6)
        result = bag.form_chunks(col)
        assert result.n_outliers == 3
        assert set(result.outlier_rows.tolist()) == {60, 61, 62}

    def test_no_outliers_when_everything_merges(self):
        rng = np.random.default_rng(5)
        blob = 0.01 * rng.standard_normal((40, 2))
        col = from_vectors(blob.astype(np.float32))
        bag = BagClusterer(mpi=0.05, target_clusters=2)
        result = bag.form_chunks(col)
        assert result.n_outliers == 0
        assert result.n_retained == 40


#: sha256 of BAG's membership at the ``test`` scale, per size class: the
#: clusters (each one's size, then its member rows in the retained
#: collection, both little-endian int64, in chunk order) and the sorted
#: outlier rows of the original collection.  A rewrite of BAG must keep
#: them or re-baseline them once, on purpose.
GOLDEN_BAG = {
    "SMALL": (
        "fdd879a2be2d7419064406cb2a5c624ab2cbbaca047869f5acae2de3b0fa319d",
        "68d71b1f9caa71be935a3170277109f66ea082a5c4ceda02f32e210ef4fb870c",
    ),
    "MEDIUM": (
        "8437cec6e7057234d3050a639e136a7ed6ba62fc2f5738c0ecbbae0e5ad3cf52",
        "a2226a94093842cb1fa510b69abbbcd2bfcb389967df53d9081bd6ae3937cdd9",
    ),
    "LARGE": (
        "516ab5d353e951365f1c70ab5e024160842acf1c32ede4c2dba5653248ef4607",
        "a48c5f74ebf8bba591045c9f973dc0a8cf9732c469374c16c04f9e83bae6d8c4",
    ),
}


def membership_digests(result):
    """``(clusters, outliers)`` digests of a chunking, as in :data:`GOLDEN_BAG`."""
    clusters = hashlib.sha256()
    for chunk in result.chunk_set:
        clusters.update(np.asarray([len(chunk)], dtype="<i8").tobytes())
        clusters.update(chunk.member_rows.astype("<i8").tobytes())
    outliers = hashlib.sha256(result.outlier_rows.astype("<i8").tobytes())
    return clusters.hexdigest(), outliers.hexdigest()


@pytest.mark.parametrize("size_class", sorted(GOLDEN_BAG))
class TestGoldenMembership:
    def test_bag_matches_its_digests(self, experiment_data, size_class):
        bag = experiment_data.built("BAG", size_class).chunking
        assert membership_digests(bag) == GOLDEN_BAG[size_class]

    def test_an_uncapped_dial_is_bag(self, experiment_data, size_class):
        """``s = inf`` hands back BAG's own chunks, so its digests too."""
        bag = experiment_data.built("BAG", size_class).chunking
        capped = cap_chunk_sizes(bag, math.inf)
        assert membership_digests(capped) == GOLDEN_BAG[size_class]
        assert capped.n_chunks == bag.n_chunks
        assert all(a is b for a, b in zip(capped.chunk_set, bag.chunk_set))
        assert capped.retained is bag.retained
