"""End-to-end content-based image retrieval system.

The paper is one study inside the Eff² project, whose deliverable was an
image retrieval system prototype (its reference [13]).  This module is
that system tier: a single object tying together everything the library
provides — descriptor storage, chunk formation, the two-file index, the
approximate multi-descriptor search, incremental maintenance, and
persistence — behind the interface an application would actually use:

>>> system = ImageRetrievalSystem()
>>> system.index_images(collection)                    # offline build
>>> system.find_similar_images(query_descriptors)      # online queries
>>> system.add_image(image_id, new_descriptors)        # live updates
>>> system.save(directory); ImageRetrievalSystem.load(directory)
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import numpy as np

from .chunking.base import Chunker
from .chunking.srtree_chunker import SRTreeChunker
from .core.chunk_index import ChunkIndex, build_chunk_index
from .core.dataset import DescriptorCollection
from .core.maintenance import ChunkIndexMaintainer
from .core.routing import CentroidRouter
from .core.search import BatchSearchResult, ChunkSearcher, SearchResult
from .core.stop_rules import MaxChunks, StopRule
from .extensions.multi_descriptor import ImageMatch, MultiDescriptorSearcher
from .simio.calibration import PAPER_2005_COST_MODEL
from .simio.pipeline import CostModel

__all__ = ["ImageRetrievalSystem"]

_META_FILE = "system.json"
_MAPPING_FILE = "image_mapping.npz"


class ImageRetrievalSystem:
    """A complete approximate image-retrieval stack.

    Parameters
    ----------
    chunker:
        Chunk-forming strategy for the offline build; defaults to uniform
        SR-tree chunks (the paper's recommendation).
    cost_model:
        Simulated-hardware model used for search timing.
    default_stop_chunks:
        Default approximation budget (chunks per descriptor search) for
        image queries; ``None`` searches to exact completion.
    prune:
        Enable the triangle-inequality chunk pruner in the descriptor
        searchers (results are identical either way; pruning only skips
        provably fruitless host-side work).
    """

    def __init__(
        self,
        chunker: Optional[Chunker] = None,
        cost_model: CostModel = PAPER_2005_COST_MODEL,
        default_stop_chunks: Optional[int] = 4,
        prune: bool = True,
    ):
        if default_stop_chunks is not None and default_stop_chunks < 1:
            raise ValueError("stop budget must be positive (or None for exact)")
        self._configured_chunker = chunker
        self.cost_model = cost_model
        self.default_stop_chunks = default_stop_chunks
        self.prune = bool(prune)
        self._collection: Optional[DescriptorCollection] = None
        self._maintainer: Optional[ChunkIndexMaintainer] = None
        self._image_of_id: Dict[int, int] = {}
        self._next_descriptor_id = 0
        self._index: Optional[ChunkIndex] = None
        self._dirty = False
        # Built lazily, once per index generation (see _searcher).
        self._cached_searcher: Optional[ChunkSearcher] = None
        self._router: Optional[CentroidRouter] = None

    # -- state helpers ----------------------------------------------------------

    @property
    def is_built(self) -> bool:
        return self._maintainer is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise RuntimeError("index images first (index_images or load)")

    def _default_chunker(self, n_descriptors: int) -> Chunker:
        # A pragmatic default: chunks of ~2 sqrt(n), capped to sane bounds.
        leaf = int(min(4096, max(16, 2 * np.sqrt(max(n_descriptors, 1)))))
        return SRTreeChunker(leaf_capacity=leaf)

    def _refresh(self) -> None:
        """Rebuild the searchable view after maintenance operations."""
        if self._dirty or self._index is None:
            self._index = self._maintainer.to_index(name="retrieval-system")
            ids_parts, vec_parts = [], []
            for chunk_id in range(self._index.n_chunks):
                ids, vectors = self._index.read_chunk(chunk_id)
                ids_parts.append(ids)
                vec_parts.append(vectors)
            all_ids = np.concatenate(ids_parts)
            all_vectors = np.vstack(vec_parts)
            image_ids = np.asarray(
                [self._image_of_id[int(i)] for i in all_ids], dtype=np.int64
            )
            self._collection = DescriptorCollection(
                vectors=all_vectors, ids=all_ids, image_ids=image_ids
            )
            self._cached_searcher = None
            self._router = None
            self._dirty = False

    def _searcher(self, use_router: bool = False) -> ChunkSearcher:
        """The descriptor searcher over the current index generation:
        built once per :meth:`_refresh` (its router's k-means included),
        and again only when ``prune`` or ``cost_model`` were reassigned."""
        self._refresh()
        if use_router and self._router is None:
            self._router = CentroidRouter.from_index(self._index)
        router = self._router if use_router else None
        searcher = self._cached_searcher
        if (
            searcher is None
            or searcher.router is not router
            or searcher.prune != self.prune
            or searcher.cost_model is not self.cost_model
        ):
            searcher = self._cached_searcher = ChunkSearcher(
                self._index,
                cost_model=self.cost_model,
                prune=self.prune,
                router=router,
            )
        return searcher

    # -- build ----------------------------------------------------------------------

    def index_images(self, collection: DescriptorCollection) -> None:
        """Offline build over a descriptor collection (ids must be unique)."""
        if len(collection) == 0:
            raise ValueError("cannot index an empty collection")
        chunker = self._configured_chunker or self._default_chunker(len(collection))
        result = chunker.form_chunks(collection)
        index = build_chunk_index(
            result.retained, result.chunk_set, name="retrieval-system"
        )
        self._maintainer = ChunkIndexMaintainer(index)
        self._image_of_id = {
            int(i): int(img)
            for i, img in zip(result.retained.ids, result.retained.image_ids)
        }
        self._next_descriptor_id = int(collection.ids.max()) + 1
        self._dirty = True
        self._refresh()

    # -- queries ----------------------------------------------------------------------

    @property
    def n_descriptors(self) -> int:
        self._require_built()
        return len(self._maintainer)

    @property
    def n_images(self) -> int:
        self._require_built()
        return len(set(self._image_of_id.values()))

    def _stop_rule(self, exact: bool) -> Optional[StopRule]:
        if exact or self.default_stop_chunks is None:
            return None
        return MaxChunks(self.default_stop_chunks)

    def find_similar_descriptors(
        self, query: np.ndarray, k: int = 10, exact: bool = False
    ) -> SearchResult:
        """Descriptor-level k-NN search."""
        self._require_built()
        return self._searcher().search(
            query, k=k, stop_rule=self._stop_rule(exact)
        )

    def find_similar_descriptors_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        exact: bool = False,
        use_router: bool = False,
    ) -> BatchSearchResult:
        """Descriptor-level k-NN for a whole query batch at once.

        The batch runs as one cohort: chunk ranking is one vectorized pass
        over the batch and each chunk is read at most once per batch.
        ``use_router=True`` routes chunk ranking through coarse centroid
        groups (O(sqrt(C)) probes per query) instead of the full centroid
        scan.  Per-query results are identical to
        :meth:`find_similar_descriptors` in every mode.
        """
        self._require_built()
        return self._searcher(use_router).search_batch(
            queries, k=k, stop_rule=self._stop_rule(exact)
        )

    def find_similar_images(
        self,
        query_descriptors: np.ndarray,
        top_images: int = 10,
        k_per_descriptor: int = 10,
        exact: bool = False,
        max_match_distance: Optional[float] = None,
    ) -> List[ImageMatch]:
        """Image-level retrieval: descriptor voting over the whole set.

        ``max_match_distance`` switches to verified voting (see
        :meth:`MultiDescriptorSearcher.search_image`) — required for
        duplicate detection rather than mere ranking.
        """
        self._require_built()
        self._refresh()
        searcher = MultiDescriptorSearcher(
            self._index, self._collection, cost_model=self.cost_model
        )
        return searcher.search_image(
            query_descriptors,
            k_per_descriptor=k_per_descriptor,
            top_images=top_images,
            stop_rule=self._stop_rule(exact),
            max_match_distance=max_match_distance,
        )

    # -- live updates --------------------------------------------------------------------

    def add_image(self, image_id: int, descriptors: np.ndarray) -> int:
        """Insert a new image's descriptors; returns its descriptor count."""
        self._require_built()
        descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.float32))
        if descriptors.shape[0] == 0:
            raise ValueError("an image needs at least one descriptor")
        for vector in descriptors:
            descriptor_id = self._next_descriptor_id
            self._next_descriptor_id += 1
            self._maintainer.insert(descriptor_id, vector)
            self._image_of_id[descriptor_id] = int(image_id)
        self._dirty = True
        return descriptors.shape[0]

    def remove_image(self, image_id: int) -> int:
        """Delete every descriptor of one image; returns how many."""
        self._require_built()
        victims = [
            descriptor_id
            for descriptor_id, img in self._image_of_id.items()
            if img == int(image_id)
        ]
        if not victims:
            raise KeyError(f"image {image_id} not in the system")
        for descriptor_id in victims:
            self._maintainer.delete(descriptor_id)
            del self._image_of_id[descriptor_id]
        self._dirty = True
        return len(victims)

    # -- persistence ----------------------------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist the whole system: chunk files + mapping + config."""
        self._require_built()
        self._refresh()
        os.makedirs(directory, exist_ok=True)
        self._index.save(directory)
        ids = np.asarray(sorted(self._image_of_id), dtype=np.int64)
        images = np.asarray(
            [self._image_of_id[int(i)] for i in ids], dtype=np.int64
        )
        np.savez(os.path.join(directory, _MAPPING_FILE), ids=ids, images=images)
        with open(os.path.join(directory, _META_FILE), "w", encoding="utf-8") as f:
            json.dump(
                {
                    "dimensions": self._index.dimensions,
                    "next_descriptor_id": self._next_descriptor_id,
                    "default_stop_chunks": self.default_stop_chunks,
                },
                f,
            )

    @classmethod
    def load(cls, directory: str) -> "ImageRetrievalSystem":
        """Reopen a system saved with :meth:`save`."""
        with open(os.path.join(directory, _META_FILE), encoding="utf-8") as f:
            meta = json.load(f)
        index = ChunkIndex.load(directory, dimensions=int(meta["dimensions"]))
        system = cls(default_stop_chunks=meta["default_stop_chunks"])
        system._maintainer = ChunkIndexMaintainer(index)
        with np.load(os.path.join(directory, _MAPPING_FILE)) as mapping:
            system._image_of_id = {
                int(i): int(img)
                for i, img in zip(mapping["ids"], mapping["images"])
            }
        system._next_descriptor_id = int(meta["next_descriptor_id"])
        index.close()
        system._dirty = True
        system._refresh()
        return system
