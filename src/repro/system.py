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

The system *holds* one :class:`~repro.core.chunk_index.ChunkIndex` — the
one ``build_chunk_index`` or ``ChunkIndex.load`` returned — and searches it
as it is: a loaded system reads its chunks from the files it was saved to
(code file included) and keeps them open until
:meth:`ImageRetrievalSystem.close`.  Only a live update copies anything:
the first hands the index to a ``ChunkIndexMaintainer``, and every later
generation is the maintainer's in-memory snapshot.
"""

from __future__ import annotations

import os
from typing import Any, BinaryIO, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np
from numpy.lib.format import read_array

from .chunking.base import Chunker
from .chunking.srtree_chunker import SRTreeChunker
from .core.chunk_index import ChunkIndex, build_chunk_index
from .core.dataset import DescriptorCollection
from .core.ingest import open_generation, save_generation
from .core.maintenance import ChunkIndexMaintainer
from .core.search import BatchSearchResult, ChunkSearcher, SearchResult
from .core.stop_rules import MaxChunks, StopRule
from .extensions.multi_descriptor import ImageMatch, MultiDescriptorSearcher
from .simio.calibration import PAPER_2005_COST_MODEL
from .simio.pipeline import CostModel
from .storage.errors import CorruptFileError

__all__ = ["ImageRetrievalSystem", "verify_system_file"]

_INDEX_NAME = "retrieval-system"


class _ImageOfId(Mapping[int, int]):
    """``descriptor id -> image id`` as two parallel int64 arrays sorted by
    descriptor id: loading one is two array reads, not n dict inserts."""

    def __init__(self, ids: np.ndarray, images: np.ndarray):
        self.ids = ids
        self.images = images

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __getitem__(self, descriptor_id: int) -> int:
        at = int(np.searchsorted(self.ids, descriptor_id))
        if at == len(self) or self.ids[at] != descriptor_id:
            raise KeyError(descriptor_id)
        return int(self.images[at])


def _read_system_file(path: str, n_descriptors: int) -> Tuple[_ImageOfId, int, int]:
    """``(id -> image, next id, stop budget)`` from a system file — three
    ``.npy`` arrays: ``[next id, stop budget (0: exact)]``, ids, images."""
    try:
        with open(path, "rb") as stream:
            counters, ids, images = (read_array(stream) for _ in range(3))
            padded = stream.read(1)
    except Exception as exc:  # numpy's and the stream's exception types
        raise CorruptFileError(
            f"system file {path!r} is unreadable ({type(exc).__name__}: {exc})"
        ) from exc
    if padded or not (
        counters.dtype == ids.dtype == images.dtype == np.int64
        and counters.shape == (2,)
        and images.shape == ids.shape == (n_descriptors,)
        and (ids[1:] > ids[:-1]).all()
        and (ids[-1:] < counters[0]).all()
        and counters[1] >= 0
    ):
        raise CorruptFileError(
            f"system file {path!r} does not map the index's {n_descriptors} "
            f"descriptors: counters {counters.dtype}{counters.shape}, ids "
            f"{ids.dtype}{ids.shape}, images {images.dtype}{images.shape}"
        )
    next_id, stop_chunks = counters.tolist()
    return _ImageOfId(ids, images), next_id, stop_chunks


def verify_system_file(directory: str, report: Dict[str, Any]) -> None:
    """Append the ``system`` check to ``report``, the
    :func:`~repro.core.ingest.verify_streaming_index` report of
    ``directory``: the generation's system file read exactly as
    :meth:`ImageRetrievalSystem.load` reads it, against the index's
    descriptor count.  A report that ended at a stage that did not load
    gets no check; an absent file (a plain ``ChunkIndex.save``, a
    streaming index) is reported, not failed."""
    if "system_file" not in report:
        return
    name = report["system_file"]
    path = os.path.join(directory, name)
    problems: List[str] = []
    if not os.path.exists(path):
        detail = f"no system file {name} (an index saved without a system)"
    else:
        count = report["n_descriptors"]
        detail = f"{name}: maps the index's {count} descriptors to images"
        try:
            _read_system_file(path, count)
        except CorruptFileError as error:
            problems.append(str(error))
    report["checks"].append(
        {"name": "system", "ok": not problems, "detail": "; ".join(problems) or detail}
    )
    report["ok"] = report["ok"] and not problems


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

    A loaded system owns open files: :meth:`close` it, or use it as a
    context manager.
    """

    def __init__(
        self,
        chunker: Optional[Chunker] = None,
        cost_model: CostModel = PAPER_2005_COST_MODEL,
        default_stop_chunks: Optional[int] = 4,
    ):
        if default_stop_chunks is not None and default_stop_chunks < 1:
            raise ValueError("stop budget must be positive (or None for exact)")
        self._configured_chunker = chunker
        self.cost_model = cost_model
        self.default_stop_chunks = default_stop_chunks
        # The current index generation; ``None`` before the first build and
        # between a live update and the next query (see _image_searcher).
        self._index: Optional[ChunkIndex] = None
        # Created from the index by the first live update.
        self._maintainer: Optional[ChunkIndexMaintainer] = None
        self._image_of_id = _ImageOfId(np.empty(0, np.int64), np.empty(0, np.int64))
        self._next_descriptor_id = 0
        # Built once per index generation (see _image_searcher).
        self._cached_searcher: Optional[MultiDescriptorSearcher] = None

    # -- state helpers ----------------------------------------------------------

    @property
    def is_built(self) -> bool:
        return self._index is not None or self._maintainer is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise RuntimeError("index images first (index_images or load)")

    def _default_chunker(self, n_descriptors: int) -> Chunker:
        # A pragmatic default: chunks of ~2 sqrt(n), capped to sane bounds.
        leaf = int(min(4096, max(16, 2 * np.sqrt(max(n_descriptors, 1)))))
        return SRTreeChunker(leaf_capacity=leaf)

    def _current_index(self) -> ChunkIndex:
        """The index generation queries and :meth:`save` see: the one that
        was built or loaded, or the maintainer's state after live updates."""
        self._require_built()
        if self._index is None:
            self._index = self._maintainer.to_index(name=_INDEX_NAME)
        return self._index

    def _image_searcher(self) -> MultiDescriptorSearcher:
        """The searcher over the current index generation: built once per
        generation, and again only when ``cost_model`` was reassigned."""
        index = self._current_index()
        cached = self._cached_searcher
        if cached is None or cached.searcher.cost_model is not self.cost_model:
            cached = self._cached_searcher = MultiDescriptorSearcher(
                ChunkSearcher(index, cost_model=self.cost_model), self._image_of_id
            )
        return cached

    def _begin_update(self) -> ChunkIndexMaintainer:
        """The maintainer a live update edits.  The first update creates it
        from the current index (which has not changed until then, so its
        ``target_chunk_size`` is the build's); every update retires the
        generation it supersedes."""
        if self._maintainer is None:
            self._maintainer = ChunkIndexMaintainer(self._current_index())
        self.close()
        return self._maintainer

    def close(self) -> None:
        """Release the current index generation and the files it holds
        open.  A system that was never updated live is unbuilt afterwards;
        one that was serves its next query from the maintainer's state."""
        if self._index is not None:
            self._index.close()
        self._index = self._cached_searcher = None

    def __enter__(self) -> "ImageRetrievalSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- build ----------------------------------------------------------------------

    def index_images(self, collection: DescriptorCollection) -> None:
        """Offline build over a descriptor collection (ids must be unique)."""
        if len(collection) == 0:
            raise ValueError("cannot index an empty collection")
        chunker = self._configured_chunker or self._default_chunker(len(collection))
        result = chunker.form_chunks(collection)
        order = np.argsort(result.retained.ids, kind="stable")
        ids = result.retained.ids[order]
        repeated = np.flatnonzero(ids[1:] == ids[:-1])
        if repeated.size:
            raise ValueError(f"duplicate descriptor id {int(ids[repeated[0]])}")
        self.close()
        self._maintainer = None
        self._index = build_chunk_index(
            result.retained, result.chunk_set, name=_INDEX_NAME
        )
        self._image_of_id = _ImageOfId(ids, result.retained.image_ids[order])
        self._next_descriptor_id = int(collection.ids.max()) + 1

    # -- queries ----------------------------------------------------------------------

    @property
    def n_descriptors(self) -> int:
        self._require_built()
        return len(self._image_of_id)

    @property
    def n_images(self) -> int:
        self._require_built()
        return int(np.unique(self._image_of_id.images).size)

    def _stop_rule(self, exact: bool) -> Optional[StopRule]:
        if exact or self.default_stop_chunks is None:
            return None
        return MaxChunks(self.default_stop_chunks)

    def find_similar_descriptors(
        self, query: np.ndarray, k: int = 10, exact: bool = False
    ) -> SearchResult:
        """Descriptor-level k-NN search."""
        return self._image_searcher().searcher.search(
            query, k=k, stop_rule=self._stop_rule(exact)
        )

    def find_similar_descriptors_batch(
        self, queries: np.ndarray, k: int = 10, exact: bool = False
    ) -> BatchSearchResult:
        """Descriptor-level k-NN for a whole query batch at once.

        The batch runs as one cohort: chunk ranking is one vectorized pass
        over the batch and each chunk is read at most once per batch.
        Per-query results are identical to :meth:`find_similar_descriptors`.
        """
        return self._image_searcher().searcher.search_batch(
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
        return self._image_searcher().search_image(
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
        # Before any insert: a refused descriptor must not leave the
        # image's earlier ones inserted but unmapped, nor retire the
        # generation that answers queries.
        held = self._maintainer if self._maintainer is not None else self._index
        if descriptors[0].size != held.dimensions:
            raise ValueError(
                f"image {image_id} has {descriptors[0].size}-d descriptors, "
                f"the system {held.dimensions}-d"
            )
        if not np.isfinite(descriptors).all():
            raise ValueError(f"image {image_id} has a non-finite descriptor")
        maintainer = self._begin_update()
        mapping = self._image_of_id
        # Ids grow monotonically, so appending keeps the mapping sorted.
        first, count = self._next_descriptor_id, descriptors.shape[0]
        for offset, vector in enumerate(descriptors):
            maintainer.insert(first + offset, vector)
        mapping.ids = np.concatenate([mapping.ids, np.arange(first, first + count)])
        mapping.images = np.concatenate(
            [mapping.images, np.full(count, int(image_id), dtype=np.int64)]
        )
        self._next_descriptor_id = first + count
        return count

    def remove_image(self, image_id: int) -> int:
        """Delete every descriptor of one image; returns how many."""
        self._require_built()
        mapping = self._image_of_id
        doomed = mapping.images == int(image_id)
        victims = mapping.ids[doomed].tolist()
        if not victims:
            raise KeyError(f"image {image_id} not in the system")
        maintainer = self._begin_update()
        for descriptor_id in victims:
            maintainer.delete(descriptor_id)
        mapping.ids, mapping.images = mapping.ids[~doomed], mapping.images[~doomed]
        return len(victims)

    # -- persistence ----------------------------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist index and system file (mapping, counters) as a generation
        of ``directory`` with :meth:`ChunkIndex.save`'s guarantee — over the
        directory it was loaded from too: open files keep their bytes."""
        mapping = self._image_of_id
        counters = [self._next_descriptor_id, self.default_stop_chunks or 0]

        def write_system(stream: BinaryIO) -> None:
            for array in (np.int64(counters), mapping.ids, mapping.images):
                np.save(stream, array, allow_pickle=False)

        save_generation(self._current_index(), directory, write_system)

    @classmethod
    def load(cls, directory: str) -> "ImageRetrievalSystem":
        """Reopen the system :meth:`save` committed in ``directory``,
        searching its files in place (no chunk is read here); damage is a
        :class:`~repro.storage.errors.CorruptFileError` naming the file."""
        index, path = open_generation(directory, _INDEX_NAME)
        try:
            mapping, next_id, stop_chunks = _read_system_file(path, index.n_descriptors)
        except BaseException:
            index.close()
            raise
        system = cls(default_stop_chunks=stop_chunks or None)
        system._index = index
        system._image_of_id = mapping
        system._next_descriptor_id = next_id
        return system
