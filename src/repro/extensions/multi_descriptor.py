"""Multi-descriptor image-level search (the paper's future work).

Paper section 7: "We are planning to implement a multi-descriptor search
algorithm for local descriptors and run against this collection."

With local description schemes an image is a *set* of descriptors, so
image-level retrieval runs one approximate k-NN search per query
descriptor and aggregates descriptor matches into image votes (the
standard voting scheme of the local-descriptor literature the paper builds
on, e.g. Schmid & Mohr 1997, Amsaleg & Gros 2001):

1. for every query descriptor, find its k nearest database descriptors
   under a chosen stop rule (the approximate chunk search);
2. each retrieved descriptor votes for its source image (one vote per
   query descriptor per image, so repeated texture cannot dominate);
3. rank images by votes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..core.search import ChunkSearcher
from ..core.stop_rules import StopRule

__all__ = ["ImageMatch", "MultiDescriptorSearcher"]


@dataclasses.dataclass(frozen=True)
class ImageMatch:
    """One ranked image result."""

    image_id: int
    votes: int
    matched_query_descriptors: int


class MultiDescriptorSearcher:
    """Image-level retrieval by descriptor voting.

    Parameters
    ----------
    searcher:
        The chunk searcher over the database descriptors.
    image_of_id:
        Descriptor id -> source image id, for every descriptor the
        searcher can return (a returned id without an image is a
        ``ValueError`` at vote time).
    """

    def __init__(self, searcher: ChunkSearcher, image_of_id: Mapping[int, int]):
        self.searcher = searcher
        self._image_of_id = image_of_id

    def search_image(
        self,
        query_descriptors: np.ndarray,
        k_per_descriptor: int = 10,
        top_images: int = 10,
        stop_rule: Optional[StopRule] = None,
        max_match_distance: Optional[float] = None,
    ) -> List[ImageMatch]:
        """Rank database images against a query image's descriptor set.

        Returns at most ``top_images`` (at least 1) matches ordered by
        (votes desc, image id asc).

        ``max_match_distance``, when given, makes voting *verified*: a
        retrieved descriptor only votes if its distance is within the
        threshold.  Without it every query descriptor votes for its k
        nearest images however far they are, which inflates scores of
        unrelated but popular images — fine for ranking, wrong for
        duplicate *detection*.
        """
        if top_images < 1:
            raise ValueError(f"top_images must be at least 1, got {top_images}")
        query_descriptors = np.asarray(query_descriptors, dtype=np.float64)
        if query_descriptors.ndim == 1:
            query_descriptors = query_descriptors[np.newaxis, :]
        if query_descriptors.shape[0] == 0:
            raise ValueError("a query image needs at least one descriptor")

        # A query image's descriptor set is a natural batch: one engine
        # call ranks chunks for all descriptors at once and reads each
        # chunk at most once for the whole image.
        batch = self.searcher.search_batch(
            query_descriptors, k=k_per_descriptor, stop_rule=stop_rule
        )
        votes: Dict[int, int] = {}
        matched_queries: Dict[int, set] = {}
        for query_index, result in enumerate(batch):
            # One vote per (query descriptor, image): repeated texture in a
            # single image cannot dominate the tally.
            seen_images = set()
            for neighbor in result.neighbors:
                if (
                    max_match_distance is not None
                    and neighbor.distance > max_match_distance
                ):
                    continue
                image = self._image_of_id.get(neighbor.descriptor_id)
                if image is None:
                    raise ValueError(
                        f"descriptor id {neighbor.descriptor_id} has no image"
                    )
                if image in seen_images:
                    continue
                seen_images.add(image)
                votes[image] = votes.get(image, 0) + 1
                matched_queries.setdefault(image, set()).add(query_index)

        ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            ImageMatch(
                image_id=image,
                votes=count,
                matched_query_descriptors=len(matched_queries[image]),
            )
            for image, count in ranked[:top_images]
        ]
