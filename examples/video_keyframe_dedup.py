"""Near-duplicate keyframe detection with the full retrieval system.

The paper's collection came mostly from television broadcasts, where the
same footage recurs across programmes (reruns, ads, news clips) — finding
those near-duplicates is a canonical application of local-descriptor
search.  This example drives :class:`repro.system.ImageRetrievalSystem`
end to end:

1. index a "broadcast archive" of keyframes;
2. ingest a day of new keyframes *live* (incremental adds), some of which
   are re-aired variants of archived footage;
3. flag every new keyframe whose best match exceeds a vote threshold;
4. persist the grown system and verify it reopens intact.

Run with: ``python examples/video_keyframe_dedup.py``
"""

import os
import tempfile

import numpy as np

from repro import ImageRetrievalSystem, SyntheticImageConfig, generate_collection


def rebroadcast(descriptors: np.ndarray, seed: int) -> np.ndarray:
    """A re-aired variant: re-encoded (noise), slightly trimmed."""
    rng = np.random.default_rng(seed)
    keep = rng.random(len(descriptors)) < 0.8
    kept = descriptors[keep].astype(np.float64)
    return kept + 0.008 * rng.standard_normal(kept.shape)


def main() -> None:
    archive = generate_collection(
        SyntheticImageConfig(n_images=200, mean_descriptors_per_image=40, seed=21)
    )
    system = ImageRetrievalSystem(default_stop_chunks=4)
    system.index_images(archive)
    print(
        f"archive: {system.n_images} keyframes, "
        f"{system.n_descriptors} descriptors"
    )

    rng = np.random.default_rng(0)

    # A day of ingest: 12 genuinely new keyframes + 8 re-aired ones.  Each
    # new keyframe is generated with its own visual vocabulary (separate
    # seed) so "new" really means unrelated to everything else.
    day = []
    for image in range(12):
        single = generate_collection(
            SyntheticImageConfig(
                n_images=1, mean_descriptors_per_image=40, seed=500 + image
            )
        )
        day.append((f"new-{image}", single.vectors, None))
    for i in range(8):
        source = int(rng.integers(200))
        rows = np.flatnonzero(archive.image_ids == source)
        day.append(
            (f"rerun-of-{source}", rebroadcast(archive.vectors[rows], i), source)
        )
    rng.shuffle(day)

    # Verified voting: a descriptor match only counts within this
    # distance (calibrated to the re-encoding noise, far below typical
    # inter-pattern distances).
    match_distance = 0.08
    vote_threshold = 0.4  # fraction of query descriptors that must agree
    next_image_id = 1000
    correct = 0
    for label, descriptors, source in day:
        matches = system.find_similar_images(
            descriptors, top_images=1, max_match_distance=match_distance
        )
        is_dup = bool(
            matches and matches[0].votes >= vote_threshold * len(descriptors)
        )
        verdict_ok = is_dup == (source is not None) and (
            not is_dup or matches[0].image_id == source
        )
        correct += verdict_ok
        flag = "DUPLICATE of %4s" % (matches[0].image_id,) if is_dup else "new footage     "
        print(f"  {label:14} -> {flag}  {'OK' if verdict_ok else 'WRONG'}")
        # New footage enters the archive immediately (live maintenance).
        if not is_dup:
            system.add_image(next_image_id, descriptors)
            next_image_id += 1

    print(f"\n{correct}/{len(day)} verdicts correct; archive grew to "
          f"{system.n_images} keyframes")

    with tempfile.TemporaryDirectory() as workdir:
        target = os.path.join(workdir, "archive")
        system.save(target)
        # A reopened system searches its files in place and holds them open.
        with ImageRetrievalSystem.load(target) as reopened:
            assert reopened.n_images == system.n_images
            print(
                f"persisted and reopened: {reopened.n_descriptors} descriptors intact"
            )


if __name__ == "__main__":
    main()
