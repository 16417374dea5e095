"""Command-line interface.

Usage::

    repro list-experiments
    repro experiment table1 [--scale default|test]
    repro experiment all [--scale test]
    repro collection [--scale test]          # collection statistics
    repro demo                               # tiny end-to-end search demo
    repro batch-search SYSTEM COLLECTION     # batched queries + throughput
    repro faultsim [--rates 0,0.1,0.3]       # quality-vs-fault-rate sweep
    repro servesim [--loads 0.5,2,8]         # simulated-traffic service sweep
    repro shardsim [--shards 2,4,8]          # sharded scatter-gather sweep
    repro ingestsim [--crashes 3]            # streaming ingest under crashes
    repro ingestsim --crash-matrix 0         # kill/recover at every boundary
    repro verify-index DIR                   # deep-check a saved or streaming index

The experiment subcommand regenerates the paper artefacts (Tables 1-2,
Figures 1-7) and the ablations, printing each as fixed-width text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Dict, Optional, Union

from . import __version__
from .experiments import (
    ablations,
    chunk_size_sweep,
    faultsim,
    fig1,
    ingestsim,
    quality_figures,
    servesim,
    shardsim,
    table1,
    table2,
)
from .experiments.config import get_scale
from .experiments.data import ExperimentData, prepare
from .experiments.report import format_table
from .experiments.results import FigureResult, GridResult
from .storage.errors import CorruptFileError

__all__ = ["main", "CliError", "EXPERIMENT_RUNNERS"]


class CliError(Exception):
    """A user-facing command failure.

    Raised by subcommands for bad arguments, missing/corrupt files and the
    like; :func:`main` prints it to stderr and returns exit code 2, so
    every subcommand fails the same way (no tracebacks, no silent zero).
    """

#: Experiment id -> driver producing a renderable result.
EXPERIMENT_RUNNERS: Dict[str, Callable[[ExperimentData], object]] = {
    "table1": table1.run,
    "fig1": fig1.run,
    "fig2": quality_figures.run_fig2,
    "fig3": quality_figures.run_fig3,
    "fig4": quality_figures.run_fig4,
    "fig5": quality_figures.run_fig5,
    "table2": table2.run,
    "fig6": chunk_size_sweep.run_fig6,
    "fig7": chunk_size_sweep.run_fig7,
    "ablation_overlap": ablations.run_overlap_ablation,
    "ablation_ranking": ablations.run_ranking_ablation,
    "ablation_stoprule": ablations.run_stop_rule_ablation,
    "ablation_outliers": ablations.run_outlier_ablation,
    "ablation_cache": ablations.run_cache_ablation,
    "ablation_size_cap": ablations.run_size_cap_ablation,
    "ablation_approx_rules": ablations.run_approx_rules_ablation,
    "lessons_summary": ablations.run_lessons_summary,
    "faultsim": faultsim.sweep,
    "servesim": servesim.sweep,
    "shardsim": shardsim.sweep,
}


def _add_sweep_arguments(
    parser: argparse.ArgumentParser, family: str = "SR", size_class: str = "SMALL"
) -> None:
    """The flags every sweep subcommand (fault/serve/shardsim) takes."""
    parser.add_argument("--scale", default="test")
    parser.add_argument(
        "--seed", type=int, default=faultsim.DEFAULT_SEED,
        help="root seed (same seed => byte-identical report)",
    )
    parser.add_argument(
        "--family", default=family, choices=("SR", "BAG"),
        help="chunk-forming family the sweep runs over",
    )
    parser.add_argument(
        "--size-class", default=size_class, choices=("SMALL", "MEDIUM", "LARGE")
    )
    parser.add_argument("--workload", default="DQ", choices=("DQ", "SQ"))
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the sweep as a deterministic JSON report",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="resume file: finished sweep points are skipped on rerun",
    )


def _write_json(payload: object, path: str) -> None:
    """Write one deterministic JSON report (sorted keys, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"wrote JSON report to {path}")


def _print_sweep(
    result: Union[FigureResult, GridResult], json_path: Optional[str]
) -> int:
    """Every sweep command's tail: the table, then any ``--json`` report."""
    print(result.render())
    if json_path:
        _write_json(result.to_report(), json_path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Quality vs. Time Trade-off for "
            "Approximate Image Descriptor Search' (ICDE Workshops 2005)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-experiments", help="list reproducible experiment ids")

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure (or 'all')"
    )
    experiment.add_argument(
        "experiment_id", choices=sorted(EXPERIMENT_RUNNERS) + ["all"]
    )
    experiment.add_argument(
        "--scale", default="default", help="experiment scale (default|test)"
    )
    experiment.add_argument(
        "--export-dir",
        default=None,
        help="also write each result to <dir>/<id>.<format>",
    )
    experiment.add_argument(
        "--format", default="csv", choices=("csv", "json"),
        help="export format when --export-dir is given",
    )

    collection = sub.add_parser(
        "collection", help="print statistics of the synthetic collection"
    )
    collection.add_argument("--scale", default="default")

    sub.add_parser("demo", help="run a tiny end-to-end search demonstration")

    generate = sub.add_parser(
        "generate", help="write a synthetic collection to a descriptor file"
    )
    generate.add_argument("output", help="collection file to write")
    generate.add_argument("--scale", default="test")

    build = sub.add_parser(
        "build", help="build a persistent retrieval system from a collection file"
    )
    build.add_argument("collection", help="descriptor collection file")
    build.add_argument("output", help="directory for the built system")
    build.add_argument(
        "--chunker", default="sr", choices=("sr", "bag"),
    )
    build.add_argument(
        "--chunk-size", type=int, default=0,
        help="target descriptors per chunk (0 = auto)",
    )

    batch = sub.add_parser(
        "batch-search",
        help="run a batch of exact descriptor queries through the batch engine",
    )
    batch.add_argument("system", help="directory of a built system")
    batch.add_argument("collection", help="collection file to take queries from")
    batch.add_argument(
        "--batch", type=int, default=64, help="queries per batch (first N rows)"
    )
    batch.add_argument("--k", type=int, default=10)
    batch.add_argument(
        "--cache-mb", type=float, default=None, metavar="MB",
        help=(
            "enable the simulated cross-query chunk cache with this "
            "capacity; warm hits are charged at memory-copy cost"
        ),
    )

    query = sub.add_parser(
        "query", help="run one descriptor query against a built system"
    )
    query.add_argument("system", help="directory of a built system")
    query.add_argument("collection", help="collection file to take the query from")
    query.add_argument("--row", type=int, default=0, help="query descriptor row")
    query.add_argument("--k", type=int, default=10)
    query.add_argument(
        "--chunks", type=int, default=0,
        help="approximation budget in chunks (0 = exact)",
    )

    image_query = sub.add_parser(
        "image-query", help="rank images against one query image"
    )
    image_query.add_argument("system")
    image_query.add_argument("collection")
    image_query.add_argument("--image", type=int, required=True)
    image_query.add_argument("--top", type=int, default=5)

    faultsim_p = sub.add_parser(
        "faultsim",
        help="sweep storage fault rates; emit quality-vs-fault-rate curves",
    )
    _add_sweep_arguments(faultsim_p, size_class="MEDIUM")
    faultsim_p.add_argument(
        "--rates", default=None,
        help="comma-separated fault rates in [0, 0.5] (default: built-in sweep)",
    )

    servesim_p = sub.add_parser(
        "servesim",
        help=(
            "simulate open-loop traffic against the resilient query "
            "service; emit SLO metrics per (fault rate, load) cell"
        ),
    )
    _add_sweep_arguments(servesim_p)
    servesim_p.add_argument(
        "--loads", default=None,
        help=(
            "comma-separated load factors (multiples of the pool's "
            "calibrated capacity; default: built-in grid)"
        ),
    )
    servesim_p.add_argument(
        "--fault-rates", default=None,
        help="comma-separated fault rates in [0, 0.5] (default: built-in grid)",
    )
    servesim_p.add_argument(
        "--workers", type=int, default=4,
        help="simulated searcher workers in the pool",
    )
    servesim_p.add_argument(
        "--cache-mb", type=float, default=None, metavar="MB",
        help=(
            "share a simulated chunk cache of this capacity across the "
            "pool's workers (fresh per grid cell)"
        ),
    )

    shardsim_p = sub.add_parser(
        "shardsim",
        help=(
            "simulate sharded scatter-gather serving; emit SLO and "
            "robustness metrics per (placement, shards, fault rate) cell"
        ),
    )
    # BAG on purpose: its skewed chunks are where placement matters.
    _add_sweep_arguments(shardsim_p, family="BAG")
    shardsim_p.add_argument(
        "--placements", default=None,
        help=(
            "comma-separated placement strategies "
            "(greedy, round_robin, random; default: built-in grid)"
        ),
    )
    shardsim_p.add_argument(
        "--shards", default=None,
        help="comma-separated shard counts (default: built-in grid)",
    )
    shardsim_p.add_argument(
        "--fault-rates", default=None,
        help="comma-separated fault rates in [0, 0.5] (default: built-in grid)",
    )
    shardsim_p.add_argument(
        "--load", type=float, default=shardsim.DEFAULT_LOAD_FACTOR,
        help=(
            "offered load as a multiple of a single node's calibrated "
            "exact-search capacity"
        ),
    )
    shardsim_p.add_argument(
        "--replicas", type=int, default=2,
        help="replication factor (capped at the cell's shard count)",
    )
    shardsim_p.add_argument(
        "--workers-per-shard", type=int, default=1,
        help="simulated searcher workers on each shard node",
    )
    shardsim_p.add_argument(
        "--hedge-factor", type=float, default=shardsim.HEDGE_FACTOR,
        help=(
            "hedge delay as a multiple of the expected per-shard "
            "sub-request time (0 disables hedging)"
        ),
    )

    ingestsim_p = sub.add_parser(
        "ingestsim",
        help=(
            "streaming-ingest watch mode: grow the on-disk index 10%%->100%% "
            "under interleaved queries, crashes and compactions"
        ),
    )
    ingestsim_p.add_argument("--scale", default="test")
    ingestsim_p.add_argument(
        "--seed", type=int, default=ingestsim.DEFAULT_SEED,
        help="root seed (default: %(default)s)",
    )
    ingestsim_p.add_argument(
        "--steps", type=int, default=None,
        help="growth steps from the 10%% base to the full collection",
    )
    ingestsim_p.add_argument(
        "--crashes", type=int, default=None,
        help=(
            "seeded kills after durable operations across the run, each "
            "leaving a seeded crash state"
        ),
    )
    ingestsim_p.add_argument(
        "--crash-matrix", type=int, default=None, metavar="N",
        help=(
            "instead of watch mode: record one run, check N seeded crash "
            "states the persistence model allows (0 = all), recovering and "
            "deep-verifying each"
        ),
    )
    ingestsim_p.add_argument(
        "--workdir", default=None,
        help="working directory for the on-disk index (default: a temp dir)",
    )
    ingestsim_p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the deterministic JSON report to PATH",
    )

    verify_p = sub.add_parser(
        "verify-index",
        help=(
            "deep-check a saved or streaming index directory: checksums, "
            "exact centroids/radii/rectangles, WAL continuity, liveness accounting"
        ),
    )
    verify_p.add_argument("directory", help="saved or streaming index directory")
    verify_p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the check report as JSON to PATH",
    )
    return parser


def _cmd_list(_: argparse.Namespace) -> int:
    for experiment_id in sorted(EXPERIMENT_RUNNERS):
        print(experiment_id)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    data = prepare(scale)
    ids = (
        sorted(EXPERIMENT_RUNNERS)
        if args.experiment_id == "all"
        else [args.experiment_id]
    )
    for experiment_id in ids:
        result = EXPERIMENT_RUNNERS[experiment_id](data)
        print(result.render())
        print()
        if args.export_dir:
            import os

            from .experiments.export import write_result

            os.makedirs(args.export_dir, exist_ok=True)
            write_result(
                result,
                os.path.join(args.export_dir, f"{experiment_id}.{args.format}"),
                fmt=args.format,
            )
    return 0


def _cmd_collection(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    from .workloads.synthetic import generate_collection

    collection = generate_collection(scale.synthetic)
    print(f"scale:           {scale.name}")
    print(f"descriptors:     {len(collection)}")
    print(f"dimensions:      {collection.dimensions}")
    print(f"images:          {len(set(collection.image_ids.tolist()))}")
    print(f"storage (bytes): {collection.storage_bytes}")
    return 0


def _cmd_demo(_: argparse.Namespace) -> int:
    import numpy as np

    from .chunking.srtree_chunker import SRTreeChunker
    from .core.chunk_index import build_chunk_index
    from .core.ground_truth import exact_knn
    from .core.search import ChunkSearcher
    from .core.stop_rules import MaxChunks
    from .workloads.synthetic import SyntheticImageConfig, generate_collection

    collection = generate_collection(SyntheticImageConfig(n_images=60, seed=7))
    chunking = SRTreeChunker(leaf_capacity=64).form_chunks(collection)
    index = build_chunk_index(chunking.retained, chunking.chunk_set, name="demo")
    searcher = ChunkSearcher(index)
    query = collection.vectors[0].astype(np.float64)

    exact = searcher.search(query, k=10)
    approx = searcher.search(query, k=10, stop_rule=MaxChunks(3))
    truth = set(exact_knn(collection, query, 10).tolist())
    hits = sum(1 for i in approx.neighbor_ids() if int(i) in truth)
    print(f"collection: {len(collection)} descriptors in {index.n_chunks} chunks")
    print(
        f"exact search:  {exact.chunks_read} chunks, "
        f"{exact.elapsed_s * 1000:.1f} ms simulated"
    )
    print(
        f"approx search: {approx.chunks_read} chunks, "
        f"{approx.elapsed_s * 1000:.1f} ms simulated, "
        f"precision@10 = {hits / 10:.2f}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .storage.collection_file import write_collection_file
    from .workloads.synthetic import generate_collection

    scale = get_scale(args.scale)
    collection = generate_collection(scale.synthetic)
    write_collection_file(args.output, collection)
    print(
        f"wrote {len(collection)} descriptors "
        f"({collection.dimensions}-d) to {args.output}"
    )
    return 0


def _make_chunker(name: str, chunk_size: int, collection):
    from .chunking.bag import BagClusterer, estimate_mpi
    from .chunking.srtree_chunker import SRTreeChunker

    if chunk_size <= 0:
        chunk_size = int(min(4096, max(16, 2 * len(collection) ** 0.5)))
    if name == "sr":
        return SRTreeChunker(leaf_capacity=chunk_size)
    mpi = estimate_mpi(collection)
    return BagClusterer(
        mpi=mpi, target_clusters=max(1, len(collection) // chunk_size)
    )


def _cmd_build(args: argparse.Namespace) -> int:
    from .storage.collection_file import read_collection_file
    from .system import ImageRetrievalSystem

    collection = read_collection_file(args.collection)
    chunker = _make_chunker(args.chunker, args.chunk_size, collection)
    with ImageRetrievalSystem(chunker=chunker) as system:
        system.index_images(collection)
        system.save(args.output)
        print(
            f"built {args.chunker} system over {system.n_descriptors} descriptors "
            f"from {system.n_images} images -> {args.output}"
        )
    return 0


def _cmd_batch_search(args: argparse.Namespace) -> int:
    import dataclasses
    import time

    from .storage.collection_file import read_collection_file
    from .system import ImageRetrievalSystem

    collection = read_collection_file(args.collection)
    if args.batch < 1:
        raise CliError(f"--batch must be at least 1, got {args.batch}")
    if len(collection) == 0:
        raise CliError(f"collection {args.collection} holds no descriptors")
    if args.cache_mb is not None and not args.cache_mb > 0.0:
        raise CliError(f"--cache-mb must be positive, got {args.cache_mb}")
    with ImageRetrievalSystem.load(args.system) as system:
        chunk_cache = None
        if args.cache_mb is not None:
            from .simio.chunk_cache import LruChunkCache

            chunk_cache = LruChunkCache(
                capacity_bytes=int(args.cache_mb * (1 << 20))
            )
            system.cost_model = dataclasses.replace(
                system.cost_model, chunk_cache=chunk_cache
            )
        n = min(args.batch, len(collection))
        queries = collection.vectors[:n].astype(float)
        start = time.perf_counter()
        batch = system.find_similar_descriptors_batch(queries, k=args.k, exact=True)
        batch_wall_s = time.perf_counter() - start

        completed = sum(1 for r in batch if r.completed)
        print(f"batch of {len(batch)} queries (k={args.k}):")
        print(f"  chunks read:        {batch.total_chunks_read}")
        print(f"  chunks pruned:      {batch.total_chunks_pruned}")
        if chunk_cache is not None:
            print(f"  cache hit rate:     {chunk_cache.hit_rate:.2%}")
        print(f"  mean simulated:     {batch.mean_elapsed_s * 1000:.1f} ms/query")
        print(f"  exact completions:  {completed}/{len(batch)}")
        # Host timing goes to stderr, so stdout is the same every run.
        print(
            f"  wall clock:         {batch_wall_s:.3f} s "
            f"({len(batch) / batch_wall_s:.1f} queries/s)",
            file=sys.stderr,
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .storage.collection_file import read_collection_file
    from .system import ImageRetrievalSystem

    collection = read_collection_file(args.collection)
    if not 0 <= args.row < len(collection):
        raise CliError(f"row {args.row} out of range (collection has {len(collection)})")
    query = collection.vectors[args.row].astype(float)
    with ImageRetrievalSystem.load(args.system) as system:
        exact = args.chunks <= 0
        if not exact:
            system.default_stop_chunks = args.chunks
        result = system.find_similar_descriptors(query, k=args.k, exact=exact)
    print(
        f"query row {args.row}: {result.chunks_read} chunks, "
        f"{result.elapsed_s * 1000:.1f} ms simulated, exact={result.completed}"
    )
    for neighbor in result.neighbors:
        print(f"  id={neighbor.descriptor_id:8d}  distance={neighbor.distance:.6f}")
    return 0


def _cmd_image_query(args: argparse.Namespace) -> int:
    import numpy as np

    from .storage.collection_file import read_collection_file
    from .system import ImageRetrievalSystem

    collection = read_collection_file(args.collection)
    rows = np.flatnonzero(collection.image_ids == args.image)
    if rows.size == 0:
        raise CliError(f"image {args.image} has no descriptors in {args.collection}")
    with ImageRetrievalSystem.load(args.system) as system:
        matches = system.find_similar_images(
            collection.vectors[rows].astype(float), top_images=args.top
        )
    print(f"query image {args.image} ({rows.size} descriptors):")
    for match in matches:
        print(
            f"  image {match.image_id:6d}  votes={match.votes:4d}  "
            f"matched query descriptors={match.matched_query_descriptors}"
        )
    return 0


def _cmd_faultsim(args: argparse.Namespace) -> int:
    rates = _parse_grid(args.rates, "--rates", faultsim.DEFAULT_RATES, upper=0.5)
    result = faultsim.sweep(
        prepare(get_scale(args.scale)),
        family=args.family,
        size_class=args.size_class,
        workload_name=args.workload,
        rates=rates,
        seed=args.seed,
        checkpoint_path=args.checkpoint,
    )
    return _print_sweep(result, args.json)


def _parse_grid(text, name, default, upper=None, integral=False):
    """Comma-separated finite floats (integers when ``integral``) from a
    CLI flag, with range checking; the built-in ``default`` grid when the
    flag was not given."""
    if text is None:
        return list(default)
    kind, parse = ("integers", int) if integral else ("numbers", float)
    try:
        values = [parse(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise CliError(f"{name} must be comma-separated {kind}, got {text!r}")
    if not values:
        raise CliError(f"{name} must name at least one value")
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"{name} values must be finite, got {text!r}")
    if any(v < 0.0 or (upper is not None and v > upper) for v in values):
        bound = f"[0, {upper}]" if upper is not None else "non-negative"
        raise CliError(f"{name} values must lie in {bound}")
    return values


def _cmd_servesim(args: argparse.Namespace) -> int:
    loads = _parse_grid(args.loads, "--loads", servesim.DEFAULT_LOAD_FACTORS)
    if any(not load > 0.0 for load in loads):
        raise CliError("--loads values must be positive")
    fault_rates = _parse_grid(
        args.fault_rates, "--fault-rates", servesim.DEFAULT_FAULT_RATES, upper=0.5
    )
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    if args.cache_mb is not None and not args.cache_mb > 0.0:
        raise CliError(f"--cache-mb must be positive, got {args.cache_mb}")
    result = servesim.sweep(
        prepare(get_scale(args.scale)),
        family=args.family,
        size_class=args.size_class,
        workload_name=args.workload,
        load_factors=loads,
        fault_rates=fault_rates,
        seed=args.seed,
        n_workers=args.workers,
        checkpoint_path=args.checkpoint,
        cache_mb=args.cache_mb,
    )
    return _print_sweep(result, args.json)


def _cmd_shardsim(args: argparse.Namespace) -> int:
    if args.placements is None:
        placements = list(shardsim.DEFAULT_PLACEMENTS)
    else:
        placements = [
            token.strip()
            for token in args.placements.split(",")
            if token.strip()
        ]
        if not placements:
            raise CliError("--placements must name at least one strategy")
    shard_counts = _parse_grid(
        args.shards, "--shards", shardsim.DEFAULT_SHARD_COUNTS, integral=True
    )
    if any(count < 1 for count in shard_counts):
        raise CliError("--shards values must be at least 1")
    fault_rates = _parse_grid(
        args.fault_rates, "--fault-rates", shardsim.DEFAULT_FAULT_RATES, upper=0.5
    )
    if not args.load > 0.0:
        raise CliError(f"--load must be positive, got {args.load}")
    if args.replicas < 1:
        raise CliError(f"--replicas must be at least 1, got {args.replicas}")
    if args.workers_per_shard < 1:
        raise CliError(
            f"--workers-per-shard must be at least 1, got {args.workers_per_shard}"
        )
    if not 0.0 <= args.hedge_factor < math.inf:
        raise CliError(
            f"--hedge-factor must be finite and non-negative, "
            f"got {args.hedge_factor}"
        )
    result = shardsim.sweep(
        prepare(get_scale(args.scale)),
        family=args.family,
        size_class=args.size_class,
        workload_name=args.workload,
        placements=placements,
        shard_counts=shard_counts,
        fault_rates=fault_rates,
        load_factor=args.load,
        n_replicas=args.replicas,
        workers_per_shard=args.workers_per_shard,
        hedge_factor=args.hedge_factor,
        seed=args.seed,
        checkpoint_path=args.checkpoint,
    )
    return _print_sweep(result, args.json)


def _cmd_ingestsim(args: argparse.Namespace) -> int:
    import dataclasses
    import shutil
    import tempfile

    scale = get_scale(args.scale)
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.crashes is not None:
        overrides["n_crashes"] = args.crashes
    try:
        config = dataclasses.replace(ingestsim.IngestSimConfig(), **overrides)
    except ValueError as exc:
        raise CliError(str(exc))

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-ingestsim-")
    failed = False
    try:
        if args.crash_matrix is not None:
            if args.crash_matrix < 0:
                raise CliError(
                    f"--crash-matrix cannot be negative, got {args.crash_matrix}"
                )
            n_points = args.crash_matrix or None  # 0 = every enumerated state
            report = ingestsim.crash_matrix(
                scale, workdir, seed=args.seed, n_points=n_points
            )
            title = (
                f"crash matrix: scale={report['scale']} seed={report['seed']} "
                f"ops={report['n_ops']} states={report['n_states']} "
                f"tested={len(report['results'])}"
            )
            results = report["results"]
            rows = [[r["state"], r["position"], r["n_descriptors"],
                     "ok" if r["problem"] is None else "FAIL"] for r in results]
            print(format_table(["state", "position", "recovered", "verdict"], rows, title))
            for r in results:
                if r["problem"] is not None:
                    print(f"FAIL state {r['state']}: {r['description']}: {r['problem']}")
            failed = not report["all_ok"]
            print(f"all recoveries consistent: {report['all_ok']}")
        else:
            report = ingestsim.simulate(
                scale, workdir, seed=args.seed, config=config
            )
            title = (
                f"ingestsim: scale={report['scale']} seed={report['seed']} "
                f"k={report['k']} total={report['n_total']} "
                f"base={report['base_size']}"
            )
            columns = {  # header -> report key
                "step": "step", "frac": "fraction", "descr": "n_descriptors",
                "chunks": "n_chunks", "recall": "recall", "ms/query": "elapsed_ms",
                "io_s": "ingest_io_s", "recov": "recoveries",
            }
            rows = [[r[key] for key in columns.values()] for r in report["series"]]
            print(format_table(list(columns), rows, title, precision=4))
            print(
                f"crashes injected {report['crashes_injected']}, "
                f"unacked batches replayed {report['unacked_batches_replayed']}, "
                f"final verify ok: {report['final_verify_ok']}"
            )
            failed = not report["final_verify_ok"]
        if args.json:
            _write_json(report, args.json)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        raise CliError("ingestsim consistency check failed (see report above)")
    return 0


def _cmd_verify_index(args: argparse.Namespace) -> int:
    from .core.ingest import verify_streaming_index
    from .system import verify_system_file

    report = verify_streaming_index(args.directory)
    verify_system_file(args.directory, report)
    for check in report["checks"]:
        verdict = "ok" if check["ok"] else "FAIL"
        print(f"{check['name']:<10s} {verdict:<4s} {check['detail']}")
    if report["ok"]:
        print(
            f"index ok: {report['n_descriptors']} descriptors in "
            f"{report['n_chunks']} chunks, {report['replayed_batches']} "
            f"replayed batches, {report['torn_bytes']} torn WAL bytes"
        )
    if args.json:
        _write_json(report, args.json)
    if not report["ok"]:
        raise CliError(f"index verification failed for {args.directory}")
    return 0


_COMMANDS = {
    "list-experiments": _cmd_list,
    "experiment": _cmd_experiment,
    "collection": _cmd_collection,
    "demo": _cmd_demo,
    "generate": _cmd_generate,
    "build": _cmd_build,
    "batch-search": _cmd_batch_search,
    "query": _cmd_query,
    "image-query": _cmd_image_query,
    "faultsim": _cmd_faultsim,
    "servesim": _cmd_servesim,
    "shardsim": _cmd_shardsim,
    "ingestsim": _cmd_ingestsim,
    "verify-index": _cmd_verify_index,
}


def main(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes.

    0 on success; 2 on any command failure (bad arguments, missing/corrupt
    files, unknown scale) — never a traceback, never a silent zero.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # e.g. get_scale("galactic"); KeyError carries the message as args[0].
        message = exc.args[0] if exc.args else exc
        print(f"repro: error: {message}", file=sys.stderr)
        return 2
    except CorruptFileError as exc:
        print(f"repro: error: CorruptFileError: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # Missing input files, malformed arrays, and similar user-input
        # failures.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
