"""The commands whose runs the dynamic census counts as callers.

Each is what a user or CI runs: the ``sim-smoke``, ``build-smoke``,
``paper-shapes`` and ``examples`` jobs' commands, the README's other
subcommands, and the benchmark's tiny run.  They run in order in one
scratch directory, so later ones read the files earlier ones write.
``{python}`` is the interpreter running the census and ``{root}`` the
checkout; ``status`` is the exit status the command must end with.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Tuple

__all__ = ["Command", "COMMANDS"]


class Command(NamedTuple):
    argv: Tuple[str, ...]
    status: int = 0


def _cli(*args: str, status: int = 0) -> Command:
    return Command(("{python}", "-m", "repro.cli") + args, status)


def _python(source: str) -> Command:
    return Command(("{python}", "-c", source))


def _sweep(sim: str, *args: str) -> Command:
    return _cli(sim, "--scale", "test", "--seed", "2005", *args,
                "--json", f"{sim}.json")


_DAMAGE_MANIFEST = """
import json, shutil
shutil.copytree("ingestsim_workdir", "damaged_workdir")
path = "damaged_workdir/MANIFEST.json"
manifest = json.load(open(path))
del manifest["chunks"][0]["base_ref"]
json.dump(manifest, open(path, "w"))
"""

_DAMAGE_CODES = """
import shutil
shutil.copytree("out_a", "damaged_out")
path = "damaged_out/base-000000.va"
raw = bytearray(open(path, "rb").read())
raw[32 + 5] ^= 0x10
open(path, "wb").write(raw)
"""

# Flips a byte of the first code block the exact query of row 5 consults.
_FLIP_CONSULTED = """
import shutil
from repro import ChunkIndex, ChunkSearcher
from repro.storage import read_collection_file
from repro.storage.code_file import CodeFileReader

shutil.copytree("out_a", "flipped_out")
consulted = []
read_block = CodeFileReader.read_block
CodeFileReader.read_block = lambda self, chunk_id: (
    consulted.append(chunk_id), read_block(self, chunk_id))[1]
query = read_collection_file("col.bin").vectors[5].astype(float)
with ChunkIndex.load("flipped_out", 24) as index:
    assert ChunkSearcher(index).search(query, k=10).completed
    counts = [meta.n_descriptors for meta in index.metas]
offset = 32 + sum(12 * n + 4 for n in counts[: consulted[0]])
damaged = bytearray(open("flipped_out/base-000000.va", "rb").read())
damaged[offset] ^= 0x10
open("flipped_out/base-000000.va", "wb").write(damaged)
"""

_DAMAGE_HEADER = """
import shutil
shutil.copytree("out_a", "damaged_header")
with open("damaged_header/base-000000.va", "r+b") as handle:
    handle.write(b"XXXX")
"""

_EXPORTS = tuple(
    _cli("experiment", experiment, "--scale", "test", "--export-dir", "exp",
         "--format", form)
    for experiment in ("table1", "fig4", "shardsim")
    for form in ("json", "csv")
)

#: Every ``examples/*.py`` of this checkout, as the ``examples`` job runs them.
_EXAMPLES = tuple(
    Command(("{python}", "{root}/examples/" + path.name))
    for path in sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))
)

#: The committed command list, in run order.
COMMANDS: Tuple[Command, ...] = (
    _sweep("faultsim"),
    _sweep("servesim", "--loads", "0.5,2,8", "--fault-rates", "0,0.15"),
    _sweep("servesim", "--loads", "0.5,2,8", "--fault-rates", "0,0.15",
           "--cache-mb", "1"),
    _sweep("shardsim", "--placements", "greedy,round_robin,random",
           "--shards", "4", "--fault-rates", "0,0.2"),
    _sweep("ingestsim", "--steps", "4", "--crashes", "2"),
    _sweep("ingestsim", "--crash-matrix", "8"),
    _cli("ingestsim", "--scale", "test", "--seed", "2005", "--steps", "4",
         "--crashes", "2", "--workdir", "ingestsim_workdir"),
    _cli("verify-index", "ingestsim_workdir"),
    _python(_DAMAGE_MANIFEST),
    _cli("verify-index", "damaged_workdir", status=2),
    _cli("generate", "col.bin", "--scale", "test"),
    _cli("build", "col.bin", "out_a", "--chunker", "sr", "--chunk-size", "64"),
    _cli("build", "col.bin", "out_bag", "--chunker", "bag", "--chunk-size", "64"),
    _cli("verify-index", "out_a"),
    _cli("query", "out_a", "col.bin", "--row", "5", "--chunks", "0"),
    _cli("query", "out_a", "col.bin", "--row", "5", "--chunks", "3"),
    _cli("batch-search", "out_a", "col.bin", "--batch", "32"),
    _cli("batch-search", "out_a", "col.bin", "--batch", "32", "--cache-mb", "8"),
    _cli("image-query", "out_a", "col.bin", "--image", "3"),
    _python(_DAMAGE_CODES),
    _cli("verify-index", "damaged_out", status=2),
    _python(_FLIP_CONSULTED),
    _cli("query", "flipped_out", "col.bin", "--row", "5", "--chunks", "0", status=2),
    _python(_DAMAGE_HEADER),
    _cli("query", "damaged_header", "col.bin", "--row", "5", status=2),
    *_EXPORTS,
    _cli("experiment", "all", "--scale", "test"),
    _cli("list-experiments"),
    _cli("collection", "--scale", "test"),
    _cli("demo"),
    *_EXAMPLES,
    Command(("{python}", "{root}/benchmarks/perf/run.py", "--all", "--scale", "tiny")),
)
