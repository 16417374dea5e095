"""Unit tests for the whole-program model: symbol table, re-export
canonicalization, call graph, and the LAY001 re-export fix."""

import ast

from repro.analysis import lint_sources
from repro.analysis.callgraph import CallGraph, attribute_types
from repro.analysis.config import default_config
from repro.analysis.imports import canonicalize
from repro.analysis.symbols import SymbolTable, parse_contracts


def build_symbols(sources):
    files = [
        (relpath, text, ast.parse(text)) for relpath, text in sorted(sources.items())
    ]
    return SymbolTable.build("repro", files)


class TestCanonicalize:
    def test_empty_map_is_identity(self):
        assert canonicalize("repro.core.search.ChunkSearcher", {}) == (
            "repro.core.search.ChunkSearcher"
        )

    def test_chases_chain_through_two_inits(self):
        reexports = {
            "repro.LruChunkCache": "repro.simio.LruChunkCache",
            "repro.simio.LruChunkCache": "repro.simio.chunk_cache.LruChunkCache",
        }
        assert canonicalize("repro.LruChunkCache", reexports) == (
            "repro.simio.chunk_cache.LruChunkCache"
        )

    def test_prefix_expansion_keeps_attribute_suffix(self):
        reexports = {"repro.Searcher": "repro.core.search.Searcher"}
        assert canonicalize("repro.Searcher.search", reexports) == (
            "repro.core.search.Searcher.search"
        )

    def test_self_prefixed_mapping_terminates(self):
        # A function named after its module: the key is a prefix of its
        # own value.  Naive prefix chasing would grow the name forever.
        reexports = {"repro.srtree.bulk_load": "repro.srtree.bulk_load.bulk_load"}
        assert canonicalize("repro.srtree.bulk_load", reexports) == (
            "repro.srtree.bulk_load.bulk_load"
        )

    def test_identity_mapping_terminates(self):
        assert canonicalize("repro.simio", {"repro.simio": "repro.simio"}) == (
            "repro.simio"
        )


class TestSymbolTable:
    def test_reexports_built_from_init_files(self):
        table = build_symbols(
            {
                "__init__.py": "from .simio import LruChunkCache\n",
                "simio/__init__.py": "from .chunk_cache import LruChunkCache\n",
                "simio/chunk_cache.py": "class LruChunkCache:\n    pass\n",
            }
        )
        assert table.canonical("repro.LruChunkCache") == (
            "repro.simio.chunk_cache.LruChunkCache"
        )

    def test_resolve_function_and_method(self):
        table = build_symbols(
            {
                "core/search.py": (
                    "def helper() -> int:\n"
                    "    return 1\n"
                    "class Searcher:\n"
                    "    def search(self) -> int:\n"
                    "        return helper()\n"
                ),
            }
        )
        assert table.resolve_function("repro.core.search.helper") is not None
        method = table.resolve_function("repro.core.search.Searcher.search")
        assert method is not None
        assert method.class_name == "Searcher"

    def test_contract_on_line_above_def(self):
        table = build_symbols(
            {
                "core/a.py": (
                    "# repro: exact\n"
                    "def kernel() -> float:\n"
                    "    return 0.0\n"
                    "\n"
                    "def plain() -> float:\n"
                    "    return 1.0\n"
                ),
            }
        )
        assert table.functions["repro.core.a.kernel"].contract == "exact"
        assert table.functions["repro.core.a.plain"].contract is None

    def test_parse_contracts_tags_and_owns(self):
        contracts = parse_contracts(
            "x = 1  # repro: exact\n"
            "# repro: owns(acc)\n"
            "y = 2\n"
        )
        assert contracts.tags_on(1) == ("exact",)
        # The retired ownership tag is kept like any unknown tag, for
        # EXA002 to report; only parsing happens here.
        assert contracts.tags_on(2) == ("owns",)


class TestCallGraph:
    def test_cross_module_call_edge_resolves(self):
        table = build_symbols(
            {
                "a.py": "def source() -> float:\n    return 1.0\n",
                "core/b.py": (
                    "from repro.a import source\n"
                    "def caller() -> float:\n"
                    "    return source()\n"
                ),
            }
        )
        graph = CallGraph.build(table, attribute_types(table))
        sites = graph.calls_from("repro.core.b.caller")
        resolved = [s.resolved.qualname for s in sites if s.resolved is not None]
        assert "repro.a.source" in resolved

    def test_method_call_through_annotated_param(self):
        table = build_symbols(
            {
                "simio/pipeline.py": (
                    "class PipelineSimulator:\n"
                    "    def elapsed(self) -> float:\n"
                    "        return 0.0\n"
                ),
                "core/c.py": (
                    "from repro.simio.pipeline import PipelineSimulator\n"
                    "def run(sim: PipelineSimulator) -> float:\n"
                    "    return sim.elapsed()\n"
                ),
            }
        )
        graph = CallGraph.build(table, attribute_types(table))
        resolved = [
            s.resolved.qualname
            for s in graph.calls_from("repro.core.c.run")
            if s.resolved is not None
        ]
        assert "repro.simio.pipeline.PipelineSimulator.elapsed" in resolved


class TestLay001ReexportFix:
    """The historical false negative: an algorithmic layer importing an
    app-shell symbol through the top-level ``__init__`` re-export."""

    SOURCES = {
        "__init__.py": "from .system import ImageRetrievalSystem\n",
        "system.py": "class ImageRetrievalSystem:\n    pass\n",
        "core/search.py": "from .. import ImageRetrievalSystem\n",
    }

    def test_reexported_shell_symbol_is_caught(self):
        diags = lint_sources(self.SOURCES, config=default_config())
        lay = [d for d in diags if d.rule == "LAY001"]
        assert len(lay) == 1
        assert lay[0].path == "core/search.py"
        assert lay[0].line == 1
        assert "system" in lay[0].message

    def test_direct_submodule_import_still_caught(self):
        diags = lint_sources(
            {
                "system.py": "class ImageRetrievalSystem:\n    pass\n",
                "core/search.py": "from ..system import ImageRetrievalSystem\n",
            },
            config=default_config(),
        )
        assert any(d.rule == "LAY001" and d.path == "core/search.py" for d in diags)

    def test_allowed_reexport_is_not_flagged(self):
        diags = lint_sources(
            {
                "__init__.py": "from .core import ChunkSearcher\n",
                "core/__init__.py": "from .search import ChunkSearcher\n",
                "core/search.py": "class ChunkSearcher:\n    pass\n",
                "experiments/run.py": "from .. import ChunkSearcher\n",
            },
            config=default_config(),
        )
        assert not [d for d in diags if d.rule == "LAY001"]
