"""Unit tests for the one fact the linter reads across files: the
``__init__`` re-export map, its canonicalization, and LAY001 seeing
through it."""

from lint.runner import lint_sources
from lint.imports import canonicalize


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


class TestLay001ReexportFix:
    """The historical false negative: an algorithmic layer importing an
    app-shell symbol through the top-level ``__init__`` re-export."""

    SOURCES = {
        "__init__.py": "from .system import ImageRetrievalSystem\n",
        "system.py": "class ImageRetrievalSystem:\n    pass\n",
        "core/search.py": "from .. import ImageRetrievalSystem\n",
    }

    def test_reexported_shell_symbol_is_caught(self):
        diags = lint_sources(self.SOURCES)
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
        )
        assert not [d for d in diags if d.rule == "LAY001"]

    def test_reexports_built_from_init_files(self):
        """A shell name re-exported through two ``__init__`` files is
        chased to its defining module."""
        diags = lint_sources(
            {
                "__init__.py": "from .experiments import Runner\n",
                "experiments/__init__.py": "from .runner import Runner\n",
                "experiments/runner.py": "class Runner:\n    pass\n",
                "core/search.py": "from .. import Runner\n",
            }
        )
        assert [(d.path, d.rule) for d in diags] == [("core/search.py", "LAY001")]
        assert "repro.experiments.runner.Runner" in diags.diagnostics[0].message
