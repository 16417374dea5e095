"""Census: every top-level definition in ``src/repro`` has a caller outside
``tests/``.

A module-level ``def`` or ``class`` is *live* when some code in ``src/``,
``benchmarks/`` or ``examples/`` names it — an ``ast.Name`` id or an
``ast.Attribute`` attr equal to its name.  Strings, comments, ``__all__``
and the import statement itself do not count, so a re-export keeps nothing
alive.  A definition only ``tests/`` reach is an island: delete it, or
list it in :data:`ALLOWED` with the reason it stays.

The check is by name, not by resolved binding: any same-named variable or
attribute anywhere keeps a definition alive, so it can miss an island; and
a definition reached only through a string (``getattr``, a name registry)
is flagged until code names it or :data:`ALLOWED` lists it.
"""

import ast
import pathlib
from typing import Dict, List, Mapping, Set

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The directories whose code counts as a caller.
CODE_DIRS = ("src", "benchmarks", "examples")

#: Dotted name -> why a definition no shipped code references stays.
ALLOWED: Dict[str, str] = {
    "repro.simio.calibration.verify_calibration": (
        "the cost model's proof against the paper's anchor observations, "
        "asserted by tests/simio/test_calibration.py"
    ),
}


def definitions(root: pathlib.Path) -> Dict[str, str]:
    """Dotted name -> ``path:line`` of every module-level def/class under
    ``root/src/repro``, in file and line order."""
    src = root / "src"
    found: Dict[str, str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.relative_to(root).as_posix()}:{node.lineno}"
                found[f"{module}.{node.name}"] = where
    return found


def referenced_names(root: pathlib.Path) -> Set[str]:
    """Every ``Name`` id and ``Attribute`` attr in the code of
    :data:`CODE_DIRS`."""
    names: Set[str] = set()
    for directory in CODE_DIRS:
        for path in (root / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def census(root: pathlib.Path, allowed: Mapping[str, str]) -> List[str]:
    """One line per problem: an island not in ``allowed``, an ``allowed``
    entry that code references, an ``allowed`` entry that names nothing."""
    defined = definitions(root)
    names = referenced_names(root)

    def live(dotted: str) -> bool:
        return dotted.rsplit(".", 1)[1] in names

    problems = [
        f"{where}: {dotted} is referenced by no code in "
        f"{'/, '.join(CODE_DIRS)}/ (delete it, or add it to ALLOWED with a reason)"
        for dotted, where in defined.items()
        if not live(dotted) and dotted not in allowed
    ]
    for dotted in sorted(allowed):
        if dotted not in defined:
            problems.append(f"ALLOWED entry {dotted} names no definition")
        elif live(dotted):
            problems.append(
                f"{defined[dotted]}: ALLOWED entry {dotted} is referenced; drop the entry"
            )
    return problems


def test_every_definition_has_a_caller_outside_tests():
    problems = census(ROOT, ALLOWED)
    assert not problems, "\n".join(problems)


class TestTheCensusBites:
    """The check itself, on a planted miniature tree."""

    @pytest.fixture()
    def tree(self, tmp_path):
        files = {
            "src/repro/__init__.py": "",
            "src/repro/kernels.py": (
                "def used():\n    return 1\n\n\n"
                "def island():\n    return 2\n\n\n"
                "class Helper:\n    pass\n"
            ),
            "src/repro/pkg/__init__.py": "def exported():\n    return 3\n",
            "benchmarks/bench.py": "from repro.kernels import island, used\n\nused()\n",
            "examples/demo.py": "import repro.pkg\n\nrepro.pkg.exported()\n",
        }
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return tmp_path

    def test_an_island_is_named_with_its_file_and_line(self, tree):
        """Importing ``island`` is not calling it; ``Helper`` has no
        mention at all; a package ``__init__`` is the package's module."""
        problems = census(tree, {})
        assert [line.split(" is referenced")[0] for line in problems] == [
            "src/repro/kernels.py:5: repro.kernels.island",
            "src/repro/kernels.py:9: repro.kernels.Helper",
        ]

    def test_an_allowed_island_passes(self, tree):
        allowed = {"repro.kernels.island": "why", "repro.kernels.Helper": "why"}
        assert census(tree, allowed) == []

    def test_a_stale_allowed_entry_fails(self, tree):
        allowed = {
            "repro.kernels.island": "why",
            "repro.kernels.Helper": "why",
            "repro.kernels.used": "referenced after all",
            "repro.kernels.gone": "deleted since",
        }
        assert census(tree, allowed) == [
            "ALLOWED entry repro.kernels.gone names no definition",
            "src/repro/kernels.py:1: ALLOWED entry repro.kernels.used is "
            "referenced; drop the entry",
        ]
