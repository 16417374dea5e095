"""Match entered code objects to the package's ``def``s, and audit.

A ``def`` is entered when a code object of its file, first line and name
was: ``co_firstlineno`` is the line of a function's first decorator, or
of its ``def`` without one, on every Python this repository supports.
A never-entered ``def`` is reported once, under the outermost
never-entered ``def`` around it; the ``def``s nested in an entered one
are matched in their turn.
"""

from __future__ import annotations

import ast
import os
import pathlib
from typing import Iterator, List, Mapping, NamedTuple, Set, Tuple, Union

from .runner import Entry

__all__ = ["Function", "audit", "never_entered"]

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class Function(NamedTuple):
    """One never-entered ``def``: its ``path:line`` (relative to the
    checkout) and its dotted name (``repro.module.Class.method``; a
    nested ``def`` adds its name to its enclosing function's)."""

    where: str
    dotted: str


def _first_line(node: _Def) -> int:
    return node.decorator_list[0].lineno if node.decorator_list else node.lineno


def _defs(node: ast.AST, prefix: str) -> Iterator[Tuple[str, _Def]]:
    """``(dotted name, node)`` of each ``def`` directly under ``node``:
    through classes and compound statements, not into other ``def``s."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{child.name}", child
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}.{child.name}")
        else:
            yield from _defs(child, prefix)


def _modules(root: pathlib.Path) -> Iterator[Tuple[str, str, pathlib.Path]]:
    """``(module, relative path, real path)`` of every ``src/repro`` file."""
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield module, path.relative_to(root).as_posix(), pathlib.Path(
            os.path.realpath(path)
        )


def never_entered(
    root: pathlib.Path, entered: Set[Entry]
) -> Tuple[List[Function], Set[str]]:
    """The never-entered ``def``s of ``root/src/repro`` in file and line
    order, and the dotted names of the entered ones."""
    missed: List[Function] = []
    entered_names: Set[str] = set()
    for module, where, real in _modules(root):
        tree = ast.parse(real.read_text(encoding="utf-8"))
        pending = list(_defs(tree, module))
        found: List[Tuple[int, Function]] = []
        while pending:
            dotted, node = pending.pop()
            line = _first_line(node)
            if (str(real), line, node.name) in entered:
                entered_names.add(dotted)
                pending.extend(_defs(node, dotted))
            else:
                found.append((line, Function(f"{where}:{line}", dotted)))
        missed.extend(function for _, function in sorted(found))
    return missed, entered_names


def audit(
    missed: List[Function],
    entered_names: Set[str],
    allowed: Mapping[str, Tuple[str, str]],
    categories: Tuple[str, ...],
) -> List[str]:
    """One line per problem: a never-entered function ``allowed`` does not
    list; an entry whose function is entered (in ``entered_names``), that
    names no reported function, or whose category is not in ``categories``."""
    reported = {function.dotted for function in missed}
    problems = [
        f"{function.where}: {function.dotted} is entered by no census command "
        "(delete it, give it a shipped caller, or add it to ALLOWED with a "
        "category and a reason)"
        for function in missed
        if function.dotted not in allowed
    ]
    for dotted in sorted(allowed):
        category = allowed[dotted][0]
        if dotted in entered_names and dotted not in reported:
            problems.append(f"ALLOWED entry {dotted} is entered; drop the entry")
        elif dotted not in reported:
            problems.append(f"ALLOWED entry {dotted} names no reported function")
        if category not in categories:
            problems.append(
                f"ALLOWED entry {dotted} has category {category!r}, not one of "
                f"{', '.join(categories)}"
            )
    return problems
