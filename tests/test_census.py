"""Census: every definition and option in ``src/repro`` and ``tools/lint``
has a caller outside ``tests/``, every function of ``src/repro`` is
entered by a shipped command, and ``src/`` keeps to its line budget.

Two static questions, answered from the code of ``src/``, ``benchmarks/``,
``examples/`` and ``tools/`` (:data:`CODE_DIRS`); tests never count.

* **Definitions.**  A module-level ``def`` or ``class`` is *live* when some
  code names it — an ``ast.Name`` id or an ``ast.Attribute`` attr equal to
  its name.  Strings, comments, ``__all__`` and the import statement itself
  do not count, so a re-export keeps nothing alive.
* **Options.**  An option is a defaulted parameter of a public module-level
  function, public method or public-class ``__init__``, or a defaulted field
  of a public ``@dataclass`` (a field whose ``default_factory`` is an empty
  ``list``/``dict``/``set`` is per-instance state, not an option).  It is
  *set* only at a call of its *owner* — the function, the method, or the
  class for ``__init__`` and fields, named by the called ``Name`` id or
  ``Attribute`` attr, through a module-level alias (``Alias = Owner``), as
  ``cls(...)`` inside the class, or as ``dataclasses.replace(...)`` for a
  field — by that keyword or that position, or by a store into
  ``x["<name>"]`` (how the CLI fills its override dicts), with a value that
  is not the default's source text.  A bare forward ``f(x=x)`` of the
  enclosing function's parameter ``x`` (optionally wrapped in one call such
  as ``int(...)``) sets it when that parameter has no default, or is itself
  a set option (private functions' included), resolved to a fixed point.
  An attribute forward (``cfg.<name>``, ``m["<name>"]``) sets it when some
  keyword of that name at any call passes a value that is neither the
  default's text nor a forward (``self.<name>`` and ``args.<name>`` count as
  setting).  An option no code sets is a constant in disguise: make it one.

Each question has its allowlist (:data:`ALLOWED`, :data:`OPTIONS_ALLOWED`),
dotted name -> the reason the entry stays; an entry that names nothing, or
names something code reaches after all, fails.

Definitions are checked by name, not by resolved binding: any same-named
variable or attribute anywhere keeps one alive, so it can miss one;
options are resolved to their owner's calls, by the callee's name.  One
reached only through a string (``getattr``, a name registry) is flagged
until code names it or an allowlist lists it.

The **functions** question is the dynamic census, ``tools/census``: it
runs a committed command list under a function-entry hook and names every
``def`` of ``src/repro`` no command entered, so a same-named twin keeps
nothing alive.  A real-tree run takes about a minute and is the CI job
``census``; :class:`TestTheDynamicCensusBites` runs it over planted trees.

The **line budget**: ``src/**/*.py`` holds at most :data:`SRC_LINE_BUDGET`
lines.  A change that deletes code lowers the budget to the new count; a
change that grows ``src/`` raises it and says why in CHANGES.md.
"""

import ast
import functools
import pathlib
import sys
from collections import defaultdict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The dynamic census is a tool outside the package, as the linter is.
sys.path.insert(0, str(ROOT / "tools"))

from census.allowed import ALLOWED as ENTRY_ALLOWED  # noqa: E402
from census.allowed import CATEGORIES  # noqa: E402
from census.commands import Command  # noqa: E402
from census.functions import audit, never_entered  # noqa: E402
from census.runner import CommandFailed, entered  # noqa: E402

#: The directories whose code counts as a caller.
CODE_DIRS = ("src", "benchmarks", "examples", "tools")

#: ``(directory, package)`` of each audited tree: the system and the linter.
AUDITED = (("src", "repro"), ("tools", "lint"))

#: Most lines ``src/**/*.py`` may hold.
SRC_LINE_BUDGET = 17_525

#: Dotted name -> why a definition no shipped code references stays.
ALLOWED: Dict[str, str] = {
    "repro.simio.calibration.verify_calibration": (
        "the cost model's proof against the paper's anchor observations, "
        "asserted by tests/simio/test_calibration.py"
    ),
}

_PAPER_MACHINE = (
    "the paper's 2004 machine (DESIGN §2), checked against its anchor "
    "observations by verify_calibration"
)
_PAGE_SIZE = (
    "every chunk-file header and manifest records the page size, and "
    "readers use the stored value"
)
_MANIFEST_STATS = (
    "a counter every streaming manifest records; recovery restores it "
    "with MaintenanceStats(**manifest['stats'])"
)

#: Dotted option (``module.function.param``, ``module.Class.method.param``,
#: ``module.Class.__init__.param`` or ``module.Class.field``) -> why an
#: option no shipped code sets stays an option.  Tests reach a value other
#: than the default by monkeypatching a module constant, never an option.
OPTIONS_ALLOWED: Dict[str, str] = {
    "repro.core.search.ChunkSearcher.__init__.prune": (
        "the unpruned scan is the tests' reference path (README, "
        "'Pruned scan path')"
    ),
    "lint.cli.main.argv": "a CLI entry point's argument vector",
    "repro.cli.main.argv": "a CLI entry point's argument vector",
    "repro.storage.pages.PageGeometry.__init__.page_bytes": _PAGE_SIZE,
    "repro.simio.disk_model.DiskModel.page_bytes": _PAGE_SIZE,
    **{
        f"repro.core.maintenance.MaintenanceStats.{counter}": _MANIFEST_STATS
        for counter in ("inserts", "deletes", "splits", "merges")
    },
    "repro.simio.disk_model.DiskModel.rotational_latency_s": _PAPER_MACHINE,
    "repro.simio.disk_model.DiskModel.transfer_rate_bytes_per_s": _PAPER_MACHINE,
    "repro.simio.cpu_model.CpuModel.chunk_overhead_s": _PAPER_MACHINE,
    "repro.simio.cpu_model.CpuModel.ranking_time_per_chunk_s": _PAPER_MACHINE,
}


@functools.lru_cache(maxsize=len(CODE_DIRS))
def _parsed(
    root: pathlib.Path, directory: str
) -> Tuple[Tuple[pathlib.Path, ast.Module], ...]:
    """Every ``*.py`` under ``root/directory``, parsed once per tree."""
    return tuple(
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((root / directory).rglob("*.py"))
    )


def _modules(root: pathlib.Path) -> Iterator[Tuple[str, str, ast.Module]]:
    """``(module, relative path, tree)`` of every file of :data:`AUDITED`."""
    for directory, package in AUDITED:
        for path, tree in _parsed(root, directory):
            parts = path.relative_to(root / directory).with_suffix("").parts
            if parts[0] != package:
                continue
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            yield module, path.relative_to(root).as_posix(), tree


def _code(root: pathlib.Path) -> Iterator[ast.AST]:
    """Every node of the code of :data:`CODE_DIRS`."""
    for directory in CODE_DIRS:
        for _, tree in _parsed(root, directory):
            yield from ast.walk(tree)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _decorated(node: ast.AST, name: str) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == name:
            return True
    return False


def _callee(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# -- definitions ------------------------------------------------------------


def definitions(root: pathlib.Path) -> Dict[str, str]:
    """Dotted name -> ``path:line`` of every module-level def/class of
    :data:`AUDITED`, in file and line order."""
    found: Dict[str, str] = {}
    for module, where, tree in _modules(root):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found[f"{module}.{node.name}"] = f"{where}:{node.lineno}"
    return found


def referenced_names(root: pathlib.Path) -> Set[str]:
    """Every ``Name`` id and ``Attribute`` attr in the code of
    :data:`CODE_DIRS`."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in _code(root)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _audit(
    found: Mapping[str, str],
    live: Callable[[str], bool],
    allowed: Mapping[str, str],
    table: str,
    kind: str,
    verb: str,
    fix: str,
) -> List[str]:
    """One line per problem: an entry of ``found`` (dotted name ->
    ``path:line``) that is not ``live`` and not in ``allowed``, an
    ``allowed`` entry that is live, an ``allowed`` entry that names
    nothing."""
    problems = [
        f"{where}: {dotted} is {verb} by no code in {'/, '.join(CODE_DIRS)}/ "
        f"({fix}, or add it to {table} with a reason)"
        for dotted, where in found.items()
        if not live(dotted) and dotted not in allowed
    ]
    for dotted in sorted(allowed):
        if dotted not in found:
            problems.append(f"{table} entry {dotted} names no {kind}")
        elif live(dotted):
            problems.append(
                f"{found[dotted]}: {table} entry {dotted} is {verb}; drop the entry"
            )
    return problems


def census(root: pathlib.Path, allowed: Mapping[str, str]) -> List[str]:
    """The definition census's problems (see :func:`_audit`)."""
    names = referenced_names(root)
    return _audit(
        definitions(root),
        lambda dotted: dotted.rsplit(".", 1)[1] in names,
        allowed,
        "ALLOWED",
        "definition",
        "referenced",
        "delete it",
    )


# -- options ----------------------------------------------------------------


class Option(NamedTuple):
    where: str
    #: The parameter or field name a keyword or ``x["<name>"]`` store uses.
    name: str
    #: The default's source text.
    default: str
    #: The name a call of the owner uses: the function's, the method's, or
    #: the class's for ``__init__`` and dataclass fields.
    callee: str
    #: Index among the positional arguments a call passes (``self`` and
    #: ``cls`` excluded); None for a keyword-only option.
    position: Optional[int]
    #: A dataclass field, which ``dataclasses.replace`` sets too.
    field: bool


def _signature(
    fn: ast.FunctionDef, skip_first: bool
) -> Iterator[Tuple[ast.arg, ast.expr, Optional[int]]]:
    positional = fn.args.posonlyargs + fn.args.args
    defaults = fn.args.defaults
    first_default = len(positional) - len(defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg, defaults[index - first_default], index - skip_first
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg, default, None


#: ``default_factory`` values that make a field per-instance state.
_CONTAINERS = ("list", "dict", "set")


def _fields(cls: ast.ClassDef) -> Iterator[Tuple[ast.AnnAssign, ast.expr, int]]:
    """``(statement, default, position)`` of each defaulted init field."""
    position = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        default = stmt.value
        if isinstance(default, ast.Call) and _callee(default.func) == "field":
            keywords = {kw.arg: kw.value for kw in default.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = keywords.get("default", keywords.get("default_factory"))
            if isinstance(default, ast.Name) and default.id in _CONTAINERS:
                default = None
        if default is not None:
            yield stmt, default, position
        position += 1


def _classes(tree: ast.Module, every: bool) -> Iterator[ast.ClassDef]:
    """The module-level classes: the public ones, or all if ``every``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (every or _public(node.name)):
            yield node


def _functions(tree: ast.Module, every: bool) -> Iterator[ast.FunctionDef]:
    """The module-level functions: the public ones, or all if ``every``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and (every or _public(node.name)):
            yield node


def _methods(
    cls: ast.ClassDef, every: bool
) -> Iterator[Tuple[ast.FunctionDef, str, bool]]:
    """``(method, callee, skip_first)`` of the public methods and
    ``__init__`` of ``cls``, or of all its methods if ``every``."""
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef) and (
            every or _public(fn.name) or fn.name == "__init__"
        ):
            callee = cls.name if fn.name == "__init__" else fn.name
            yield fn, callee, not _decorated(fn, "staticmethod")


def options(root: pathlib.Path, every: bool = False) -> Dict[str, Option]:
    """Dotted option -> :class:`Option`, in file and line order; with
    ``every``, the defaulted parameters and fields of private functions,
    methods and classes too, which forwards pass through."""
    found: Dict[str, Option] = {}

    def add(dotted, where, node, default, callee, position, field=False):
        found[dotted] = Option(
            f"{where}:{node.lineno}", dotted.rsplit(".", 1)[1],
            ast.unparse(default), callee, position, field,
        )

    for module, where, tree in _modules(root):
        for fn in _functions(tree, every):
            for arg, default, position in _signature(fn, False):
                add(f"{module}.{fn.name}.{arg.arg}", where, arg, default,
                    fn.name, position)
        for cls in _classes(tree, every):
            prefix = f"{module}.{cls.name}"
            if _decorated(cls, "dataclass"):
                for stmt, default, position in _fields(cls):
                    add(f"{prefix}.{stmt.target.id}", where, stmt, default,
                        cls.name, position, True)
            for fn, callee, skip_first in _methods(cls, every):
                for arg, default, position in _signature(fn, skip_first):
                    add(f"{prefix}.{fn.name}.{arg.arg}", where, arg, default,
                        callee, position)
    return found


def _owners(root: pathlib.Path) -> Dict[int, str]:
    """``id`` of every module-level function and method of :data:`AUDITED`
    -> its dotted name, the prefix of its options."""
    owners: Dict[int, str] = {}
    for module, _, tree in _modules(root):
        for fn in _functions(tree, True):
            owners[id(fn)] = f"{module}.{fn.name}"
        for cls in _classes(tree, True):
            for fn, _, _ in _methods(cls, True):
                owners[id(fn)] = f"{module}.{cls.name}.{fn.name}"
    return owners


def _aliases(root: pathlib.Path) -> Dict[str, str]:
    """Module-level ``Alias = Name`` bindings of :data:`AUDITED`: alias ->
    the name it stands for."""
    return {
        stmt.targets[0].id: stmt.value.id
        for _, _, tree in _modules(root)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Name)
    }


def _parameters(arguments: ast.arguments) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Every parameter name, and those without a default."""
    positional = [*arguments.posonlyargs, *arguments.args]
    required = positional[: len(positional) - len(arguments.defaults)] + [
        arg for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is None
    ]
    every = (*positional, *arguments.kwonlyargs, arguments.vararg, arguments.kwarg)
    return (
        frozenset(arg.arg for arg in every if arg is not None),
        frozenset(arg.arg for arg in required),
    )


class _Scope(NamedTuple):
    """Where a passed value sits: its innermost enclosing function's
    parameter names, those of them without a default and its dotted owner
    if it is one (see :func:`_owners`), and its innermost enclosing class's
    name, which ``cls(...)`` calls."""

    params: FrozenSet[str]
    required: FrozenSet[str]
    owner: Optional[str]
    cls: Optional[str]


class Passed(NamedTuple):
    """One value the code passes towards an option, and where."""

    value: ast.expr
    scope: _Scope


def _scoped_code(root: pathlib.Path) -> Iterator[Tuple[ast.AST, _Scope]]:
    """Every node of the code of :data:`CODE_DIRS` with its innermost
    enclosing function's parameters and owner, and its enclosing class."""
    owners = _owners(root)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for directory in CODE_DIRS:
        for _, tree in _parsed(root, directory):
            stack: List[Tuple[ast.AST, _Scope]] = [
                (tree, _Scope(frozenset(), frozenset(), None, None))
            ]
            while stack:
                node, scope = stack.pop()
                yield node, scope
                if isinstance(node, functions):
                    scope = _Scope(
                        *_parameters(node.args), owners.get(id(node)), scope.cls
                    )
                elif isinstance(node, ast.ClassDef):
                    scope = scope._replace(cls=node.name)
                stack.extend((child, scope) for child in ast.iter_child_nodes(node))


#: ``(callee, keyword)`` -> values, ``(callee, index)`` -> values and
#: ``x["<name>"]`` store name -> values.
PassedValues = Tuple[
    Dict[Tuple[str, str], List[Passed]],
    Dict[Tuple[str, int], List[Passed]],
    Dict[str, List[Passed]],
]

#: The callee whose keywords set dataclass fields of any class.
_REPLACE = "replace"


def passed_values(root: pathlib.Path) -> PassedValues:
    """Every value the code of :data:`CODE_DIRS` passes: by keyword or
    position of a named callee, and by ``x["<name>"]`` store.  A callee is
    named by the called ``Name`` id or ``Attribute`` attr, through a
    module-level alias, with ``cls`` read as the enclosing class."""
    aliases = _aliases(root)
    by_keyword: Dict[Tuple[str, str], List[Passed]] = defaultdict(list)
    by_position: Dict[Tuple[str, int], List[Passed]] = defaultdict(list)
    by_store: Dict[str, List[Passed]] = defaultdict(list)
    for node, scope in _scoped_code(root):
        if isinstance(node, ast.Call):
            callee = _callee(node.func)
            if callee == "cls" and isinstance(node.func, ast.Name):
                callee = scope.cls
            callee = aliases.get(callee, callee)
            for keyword in node.keywords:
                if keyword.arg is not None:
                    passed = Passed(keyword.value, scope)
                    by_keyword[(callee, keyword.arg)].append(passed)
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                by_position[(callee, index)].append(Passed(arg, scope))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    key = target.slice
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        by_store[key.value].append(Passed(node.value, scope))
    return by_keyword, by_position, by_store


def _unwrapped(value: ast.expr) -> ast.expr:
    """``value`` with one single-argument call such as ``int(...)`` peeled."""
    if isinstance(value, ast.Call) and len(value.args) == 1 and not value.keywords:
        return value.args[0]
    return value


def _attribute_forward(value: ast.expr, name: str) -> bool:
    """``cfg.<name>`` or ``m["<name>"]``; ``self.<name>`` and ``args.<name>``
    set."""
    if isinstance(value, ast.Attribute):
        owner = value.value
        return value.attr == name and not (
            isinstance(owner, ast.Name) and owner.id in ("self", "args")
        )
    if isinstance(value, ast.Subscript):
        key = value.slice
        return isinstance(key, ast.Constant) and key.value == name
    return False


def _bare_forward(value: ast.expr, name: str, scope: _Scope) -> bool:
    """The enclosing function's own parameter ``<name>``."""
    return isinstance(value, ast.Name) and value.id == name and name in scope.params


def _by_name(option: Option, values: PassedValues) -> bool:
    """The rule before owners: a keyword of the option's name at any call,
    or a store, passes something other than the default's text or a
    same-named forward."""
    by_keyword, _, by_store = values
    passed = [
        value
        for (_, name), found in by_keyword.items()
        if name == option.name
        for value in found
    ] + by_store.get(option.name, [])
    return any(
        ast.unparse(value) != option.default
        and not _attribute_forward(_unwrapped(value), option.name)
        and not _bare_forward(_unwrapped(value), option.name, scope)
        for value, scope in passed
    )


def live_options(root: pathlib.Path) -> Set[str]:
    """The dotted options the code of :data:`CODE_DIRS` sets.

    A value passed at a call of the owner, or stored into ``x["<name>"]``,
    sets the option unless it is the default's source text.  A bare forward
    ``f(x=x)`` of the enclosing function's parameter ``x`` sets it when
    that parameter has no default, or is an option that is itself set
    (resolved to a fixed point).  An attribute forward (``cfg.<name>``,
    ``m["<name>"]``) sets it when the option is set by name (see
    :func:`_by_name`)."""
    found = options(root, every=True)
    values = passed_values(root)
    by_keyword, by_position, by_store = values
    live: Set[str] = set()
    forwarded_from: Dict[str, Set[str]] = defaultdict(set)
    for dotted, option in found.items():
        passed = list(by_keyword.get((option.callee, option.name), ()))
        if option.field:
            passed += by_keyword.get((_REPLACE, option.name), ())
        if option.position is not None:
            passed += by_position.get((option.callee, option.position), ())
        passed += by_store.get(option.name, ())
        for value, scope in passed:
            if ast.unparse(value) == option.default:
                continue
            value = _unwrapped(value)
            if _attribute_forward(value, option.name):
                if _by_name(option, values):
                    live.add(dotted)
                continue
            if _bare_forward(value, option.name, scope) and (
                option.name not in scope.required
            ):
                enclosing = f"{scope.owner}.{option.name}"
                if enclosing in found:
                    forwarded_from[enclosing].add(dotted)
                continue
            live.add(dotted)
    frontier = list(live)
    while frontier:
        for dotted in forwarded_from.pop(frontier.pop(), ()):
            if dotted not in live:
                live.add(dotted)
                frontier.append(dotted)
    return live


def option_census(root: pathlib.Path, allowed: Mapping[str, str]) -> List[str]:
    """The option census's problems (see :func:`_audit`)."""
    found = options(root)
    live = live_options(root)
    return _audit(
        {dotted: option.where for dotted, option in found.items()},
        live.__contains__,
        allowed,
        "OPTIONS_ALLOWED",
        "option",
        "set",
        "make it a constant at its default",
    )


def test_every_definition_has_a_caller_outside_tests():
    problems = census(ROOT, ALLOWED)
    assert not problems, "\n".join(problems)


def test_every_option_is_set_outside_tests():
    problems = option_census(ROOT, OPTIONS_ALLOWED)
    assert not problems, "\n".join(problems)


# -- line budget ------------------------------------------------------------


def over_budget(root: pathlib.Path) -> Optional[int]:
    """The line count of ``root/src/**/*.py`` (as ``wc -l`` counts) if it
    exceeds :data:`SRC_LINE_BUDGET`."""
    lines = sum(
        path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py")
    )
    return lines if lines > SRC_LINE_BUDGET else None


def test_src_fits_its_line_budget():
    assert over_budget(ROOT) is None


def test_one_line_over_the_budget_is_caught(tmp_path):
    _plant(tmp_path, {"src/repro/pad.py": "#\n" * SRC_LINE_BUDGET})
    assert over_budget(tmp_path) is None
    _plant(tmp_path, {"src/repro/more.py": "#\n"})
    assert over_budget(tmp_path) == SRC_LINE_BUDGET + 1


def _plant(root: pathlib.Path, files: Mapping[str, str]) -> pathlib.Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestTheCensusBites:
    """The check itself, on a planted miniature tree."""

    @pytest.fixture()
    def tree(self, tmp_path):
        return _plant(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/kernels.py": (
                "def used():\n    return 1\n\n\n"
                "def island():\n    return 2\n\n\n"
                "class Helper:\n    pass\n"
            ),
            "src/repro/pkg/__init__.py": "def exported():\n    return 3\n",
            "benchmarks/bench.py": "from repro.kernels import island, used\n\nused()\n",
            "examples/demo.py": "import repro.pkg\n\nrepro.pkg.exported()\n",
        })

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


class TestTheOptionCensusBites:
    """The option census on a planted tree: each way of setting an option,
    and each way of merely seeming to."""

    FLAGGED = [
        "src/repro/knobs.py:27: repro.knobs.wrap.width",
        "src/repro/knobs.py:7: repro.knobs.Config.depth",
        "src/repro/knobs.py:16: repro.knobs.Engine.__init__.height",
        "src/repro/knobs.py:19: repro.knobs.Engine.step.count",
    ]

    @pytest.fixture()
    def tree(self, tmp_path):
        return _plant(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/knobs.py": (
                "import dataclasses\n"
                "\n"
                "\n"
                "@dataclasses.dataclass\n"
                "class Config:\n"
                "    size: int = 4\n"
                "    depth: int = 2\n"
                "    cache: dict = dataclasses.field(default_factory=dict)\n"
                "\n"
                "\n"
                "def run(config, limit=10, *, mode='fast'):\n"
                "    return limit\n"
                "\n"
                "\n"
                "class Engine:\n"
                "    def __init__(self, width=8, height=3):\n"
                "        self.width = width\n"
                "\n"
                "    def step(self, count=1, scale=1.0):\n"
                "        return count * scale\n"
                "\n"
                "\n"
                "def _private(flag=False):\n"
                "    return flag\n"
                "\n"
                "\n"
                "def wrap(width=8, limit=10):\n"
                "    return run(None, limit=int(limit)), Engine(width=width)\n"
            ),
            # size: a keyword; limit: run's second positional; width:
            # Engine's first positional after self; scale: a CLI flag;
            # mode: a store into an override dict; wrap's limit: a module
            # variable that happens to share the name.  height gets only
            # its default's text, count only a (wrapped) same-named
            # forward, and wrap's width only wrap's own forward of it.
            "benchmarks/bench.py": (
                "from repro.knobs import Config, Engine, run, wrap\n"
                "\n"
                "run(Config(size=8), 20)\n"
                "engine = Engine(16, height=3)\n"
                "engine.step(count=int(config.count), scale=args.scale)\n"
                "overrides = {}\n"
                "overrides['mode'] = 'slow'\n"
                "limit = 5\n"
                "wrap(limit=limit)\n"
            ),
            "tests/test_knobs.py": (
                "from repro.knobs import Config, Engine\n"
                "\n"
                "Config(depth=5)\n"
                "Engine(height=4).step(2)\n"
            ),
        })

    def test_an_option_only_tests_set_is_named_with_its_file_and_line(self, tree):
        problems = option_census(tree, {})
        assert [line.split(" is set by")[0] for line in problems] == self.FLAGGED
        assert "make it a constant at its default" in problems[0]

    def test_allowed_options_pass(self, tree):
        allowed = {line.split(": ")[1]: "why" for line in self.FLAGGED}
        assert option_census(tree, allowed) == []

    def test_a_stale_allowed_option_fails(self, tree):
        allowed = {line.split(": ")[1]: "why" for line in self.FLAGGED}
        allowed["repro.knobs.Config.size"] = "set after all"
        allowed["repro.knobs.Config.gone"] = "deleted since"
        assert option_census(tree, allowed) == [
            "OPTIONS_ALLOWED entry repro.knobs.Config.gone names no option",
            "src/repro/knobs.py:6: OPTIONS_ALLOWED entry repro.knobs.Config.size "
            "is set; drop the entry",
        ]


class TestTheOwnerRuleBites:
    """Twins the by-name rule let through: a value counts only at a call of
    the option's own owner, and a forward only from an option that is set."""

    @staticmethod
    def flagged(tmp_path, source, caller):
        root = _plant(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/twins.py": source,
            "benchmarks/bench.py": caller,
        })
        return [line.split(": ")[1].split(" is set by")[0]
                for line in option_census(root, {})]

    def test_a_keyword_at_an_unrelated_callee_sets_nothing(self, tmp_path):
        source = (
            "def scan(limit=10):\n    return limit\n\n\n"
            "def unrelated(limit=10):\n    return limit\n"
        )
        caller = (
            "from repro.twins import scan, unrelated\n\nscan()\nunrelated(limit=3)\n"
        )
        assert self.flagged(tmp_path, source, caller) == ["repro.twins.scan.limit"]

    def test_a_forward_from_an_unset_option_sets_nothing(self, tmp_path):
        source = (
            "def outer(depth=2):\n    return inner(depth=depth)\n\n\n"
            "def inner(depth=2):\n    return depth\n"
        )
        caller = "from repro.twins import outer\n\nouter()\nconfigure(depth=5)\n"
        assert self.flagged(tmp_path, source, caller) == [
            "repro.twins.outer.depth",
            "repro.twins.inner.depth",
        ]
        setting = caller.replace("outer()", "outer(depth=4)")
        assert self.flagged(tmp_path / "set", source, setting) == []

    def test_a_call_through_a_module_level_alias_sets_the_option(self, tmp_path):
        source = (
            "class Engine:\n"
            "    def __init__(self, width=8):\n"
            "        self.width = width\n\n\n"
            "Alias = Engine\n"
        )
        caller = "from repro.twins import Alias\n\nAlias(width=16)\n"
        assert self.flagged(tmp_path, source, caller) == []




# -- functions: the dynamic census -----------------------------------------


def _run(source: str) -> Command:
    return Command(("{python}", "-c", source))


class TestTheDynamicCensusBites:
    """The dynamic census on a planted tree: a function counts as entered
    only when a listed command's run enters it — in the process, a thread
    it starts or a child process — and tests never run."""

    TREE = {
        "src/repro/__init__.py": "",
        "src/repro/shapes.py": (
            "class Shape:\n"
            "    def area(self):\n"
            "        return 1\n"
            "\n"
            "    def scale(self, factor):\n"
            "        return factor\n"
            "\n"
            "    @property\n"
            "    def name(self):\n"
            "        return 'shape'\n"
            "\n"
            "    @staticmethod\n"
            "    def make():\n"
            "        return Shape()\n"
            "\n"
            "\n"
            "class Label:\n"
            "    def scale(self, factor):\n"
            "        def grow(n):\n"
            "            return n * factor\n"
            "\n"
            "        return grow\n"
            "\n"
            "\n"
            "def island():\n"
            "    def inner():\n"
            "        return 2\n"
            "\n"
            "    return inner()\n"
            "\n"
            "\n"
            "def threaded():\n"
            "    return 3\n"
            "\n"
            "\n"
            "def child():\n"
            "    return 4\n"
        ),
        # ``scale`` is named as an attribute by shipped code, so a census by
        # name passes Shape.scale; only its twin Label.scale is ever run.
        "benchmarks/bench.py": (
            "from repro.shapes import Label, Shape\n"
            "\n"
            "print(Shape().area(), Shape().name, Label().scale(2))\n"
        ),
        "tests/test_shapes.py": (
            "from repro.shapes import Shape, island\n\nShape().scale(2)\nisland()\n"
        ),
    }

    COMMANDS = (
        Command(("{python}", "{root}/benchmarks/bench.py")),
        _run(
            "import threading\n"
            "from repro import shapes\n"
            "worker = threading.Thread(target=shapes.threaded)\n"
            "worker.start()\n"
            "worker.join()\n"
        ),
        _run(
            "import subprocess, sys\n"
            "subprocess.run([sys.executable, '-c', "
            "'from repro import shapes; shapes.child()'], check=True)\n"
        ),
    )

    MISSED = [
        "src/repro/shapes.py:5: repro.shapes.Shape.scale",
        "src/repro/shapes.py:12: repro.shapes.Shape.make",
        "src/repro/shapes.py:19: repro.shapes.Label.scale.grow",
        "src/repro/shapes.py:25: repro.shapes.island",
    ]

    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        return _plant(tmp_path_factory.mktemp("census"), self.TREE)

    @pytest.fixture(scope="class")
    def census(self, tree):
        return never_entered(tree, entered(tree, self.COMMANDS))

    @staticmethod
    def lines(missed):
        return [f"{function.where}: {function.dotted}" for function in missed]

    def test_never_entered_functions_are_named_with_file_and_line(self, census):
        """Shape.scale is kept alive by name only by its twin, island only
        by a test; a never-entered ``def`` in an entered one is named, one
        in a never-entered one is not; a decorated one is named at its
        first decorator.  The thread and the child process count."""
        missed, _ = census
        assert self.lines(missed) == self.MISSED

    def test_the_list_is_the_same_over_runs(self, tree, census):
        again = never_entered(tree, entered(tree, self.COMMANDS))
        assert self.lines(again[0]) == self.lines(census[0])
        assert again[1] == census[1]

    def test_allowed_functions_pass(self, census):
        missed, names = census
        allowed = {line.split(": ")[1]: (CATEGORIES[0], "why") for line in self.MISSED}
        assert audit(missed, names, allowed, CATEGORIES) == []

    def test_a_stale_allowed_entry_fails(self, census):
        missed, names = census
        allowed = {line.split(": ")[1]: (CATEGORIES[0], "why") for line in self.MISSED}
        allowed["repro.shapes.Shape.area"] = (CATEGORIES[0], "entered after all")
        allowed["repro.shapes.gone"] = (CATEGORIES[0], "deleted since")
        allowed["repro.shapes.island"] = ("CLI choice", "not a category")
        assert audit(missed, names, allowed, CATEGORIES) == [
            "ALLOWED entry repro.shapes.Shape.area is entered; drop the entry",
            "ALLOWED entry repro.shapes.gone names no reported function",
            "ALLOWED entry repro.shapes.island has category 'CLI choice', not one "
            f"of {', '.join(CATEGORIES)}",
        ]
        assert audit(missed, names, {}, CATEGORIES)[0] == (
            "src/repro/shapes.py:5: repro.shapes.Shape.scale is entered by no "
            "census command (delete it, give it a shipped caller, or add it to "
            "ALLOWED with a category and a reason)"
        )

    def test_a_command_that_ends_otherwise_stops_the_census(self, tree):
        with pytest.raises(CommandFailed, match="exited 3, not 0"):
            entered(tree, [_run("import sys; sys.exit(3)")])
        assert entered(tree, [Command(_run("raise SystemExit(3)").argv, 3)]) == set()


def test_the_census_allowlist_is_small_and_categorised():
    assert len(ENTRY_ALLOWED) < 52
    for dotted, (category, reason) in ENTRY_ALLOWED.items():
        assert category in CATEGORIES, dotted
        assert reason, dotted
