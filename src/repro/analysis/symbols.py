"""Project symbol table: every module, class and function, built once.

The per-file rules (CLK/RNG/DTY/LAY) only ever needed one parsed module
at a time.  The inter-procedural families (SIM/RNG1xx/EXA) need the whole
program: which qualified names exist, which ``__init__.py`` re-exports
point where, which functions carry ``# repro:`` contract comments.  This
module builds that view in one pass over the already-parsed trees — no
imports are executed, everything is derived from source text.

Naming convention: *qualnames* are fully dotted and rooted at the package
(``repro.core.search.ChunkSearcher.search``); *modules* are dotted module
paths (``repro.core.search``).
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .imports import ImportTable, canonicalize
from .suppressions import SuppressionIndex, parse_suppressions

__all__ = [
    "ContractIndex",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "SymbolTable",
    "parse_contracts",
]

#: ``# repro: <tag>`` contract comment.
_CONTRACT = re.compile(r"#\s*repro:\s*([A-Za-z-]+)")

#: Tags the analyzer understands; anything else is an EXA002 finding.
KNOWN_TAGS = frozenset({"exact", "approximate", "allow-approximate"})


class ContractIndex:
    """Per-line ``# repro:`` annotations for one source file.

    ``tags_on(line)`` returns the raw tags written on that line.  Unknown
    tags are kept (the contract rule reports them) — only parsing, no
    judgement, happens here.
    """

    def __init__(self, by_line: Dict[int, Tuple[str, ...]]):
        self._by_line = by_line

    def tags_on(self, line: int) -> Tuple[str, ...]:
        return self._by_line.get(line, ())

    def lines(self) -> Iterator[Tuple[int, Tuple[str, ...]]]:
        for line in sorted(self._by_line):
            yield line, self._by_line[line]

    def __len__(self) -> int:
        return len(self._by_line)


def parse_contracts(source: str) -> ContractIndex:
    """Extract ``# repro:`` comments from the token stream.

    Like suppressions, contracts are parsed from tokens (not regex over
    raw lines) so string literals containing the marker are inert.
    """
    by_line: Dict[int, Tuple[str, ...]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            tags = tuple(
                match.group(1).strip() for match in _CONTRACT.finditer(token.string)
            )
            if not tags:
                continue
            line = token.start[0]
            by_line[line] = by_line.get(line, ()) + tags
    except (tokenize.TokenError, IndentationError):
        pass
    return ContractIndex(by_line)


@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  #: e.g. "repro.core.search.ChunkSearcher.search"
    module: str  #: dotted module, e.g. "repro.core.search"
    relpath: str  #: package-relative path of the defining file
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    class_name: Optional[str]  #: enclosing class name, if a method
    params: Tuple[str, ...]  #: positional+keyword parameter names, in order
    contract: Optional[str] = None  #: "exact" / "approximate" from # repro:
    contract_line: int = 0

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


@dataclasses.dataclass
class ClassInfo:
    """One class definition (methods live in :class:`FunctionInfo`)."""

    qualname: str
    module: str
    relpath: str
    node: ast.ClassDef
    is_dataclass: bool
    methods: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: annotated class-body field names (the dataclass field order)
    fields: Tuple[str, ...] = ()


@dataclasses.dataclass
class ModuleInfo:
    """Everything the analyzer keeps per source file."""

    module: str  #: dotted module path, e.g. "repro.core.search"
    package: str  #: dotted package for relative-import resolution
    relpath: str
    source: str
    tree: ast.Module
    imports: ImportTable
    suppressions: SuppressionIndex
    contracts: ContractIndex
    functions: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)


def _module_name(package: str, relpath: str) -> str:
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package] + parts) if parts else package


def _package_of(package: str, relpath: str) -> str:
    directories = relpath.split("/")[:-1]
    return ".".join([package] + directories)


def _is_dataclass_decorated(node: ast.ClassDef, imports: ImportTable) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        chain: List[str] = []
        while isinstance(target, ast.Attribute):
            chain.append(target.attr)
            target = target.value
        if isinstance(target, ast.Name):
            dotted = imports.resolve(target.id) or target.id
            chain.append(dotted)
            full = ".".join(reversed(chain))
            if full in ("dataclasses.dataclass", "dataclass"):
                return True
    return False


def _function_params(node: ast.AST) -> Tuple[str, ...]:
    args = getattr(node, "args", None)
    if args is None:
        return ()
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return tuple(names)


def _contract_for_def(node: ast.AST, contracts: ContractIndex) -> Tuple[Optional[str], int]:
    """Contract tag attached to a def: on the def line, on any decorator
    line, or on the line directly above the first of those."""
    lines = [getattr(node, "lineno", 1)]
    for decorator in getattr(node, "decorator_list", []):
        lines.append(decorator.lineno)
    first = min(lines)
    for line in sorted(set(lines)) + [first - 1]:
        for tag in contracts.tags_on(line):
            if tag in ("exact", "approximate"):
                return tag, line
    return None, 0


class SymbolTable:
    """All modules of one package, with name resolution across them.

    ``reexports`` maps a re-exported dotted name to its defining dotted
    name: ``repro.simio.LruChunkCache`` ->
    ``repro.simio.chunk_cache.LruChunkCache``, derived from the
    ``from .x import y`` statements of every ``__init__.py``.
    :meth:`canonical` chases those chains to a fixed point — this is the
    resolution step the per-file :class:`ImportTable` cannot do alone,
    and the fix for the LAY001 false negative on symbols re-exported
    through a package ``__init__``.
    """

    def __init__(self, package: str):
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        #: by relpath, in deterministic (sorted-path) order
        self.by_relpath: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.reexports: Dict[str, str] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls, package: str, files: Sequence[Tuple[str, str, ast.Module]]
    ) -> "SymbolTable":
        """Build from ``(relpath, source, parsed_tree)`` triples.

        Files that failed to parse are simply absent — the runner reports
        their PARSE diagnostics separately and whole-program analysis
        proceeds on what remains.
        """
        table = cls(package)
        for relpath, source, tree in sorted(files, key=lambda item: item[0]):
            table._add_module(relpath, source, tree)
        table._build_reexports()
        return table

    def _add_module(self, relpath: str, source: str, tree: ast.Module) -> None:
        module = _module_name(self.package, relpath)
        package = _package_of(self.package, relpath)
        info = ModuleInfo(
            module=module,
            package=package,
            relpath=relpath,
            source=source,
            tree=tree,
            imports=ImportTable(tree, package),
            suppressions=parse_suppressions(source),
            contracts=parse_contracts(source),
        )
        self._collect_defs(info)
        self.modules[module] = info
        self.by_relpath[relpath] = info

    def _collect_defs(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{info.module}.{node.name}"
                fields = tuple(
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                )
                class_info = ClassInfo(
                    qualname=cls_qual,
                    module=info.module,
                    relpath=info.relpath,
                    node=node,
                    is_dataclass=_is_dataclass_decorated(node, info.imports),
                    fields=fields,
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(info, item, class_name=node.name)
                        class_info.methods[item.name] = fn.qualname
                self.classes[cls_qual] = class_info
                info.classes[cls_qual] = class_info

    def _add_function(
        self,
        info: ModuleInfo,
        node: ast.AST,
        class_name: Optional[str],
    ) -> FunctionInfo:
        name = getattr(node, "name", "<lambda>")
        qualname = (
            f"{info.module}.{class_name}.{name}" if class_name else f"{info.module}.{name}"
        )
        contract, contract_line = _contract_for_def(node, info.contracts)
        fn = FunctionInfo(
            qualname=qualname,
            module=info.module,
            relpath=info.relpath,
            node=node,
            class_name=class_name,
            params=_function_params(node),
            contract=contract,
            contract_line=contract_line,
        )
        self.functions[qualname] = fn
        info.functions[qualname] = fn
        return fn

    def _build_reexports(self) -> None:
        """Record ``pkg.name -> pkg.sub.name`` for every ``__init__``
        import.  Plain submodule imports are not re-exports (``pkg.sub``
        already resolves); only ``from``-imports that bind a *name* are."""
        for info in self.modules.values():
            if not info.relpath.endswith("__init__.py"):
                continue
            for local, target in info.imports.bindings.items():
                exported = f"{info.module}.{local}"
                if target != exported and target.startswith(self.package + "."):
                    self.reexports[exported] = target

    # -- resolution ----------------------------------------------------------

    def canonical(self, dotted: str) -> str:
        """Chase re-export chains to the defining dotted name.

        Also resolves *prefix* re-exports: ``repro.Searcher.search``
        canonicalizes the longest re-exported prefix, so attribute chains
        through re-exported classes land on the real definition.
        """
        return canonicalize(dotted, self.reexports)

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def resolve_function(self, dotted: str) -> Optional[FunctionInfo]:
        """Map a canonicalized dotted call target to a project function.

        Tries the name as ``module.func`` / ``module.Class.method``; for a
        bare class reference, resolves to its ``__init__``.
        """
        dotted = self.canonical(dotted)
        fn = self.functions.get(dotted)
        if fn is not None:
            return fn
        cls = self.classes.get(dotted)
        if cls is not None:
            init = cls.methods.get("__init__")
            if init is not None:
                return self.functions.get(init)
        return None

    def class_of(self, dotted: str) -> Optional[ClassInfo]:
        return self.classes.get(self.canonical(dotted))

    def sorted_functions(self) -> List[FunctionInfo]:
        """Deterministic iteration order for fixed-point passes."""
        return [self.functions[q] for q in sorted(self.functions)]
