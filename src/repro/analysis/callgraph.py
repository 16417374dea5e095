"""Project call graph + the local type tracking that makes it resolvable.

Python call targets are rarely a simple imported name: the interesting
edges in this repo go through instance attributes (``self.cost_model
.simulator()``), typed parameters (``model: CostModel``) and forward-ref
return annotations (``-> "PipelineSimulator"``).  :class:`LocalResolver`
tracks just enough types — project classes only, assignments in source
order, no unification — to resolve those chains; :class:`CallGraph` runs
it over every function and records the edges.

Everything here is deterministic: functions are visited in sorted
qualname order and edges keep their discovery order within a function.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Tuple

from .symbols import ClassInfo, FunctionInfo, ModuleInfo, SymbolTable

__all__ = ["CallSite", "CallGraph", "LocalResolver", "attribute_types"]


@dataclasses.dataclass
class CallSite:
    """One call expression, resolved as far as we can."""

    caller: str  #: qualname of the enclosing function (or module for top level)
    callee: str  #: canonical dotted target ("time.monotonic", "repro.core...")
    resolved: Optional[FunctionInfo]  #: project function, when the target is one
    node: ast.Call
    relpath: str


def _annotation_to_class(
    annotation: Optional[ast.AST], info: ModuleInfo, symbols: SymbolTable
) -> Optional[str]:
    """Project class qualname named by an annotation, else None.

    Handles ``Name``, ``Attribute`` chains, string forward refs and a
    single ``Optional[...]``/``"X" | None`` wrapper; anything fancier is
    treated as untyped (the resolver just loses that edge).
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        base_name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if base_name == "Optional":
            return _annotation_to_class(annotation.slice, info, symbols)
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _annotation_to_class(side, info, symbols)
        return None
    chain: List[str] = []
    node = annotation
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = info.imports.resolve(node.id)
    if base is None:
        # A module-local class, or one whose name only exists in this
        # module's namespace.
        local = f"{info.module}.{node.id}"
        base = local if symbols.class_of(local) else None
        if base is None:
            return None
    dotted = ".".join(reversed(chain + [base]))
    cls = symbols.class_of(dotted)
    return cls.qualname if cls else None


def return_class_of(fn: FunctionInfo, symbols: SymbolTable) -> Optional[str]:
    """Project class a function's return annotation names, if any."""
    info = symbols.modules.get(fn.module)
    if info is None:
        return None
    return _annotation_to_class(getattr(fn.node, "returns", None), info, symbols)


def attribute_types(symbols: SymbolTable) -> Dict[Tuple[str, str], str]:
    """Instance-attribute types: ``(class_qual, attr) -> class_qual``.

    Sources, in increasing priority: annotated class-body fields
    (dataclass fields like ``disk: DiskModel``) and ``self.attr = <expr
    of known class>`` assignments in any method.  Two passes, so attrs
    assigned from other typed attrs resolve too.
    """
    attr_types: Dict[Tuple[str, str], str] = {}
    for _ in range(2):
        for cls_qual in sorted(symbols.classes):
            cls = symbols.classes[cls_qual]
            info = symbols.modules[cls.module]
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    typed = _annotation_to_class(stmt.annotation, info, symbols)
                    if typed:
                        attr_types[(cls_qual, stmt.target.id)] = typed
            for method_qual in sorted(cls.methods.values()):
                fn = symbols.functions[method_qual]
                resolver = LocalResolver(symbols, info, fn, attr_types)
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    typed = resolver.type_of(node.value)
                    if not typed:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attr_types[(cls_qual, target.attr)] = typed
    return attr_types


class LocalResolver:
    """Resolves names, attribute chains and call targets inside one
    function body (or module top level when ``fn`` is None)."""

    def __init__(
        self,
        symbols: SymbolTable,
        info: ModuleInfo,
        fn: Optional[FunctionInfo],
        attr_types: Optional[Dict[Tuple[str, str], str]] = None,
    ):
        self.symbols = symbols
        self.info = info
        self.fn = fn
        self.attr_types = attr_types if attr_types is not None else {}
        #: local variable -> project class qualname
        self.env: Dict[str, str] = {}
        if fn is not None:
            if fn.class_name is not None:
                self.env["self"] = f"{fn.module}.{fn.class_name}"
            args = getattr(fn.node, "args", None)
            if args is not None:
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    typed = _annotation_to_class(arg.annotation, info, symbols)
                    if typed:
                        self.env[arg.arg] = typed

    # -- types ---------------------------------------------------------------

    def observe_assign(self, node: ast.Assign) -> None:
        """Record ``var = <expr of known class>`` (called in source order)."""
        typed = self.type_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if typed:
                    self.env[target.id] = typed
                else:
                    self.env.pop(target.id, None)

    def type_of(self, expr: ast.AST) -> Optional[str]:
        """Project class qualname of an expression's value, else None."""
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None:
                attr_cls = self.attr_types.get((base, expr.attr))
                if attr_cls:
                    return attr_cls
                # Property with a class-valued return annotation.
                prop = self.symbols.functions.get(f"{base}.{expr.attr}")
                if prop is not None:
                    return return_class_of(prop, self.symbols)
            return None
        if isinstance(expr, ast.Call):
            dotted, resolved = self.callee_of(expr)
            if dotted is not None:
                cls = self.symbols.class_of(dotted)
                if cls is not None:
                    return cls.qualname
            if resolved is not None:
                return return_class_of(resolved, self.symbols)
            return None
        return None

    # -- call / name resolution ----------------------------------------------

    def dotted_of(self, expr: ast.AST) -> Optional[str]:
        """Canonical dotted path of a name/attribute chain, through
        imports, typed locals and re-exports.  ``sim.elapsed`` with a
        typed ``sim`` resolves to ``repro.simio.pipeline
        .PipelineSimulator.elapsed``."""
        if isinstance(expr, ast.Name):
            imported = self.info.imports.resolve(expr.id)
            if imported is not None:
                return self.symbols.canonical(imported)
            local = f"{self.info.module}.{expr.id}"
            if (
                self.symbols.function(local) is not None
                or self.symbols.class_of(local) is not None
            ):
                return self.symbols.canonical(local)
            return None
        if isinstance(expr, ast.Attribute):
            typed = self.type_of(expr.value)
            if typed is not None:
                return f"{typed}.{expr.attr}"
            base = self.dotted_of(expr.value)
            if base is not None:
                return self.symbols.canonical(f"{base}.{expr.attr}")
            return None
        return None

    def callee_of(self, call: ast.Call) -> Tuple[Optional[str], Optional[FunctionInfo]]:
        """(canonical dotted target, project FunctionInfo) of one call."""
        dotted = self.dotted_of(call.func)
        if dotted is None:
            return None, None
        return dotted, self.symbols.resolve_function(dotted)


def _walk_in_order(body: List[ast.stmt]) -> List[ast.AST]:
    """All nodes of ``body`` in source order (ast.walk is BFS; we want
    assignments observed before the calls that use them)."""
    out: List[ast.AST] = []
    for stmt in body:
        for node in ast.walk(stmt):
            out.append(node)
    out.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
    return out


class CallGraph:
    """All resolved call sites, indexed by caller."""

    def __init__(self, sites: List[CallSite]):
        self.sites = sites
        self.by_caller: Dict[str, List[CallSite]] = {}
        for site in sites:
            self.by_caller.setdefault(site.caller, []).append(site)

    @classmethod
    def build(
        cls,
        symbols: SymbolTable,
        attr_types: Optional[Dict[Tuple[str, str], str]] = None,
    ) -> "CallGraph":
        attr_types = attr_types if attr_types is not None else attribute_types(symbols)
        sites: List[CallSite] = []
        for fn in symbols.sorted_functions():
            info = symbols.modules[fn.module]
            resolver = LocalResolver(symbols, info, fn, attr_types)
            body = getattr(fn.node, "body", [])
            nested = _nested_def_spans(fn.node)
            for node in _walk_in_order(body):
                if isinstance(node, ast.Assign):
                    resolver.observe_assign(node)
                elif isinstance(node, ast.Call):
                    dotted, resolved = resolver.callee_of(node)
                    if dotted is not None:
                        sites.append(
                            CallSite(fn.qualname, dotted, resolved, node, fn.relpath)
                        )
            del nested  # nested defs stay part of the enclosing function
        # Module-level calls (constants, registries): caller = module name.
        for module in sorted(symbols.modules):
            info = symbols.modules[module]
            resolver = LocalResolver(symbols, info, None, attr_types)
            for node in _top_level_nodes(info.tree):
                if isinstance(node, ast.Assign):
                    resolver.observe_assign(node)
                elif isinstance(node, ast.Call):
                    dotted, resolved = resolver.callee_of(node)
                    if dotted is not None:
                        sites.append(CallSite(module, dotted, resolved, node, info.relpath))
        return cls(sites)

    def calls_from(self, qualname: str) -> List[CallSite]:
        return self.by_caller.get(qualname, [])


def _nested_def_spans(fn_node: ast.AST) -> List[ast.AST]:
    return [
        node
        for node in ast.walk(fn_node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn_node
    ]


def _top_level_nodes(tree: ast.Module) -> List[ast.AST]:
    """Nodes outside any def/class body, in source order."""
    out: List[ast.AST] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            out.append(node)
    out.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
    return out
