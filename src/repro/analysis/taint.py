"""Inter-procedural taint analyses: time units (SIM1xx) and seed
provenance (RNG1xx).

Both analyses run over the project :class:`~repro.analysis.symbols
.SymbolTable` plus the :mod:`~repro.analysis.callgraph` type tracking,
and both follow the same scheme: a deterministic fixed point propagates
facts across function boundaries (units of returns / parameters /
attributes; which parameters feed entropy into a generator), then one
final pass over every function emits diagnostics.

**Time units.**  Every value is ``host`` seconds (wall clock), ``sim``
seconds (advanced by the cost models) or unitless.  Units enter at the
roots in :data:`~repro.analysis.config.TIME_UNIT_SOURCES` and flow
through assignments, returns, call arguments, ``self.attr`` stores and
dataclass constructor fields.  SIM101 fires when host and sim meet in an
arithmetic/comparison/``min``/``max`` expression; SIM102 when a value of
one unit reaches a sink declared for the other (a simulated timestamp
into ``time.sleep``).

**Seed provenance.**  Entropy must flow from root seeds, forked with
``SeedSequence.spawn`` — never from another generator's output stream,
and never the same seed into two consumers (aliased streams silently
correlate, which breaks the byte-identical ``servesim``/``faultsim``
rerun guarantee).  RNG101 flags generators built from non-root entropy
(a draw from another generator, a wall-clock read, or an unseeded
``SeedSequence()``); RNG102 flags one seed value fanning out, bare, to
two or more entropy consumers in the same function.

The analyses are heuristic where Python is dynamic (untyped receivers,
tuple returns) and deliberately fail *silent*, not loud: a value whose
unit cannot be proven is unitless and produces no finding.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .callgraph import LocalResolver, return_class_of
from .config import LintConfig
from .diagnostics import Diagnostic
from .symbols import FunctionInfo, SymbolTable

__all__ = ["TimeUnitAnalysis", "SeedProvenanceAnalysis"]

#: Unit lattice: ``None`` (unitless/unknown) < "host" | "sim" < CONFLICT.
CONFLICT = "conflict"
_REAL_UNITS = ("host", "sim")

#: Builtins that return one of their arguments unchanged (unit-wise).
_PASSTHROUGH_CALLS = frozenset({"float", "abs", "min", "max", "sum", "round"})


def _join(existing: Optional[str], new: Optional[str]) -> Optional[str]:
    if new is None or existing == new:
        return existing
    if existing is None:
        return new
    return CONFLICT


def _known(unit: Optional[str]) -> Optional[str]:
    return unit if unit in _REAL_UNITS else None


def _in_order(nodes: Iterable[ast.AST]) -> List[ast.AST]:
    out = list(nodes)
    out.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
    return out


def _body_nodes(fn_node: ast.AST) -> List[ast.AST]:
    nodes: List[ast.AST] = []
    for stmt in getattr(fn_node, "body", []):
        nodes.extend(ast.walk(stmt))
    return _in_order(nodes)


def _self_params(fn: FunctionInfo) -> Tuple[str, ...]:
    """Parameter names minus a leading self/cls for methods."""
    params = fn.params
    if fn.class_name is not None and params and params[0] in ("self", "cls"):
        return params[1:]
    return params


def _map_args_to_params(
    call: ast.Call, fn: FunctionInfo
) -> List[Tuple[str, ast.expr]]:
    """Best-effort (param_name, argument_expr) pairing for one call."""
    params = _self_params(fn)
    pairs: List[Tuple[str, ast.expr]] = []
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            pairs.append((params[i], arg))
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in fn.params:
            pairs.append((kw.arg, kw.value))
    return pairs


# ---------------------------------------------------------------------------
# Time units (SIM101 / SIM102)
# ---------------------------------------------------------------------------


class TimeUnitAnalysis:
    """Whole-program unit inference; :meth:`run` returns diagnostics."""

    MAX_PASSES = 8

    def __init__(
        self,
        symbols: SymbolTable,
        attr_types: Dict[Tuple[str, str], str],
        config: LintConfig,
    ):
        self.symbols = symbols
        self.attr_types = attr_types
        self.config = config
        #: function qualname -> return unit
        self.function_units: Dict[str, Optional[str]] = {}
        #: (function qualname, param name) -> unit observed at call sites
        self.param_units: Dict[Tuple[str, str], Optional[str]] = {}
        #: (class qualname, attr) -> unit of stored values
        self.attr_units: Dict[Tuple[str, str], Optional[str]] = {}
        self._changed = False
        # Method/attr-name fallback for untyped receivers: name -> unit,
        # only when unambiguous across every known source.
        names: Dict[str, Optional[str]] = {}
        for dotted, unit in sorted(config.time_unit_sources.items()):
            names[dotted.rsplit(".", 1)[1]] = _join(
                names.get(dotted.rsplit(".", 1)[1]), unit
            )
        self._source_name_units = {k: v for k, v in names.items() if _known(v)}

    # -- fixed point ---------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        for _ in range(self.MAX_PASSES):
            self._changed = False
            for fn in self.symbols.sorted_functions():
                _TimeUnitPass(self, fn, collect=None).walk()
            if not self._changed:
                break
        diagnostics: List[Diagnostic] = []
        seen: Set[Tuple[str, int, int, str, str]] = set()
        for fn in self.symbols.sorted_functions():
            found: List[Diagnostic] = []
            _TimeUnitPass(self, fn, collect=found).walk()
            for diag in found:
                key = (diag.path, diag.line, diag.col, diag.rule, diag.message)
                if key not in seen:
                    seen.add(key)
                    diagnostics.append(diag)
        return diagnostics

    # -- recording (monotone joins; flags the fixed point dirty) -------------

    def record_return(self, qualname: str, unit: Optional[str]) -> None:
        joined = _join(self.function_units.get(qualname), unit)
        if joined != self.function_units.get(qualname):
            self.function_units[qualname] = joined
            self._changed = True

    def record_param(self, qualname: str, param: str, unit: Optional[str]) -> None:
        key = (qualname, param)
        joined = _join(self.param_units.get(key), unit)
        if joined != self.param_units.get(key):
            self.param_units[key] = joined
            self._changed = True

    def record_attr(self, cls: str, attr: str, unit: Optional[str]) -> None:
        key = (cls, attr)
        joined = _join(self.attr_units.get(key), unit)
        if joined != self.attr_units.get(key):
            self.attr_units[key] = joined
            self._changed = True

    def attr_name_unit(self, attr: str) -> Optional[str]:
        """Unit of an attribute on an *untyped* receiver: unambiguous
        across all recorded classes and source names, else unknown."""
        unit = self._source_name_units.get(attr)
        for (_, name), recorded in sorted(self.attr_units.items()):
            if name == attr:
                unit = _join(unit, recorded)
        return _known(unit)


class _TimeUnitPass:
    """One intra-function pass: infer local units, record cross-function
    facts, and (on the final pass) emit SIM101/SIM102 diagnostics."""

    def __init__(
        self,
        analysis: TimeUnitAnalysis,
        fn: FunctionInfo,
        collect: Optional[List[Diagnostic]],
    ):
        self.a = analysis
        self.fn = fn
        self.collect = collect
        info = analysis.symbols.modules[fn.module]
        self.info = info
        self.resolver = LocalResolver(analysis.symbols, info, fn, analysis.attr_types)
        self.env: Dict[str, Optional[str]] = {}
        for param in fn.params:
            unit = _known(analysis.param_units.get((fn.qualname, param)))
            if unit:
                self.env[param] = unit
        self._memo: Dict[int, Optional[str]] = {}

    # -- driver --------------------------------------------------------------

    def walk(self) -> None:
        for node in _body_nodes(self.fn.node):
            if isinstance(node, ast.Assign):
                self.resolver.observe_assign(node)
                self._handle_assign(node)
            elif isinstance(node, ast.AugAssign):
                self._handle_aug_assign(node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                unit = self.unit_of(node.value)
                if isinstance(node.target, ast.Name):
                    self.env[node.target.id] = unit
                self._store_attr(node.target, unit)
            elif isinstance(node, ast.Return) and node.value is not None:
                self.a.record_return(self.fn.qualname, self.unit_of(node.value))
            elif isinstance(node, (ast.BinOp, ast.Compare, ast.Call)):
                self.unit_of(node)

    def _handle_assign(self, node: ast.Assign) -> None:
        unit = self.unit_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = unit
            elif isinstance(target, ast.Tuple):
                # Tuple-returning sources (chunk_read_time_s) put the
                # timed value first: ``io, hit = chunk_read_time_s(...)``.
                for i, element in enumerate(target.elts):
                    if isinstance(element, ast.Name):
                        self.env[element.id] = unit if i == 0 else None
            else:
                self._store_attr(target, unit)

    def _handle_aug_assign(self, node: ast.AugAssign) -> None:
        value_unit = self.unit_of(node.value)
        if isinstance(node.target, ast.Name):
            current = self.env.get(node.target.id)
            self._check_mix(node, current, value_unit, "augmented assignment")
            self.env[node.target.id] = current if _known(current) else value_unit
        else:
            target_unit = self.unit_of(node.target)
            self._check_mix(node, target_unit, value_unit, "augmented assignment")
            self._store_attr(node.target, value_unit)

    def _store_attr(self, target: ast.AST, unit: Optional[str]) -> None:
        if not (isinstance(target, ast.Attribute) and _known(unit)):
            return
        owner = self.resolver.type_of(target.value)
        if owner is not None:
            self.a.record_attr(owner, target.attr, unit)

    # -- expression units ----------------------------------------------------

    def unit_of(self, expr: ast.AST) -> Optional[str]:
        key = id(expr)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # cycle guard
        unit = self._unit_of(expr)
        self._memo[key] = unit
        return unit

    def _unit_of(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return _known(self.env.get(expr.id))
        if isinstance(expr, ast.Attribute):
            return self._attribute_unit(expr)
        if isinstance(expr, ast.Call):
            return self._call_unit(expr)
        if isinstance(expr, ast.BinOp):
            left, right = self.unit_of(expr.left), self.unit_of(expr.right)
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                self._check_mix(expr, left, right, "arithmetic")
            return left or right
        if isinstance(expr, ast.Compare):
            units = [self.unit_of(expr.left)] + [self.unit_of(c) for c in expr.comparators]
            for i in range(len(units) - 1):
                self._check_mix(expr, units[i], units[i + 1], "comparison")
            return None
        if isinstance(expr, ast.IfExp):
            body, orelse = self.unit_of(expr.body), self.unit_of(expr.orelse)
            return body if body == orelse else None
        if isinstance(expr, ast.UnaryOp):
            return self.unit_of(expr.operand)
        if isinstance(expr, ast.Subscript):
            # A tuple/list tainted as a whole taints its elements.
            return self.unit_of(expr.value)
        if isinstance(expr, ast.Starred):
            return self.unit_of(expr.value)
        return None

    def _attribute_unit(self, expr: ast.Attribute) -> Optional[str]:
        dotted = self.resolver.dotted_of(expr)
        if dotted is not None:
            source = self.a.config.time_unit_sources.get(dotted)
            if source:
                return source
        owner = self.resolver.type_of(expr.value)
        if owner is not None:
            recorded = _known(self.a.attr_units.get((owner, expr.attr)))
            if recorded:
                return recorded
            # A typed receiver whose attribute we know nothing about —
            # do not fall through to the name heuristic.
            return None
        return self.a.attr_name_unit(expr.attr)

    def _call_unit(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _PASSTHROUGH_CALLS:
            if self.info.imports.resolve(func.id) is None:
                units = [self.unit_of(a) for a in call.args]
                for i in range(len(units) - 1):
                    self._check_mix(call, units[i], units[i + 1], f"{func.id}()")
                return next((u for u in units if _known(u)), None)
        dotted, resolved = self.resolver.callee_of(call)
        if dotted is not None:
            self._check_sink(call, dotted)
            source = self.a.config.time_unit_sources.get(dotted)
            if source:
                return source
        if resolved is not None:
            # Push argument units into the callee's parameters, and pull
            # the callee's inferred return unit.
            for param, arg in _map_args_to_params(call, resolved):
                self.a.record_param(resolved.qualname, param, self.unit_of(arg))
            self._check_contagion(call, resolved)
            return _known(self.a.function_units.get(resolved.qualname))
        if dotted is None and isinstance(func, ast.Attribute):
            # Untyped receiver: fall back to the unambiguous-name map
            # (``.process_chunk(...)`` is simulated wherever it appears).
            return self.a._source_name_units.get(func.attr)
        return None

    def _check_contagion(self, call: ast.Call, resolved: FunctionInfo) -> None:
        """SIM102 side of parameters: a param whose call sites already
        established one unit receiving the other unit here."""
        for param, arg in _map_args_to_params(call, resolved):
            expected = self.a.param_units.get((resolved.qualname, param))
            got = _known(self.unit_of(arg))
            if (
                expected in _REAL_UNITS
                and got is not None
                and got != expected
                and self.collect is not None
            ):
                self._emit(
                    call,
                    "SIM101",
                    f"{got}-seconds value passed for parameter '{param}' of "
                    f"{resolved.qualname}(), which receives {expected}-seconds "
                    f"elsewhere — one of the call sites mixes clock domains",
                )

    def _check_sink(self, call: ast.Call, dotted: str) -> None:
        expected = self.a.config.time_unit_sinks.get(dotted)
        if expected is None or not call.args:
            return
        got = _known(self.unit_of(call.args[0]))
        if got is not None and got != expected and self.collect is not None:
            self._emit(
                call,
                "SIM102",
                f"{got}-seconds value reaches {dotted}(), which expects "
                f"{expected} seconds; simulated and wall-clock time must "
                f"never cross layer boundaries",
            )

    def _check_mix(
        self,
        node: ast.AST,
        left: Optional[str],
        right: Optional[str],
        where: str,
    ) -> None:
        if (
            _known(left)
            and _known(right)
            and left != right
            and self.collect is not None
        ):
            self._emit(
                node,
                "SIM101",
                f"{where} mixes {left}-seconds and {right}-seconds operands; "
                f"simulated and wall-clock time are different units",
            )

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        assert self.collect is not None
        self.collect.append(
            Diagnostic(
                path=self.fn.relpath,
                line=getattr(node, "lineno", self.fn.lineno),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )


# ---------------------------------------------------------------------------
# Seed provenance (RNG101 / RNG102)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _SeedUse:
    """One bare-name flow into an entropy consumer."""

    name: str
    node: ast.Call
    consumer: str  #: human-readable description of the consuming slot


class SeedProvenanceAnalysis:
    """Track SeedSequence/Generator provenance through the call graph."""

    MAX_PASSES = 8

    def __init__(
        self,
        symbols: SymbolTable,
        attr_types: Dict[Tuple[str, str], str],
        config: LintConfig,
    ):
        self.symbols = symbols
        self.attr_types = attr_types
        self.config = config
        #: parameters that (transitively) feed entropy into a generator
        self.seed_params: Set[Tuple[str, str]] = set()

    def run(self) -> List[Diagnostic]:
        for _ in range(self.MAX_PASSES):
            before = len(self.seed_params)
            for fn in self.symbols.sorted_functions():
                self._infer_seed_params(fn)
            if len(self.seed_params) == before:
                break
        diagnostics: List[Diagnostic] = []
        for fn in self.symbols.sorted_functions():
            diagnostics.extend(self._check_function(fn))
        return diagnostics

    # -- seed-slot discovery -------------------------------------------------

    def _seed_slot_exprs(
        self, call: ast.Call, resolver: LocalResolver
    ) -> List[Tuple[ast.expr, str]]:
        """Expressions of ``call`` that land in an entropy slot, with a
        description of the consumer."""
        dotted, resolved = resolver.callee_of(call)
        out: List[Tuple[ast.expr, str]] = []
        if dotted is not None and dotted in self.config.seed_slots:
            index, keyword = self.config.seed_slots[dotted]
            if len(call.args) > index and not isinstance(call.args[index], ast.Starred):
                out.append((call.args[index], f"{dotted}()"))
            for kw in call.keywords:
                if kw.arg == keyword:
                    out.append((kw.value, f"{dotted}({keyword}=...)"))
        if resolved is not None:
            for param, arg in _map_args_to_params(call, resolved):
                if (resolved.qualname, param) in self.seed_params:
                    out.append((arg, f"{resolved.qualname}({param}=...)"))
        return out

    def _infer_seed_params(self, fn: FunctionInfo) -> None:
        info = self.symbols.modules[fn.module]
        resolver = LocalResolver(self.symbols, info, fn, self.attr_types)
        params = set(fn.params)
        for node in _body_nodes(fn.node):
            if isinstance(node, ast.Assign):
                resolver.observe_assign(node)
            elif isinstance(node, ast.Call):
                for expr, _ in self._seed_slot_exprs(node, resolver):
                    if isinstance(expr, ast.Name) and expr.id in params:
                        self.seed_params.add((fn.qualname, expr.id))

    # -- checks --------------------------------------------------------------

    def _check_function(self, fn: FunctionInfo) -> List[Diagnostic]:
        info = self.symbols.modules[fn.module]
        resolver = LocalResolver(self.symbols, info, fn, self.attr_types)
        diagnostics: List[Diagnostic] = []
        generator_vars: Set[str] = set()
        args = getattr(fn.node, "args", None)
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if self._is_generator_annotation(arg.annotation, resolver):
                    generator_vars.add(arg.arg)
        uses: Dict[str, List[_SeedUse]] = {}
        seen_calls: Set[int] = set()
        for node in _body_nodes(fn.node):
            if isinstance(node, ast.Assign):
                resolver.observe_assign(node)
                self._track_generators(node, resolver, generator_vars)
            elif isinstance(node, ast.Call) and id(node) not in seen_calls:
                seen_calls.add(id(node))
                diagnostics.extend(
                    self._check_call(fn, node, resolver, generator_vars, uses)
                )
        # RNG102: one seed name, two or more entropy consumers.
        for name in sorted(uses):
            sites = uses[name]
            if len(sites) < 2:
                continue
            first = sites[0]
            for use in sites[1:]:
                diagnostics.append(
                    Diagnostic(
                        path=fn.relpath,
                        line=use.node.lineno,
                        col=use.node.col_offset,
                        rule="RNG102",
                        message=(
                            f"seed '{name}' fans out to {use.consumer} after "
                            f"already seeding {first.consumer} (line "
                            f"{first.node.lineno}); aliased seeds produce "
                            f"correlated streams — spawn() child seeds instead"
                        ),
                    )
                )
        return diagnostics

    def _check_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        resolver: LocalResolver,
        generator_vars: Set[str],
        uses: Dict[str, List[_SeedUse]],
    ) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        dotted, _ = resolver.callee_of(call)
        # RNG101: an unseeded SeedSequence is a nondeterministic root.
        if dotted == "numpy.random.SeedSequence" and not call.args and not call.keywords:
            diagnostics.append(
                Diagnostic(
                    path=fn.relpath,
                    line=call.lineno,
                    col=call.col_offset,
                    rule="RNG101",
                    message=(
                        "SeedSequence() without entropy seeds from the OS; "
                        "root seeds must be explicit so reruns are identical"
                    ),
                )
            )
        for expr, consumer in self._seed_slot_exprs(call, resolver):
            bad = self._non_root_entropy(expr, resolver, generator_vars)
            if bad is not None:
                diagnostics.append(
                    Diagnostic(
                        path=fn.relpath,
                        line=call.lineno,
                        col=call.col_offset,
                        rule="RNG101",
                        message=(
                            f"entropy for {consumer} derives from {bad}; "
                            f"seeds must come from the root SeedSequence "
                            f"(use spawn() to fork child seeds)"
                        ),
                    )
                )
            if isinstance(expr, ast.Name):
                uses.setdefault(expr.id, []).append(_SeedUse(expr.id, call, consumer))
        return diagnostics

    def _track_generators(
        self, node: ast.Assign, resolver: LocalResolver, generator_vars: Set[str]
    ) -> None:
        is_generator = False
        if isinstance(node.value, ast.Call):
            dotted, _ = resolver.callee_of(node.value)
            if dotted in ("numpy.random.default_rng", "numpy.random.Generator"):
                is_generator = True
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_generator:
                    generator_vars.add(target.id)
                else:
                    generator_vars.discard(target.id)

    def _is_generator_annotation(
        self, annotation: Optional[ast.AST], resolver: LocalResolver
    ) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return False
        dotted = resolver.dotted_of(annotation) if isinstance(
            annotation, (ast.Name, ast.Attribute)
        ) else None
        return dotted in ("numpy.random.Generator",)

    def _non_root_entropy(
        self,
        expr: ast.AST,
        resolver: LocalResolver,
        generator_vars: Set[str],
    ) -> Optional[str]:
        """Name of the non-root entropy source inside ``expr``, if any:
        a method call on a live Generator, or a wall-clock read."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in generator_vars
                and func.attr != "spawn"
            ):
                return f"a draw from generator '{func.value.id}' ({func.attr}())"
            dotted, _ = resolver.callee_of(node)
            if dotted is not None and dotted.startswith("time."):
                return f"the wall clock ({dotted}())"
        return None
