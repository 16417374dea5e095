"""Exactness contracts (EXA0xx): call-graph enforcement of ``# repro:``
annotations.

PR 5 proved the pruned/routed/cached scan paths bit-identical to the
exact engine; that equivalence is a *social* contract between functions
— "this helper never changes results" — which nothing enforced.  Now it
is declared in source::

    # repro: exact
    def exact_remaining_lb(self) -> float: ...

    # repro: approximate
    def check(self, progress: SearchProgress) -> ...:  # epsilon stop rule

and the analyzer walks the call graph:

* **EXA001** — a function marked ``exact`` calls (directly or through
  any chain of unmarked helpers) a function marked ``approximate``.
  A call site annotated ``# repro: allow-approximate`` is an explicit,
  reviewed waiver and is skipped — and also stops propagation through
  unmarked helpers, so one vetted crossing does not taint every caller.
* **EXA002** — a malformed contract comment: an unknown tag, or a def
  carrying both ``exact`` and ``approximate``.  Misspelled contracts
  silently enforce nothing, which is worse than none.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .callgraph import CallGraph, CallSite
from .diagnostics import Diagnostic
from .symbols import KNOWN_TAGS, SymbolTable

__all__ = ["check_contract_tags", "check_exactness"]


def check_contract_tags(symbols: SymbolTable) -> List[Diagnostic]:
    """EXA002: unknown tags and exact+approximate double-marking."""
    diagnostics: List[Diagnostic] = []
    for relpath in sorted(symbols.by_relpath):
        info = symbols.by_relpath[relpath]
        for line, tags in info.contracts.lines():
            for tag in tags:
                if tag not in KNOWN_TAGS:
                    diagnostics.append(
                        Diagnostic(
                            path=relpath,
                            line=line,
                            col=0,
                            rule="EXA002",
                            message=(
                                f"unknown contract tag '# repro: {tag}'; valid "
                                f"tags: exact, approximate, allow-approximate"
                            ),
                        )
                    )
            if "exact" in tags and "approximate" in tags:
                diagnostics.append(
                    Diagnostic(
                        path=relpath,
                        line=line,
                        col=0,
                        rule="EXA002",
                        message="a function cannot be both exact and approximate",
                    )
                )
    return diagnostics


def _waived(site: CallSite, symbols: SymbolTable) -> bool:
    info = symbols.by_relpath.get(site.relpath)
    if info is None:
        return False
    return "allow-approximate" in info.contracts.tags_on(site.node.lineno)


def _reaches_approximate(
    symbols: SymbolTable, graph: CallGraph
) -> Dict[str, Tuple[str, ...]]:
    """For every function, the witness path of qualnames by which it
    reaches an ``approximate``-marked function, if it does.

    ``exact``-marked functions do not propagate (they are flagged at
    their own call sites instead); waived call sites cut the chain.
    """
    reaches: Dict[str, Tuple[str, ...]] = {}
    for fn in symbols.sorted_functions():
        if fn.contract == "approximate":
            reaches[fn.qualname] = (fn.qualname,)
    changed = True
    while changed:
        changed = False
        for fn in symbols.sorted_functions():
            if fn.contract is not None or fn.qualname in reaches:
                continue
            for site in graph.calls_from(fn.qualname):
                if site.resolved is None:
                    continue
                path = reaches.get(site.resolved.qualname)
                if path is None or _waived(site, symbols):
                    continue
                reaches[fn.qualname] = (fn.qualname,) + path
                changed = True
                break
    return reaches


def check_exactness(symbols: SymbolTable, graph: CallGraph) -> List[Diagnostic]:
    """EXA001: exact code reaching approximate APIs without a waiver."""
    reaches = _reaches_approximate(symbols, graph)
    diagnostics: List[Diagnostic] = []
    for fn in symbols.sorted_functions():
        if fn.contract != "exact":
            continue
        for site in graph.calls_from(fn.qualname):
            if site.resolved is None or _waived(site, symbols):
                continue
            callee = site.resolved.qualname
            path = reaches.get(callee)
            if path is None:
                continue
            if len(path) == 1:
                detail = f"calls approximate {callee}()"
            else:
                detail = (
                    f"reaches approximate {path[-1]}() via "
                    + " -> ".join(p.rsplit(".", 2)[-1] for p in path[:-1])
                )
            diagnostics.append(
                Diagnostic(
                    path=site.relpath,
                    line=site.node.lineno,
                    col=site.node.col_offset,
                    rule="EXA001",
                    message=(
                        f"exact-marked {fn.qualname}() {detail}; add "
                        f"'# repro: allow-approximate' if this crossing is "
                        f"intended, or fix the exactness claim"
                    ),
                )
            )
    return diagnostics
