"""RNG001-003, RNG101-102 — determinism discipline.

Bit-reproducible runs (the guarantee the batched engine is tested
against) require every random draw to flow from an explicitly seeded
generator, and every seed from the run's root seed.  Five failure modes,
five rules:

* **RNG001** — legacy ``numpy.random`` global-state calls
  (``np.random.rand``, ``np.random.seed``, ...).  Global state is shared
  across the process, so any library call can perturb the stream.
* **RNG002** — stdlib ``random`` module-level calls (``random.random()``,
  ``random.shuffle(...)``).  Same global-state problem; an explicitly
  seeded ``random.Random(seed)`` instance is fine.
* **RNG003** — ``default_rng()`` with no seed argument: seeds from OS
  entropy, so two runs diverge by construction.
* **RNG101** — a seed that is not a root seed: a seed argument that
  calls the wall clock or ``os.urandom``, or a ``SeedSequence()`` with
  no entropy.
* **RNG102** — one name passed as the seed of two entropy constructors
  in one function: two identical streams, not two independent ones.

All five apply to the whole package — determinism is not a per-layer
property.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..config import MODERN_NP_RANDOM, SEED_SLOTS, SEEDED_STDLIB_RANDOM
from ..diagnostics import Diagnostic
from .base import FileContext, Rule, resolve_call_target
from .wall_clock import WALL_CLOCK_CALLS

__all__ = [
    "LegacyNumpyRandomRule",
    "SeedFanoutRule",
    "SeedNonRootRule",
    "StdlibRandomRule",
    "UnseededRngRule",
]

#: Calls whose value differs from run to run: never a seed.
NON_ROOT_ENTROPY = WALL_CLOCK_CALLS | frozenset({"os.urandom"})

Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def _seed_arguments(node: ast.Call, target: Optional[str]) -> List[ast.expr]:
    """The argument expressions of ``node`` that land in a seed slot
    (empty unless ``target`` is an entropy constructor)."""
    if target is None or target not in SEED_SLOTS:
        return []
    index, keyword = SEED_SLOTS[target]
    seeds = [kw.value for kw in node.keywords if kw.arg == keyword]
    if len(node.args) > index and not isinstance(node.args[index], ast.Starred):
        seeds.insert(0, node.args[index])
    return seeds


class LegacyNumpyRandomRule(Rule):
    id = "RNG001"
    summary = "legacy numpy.random global-state call; use default_rng(seed)"
    rationale = (
        "np.random.rand/seed/shuffle share one process-global stream: any\n"
        "library call anywhere can perturb it, so runs stop being\n"
        "bit-identical the moment an import order changes.  Every draw\n"
        "must flow from an explicitly seeded np.random.default_rng(seed)\n"
        "instance owned by the caller."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node, target in ctx.calls:
            if target is None or not target.startswith("numpy.random."):
                continue
            attr = target[len("numpy.random.") :]
            # Modern constructs (default_rng, Generator, ...) carry their
            # own state; only the flat global-state API is forbidden.
            if "." in attr or attr in MODERN_NP_RANDOM:
                continue
            yield ctx.diagnostic(
                node,
                self.id,
                f"legacy global-state call {target}(); draw from an "
                f"explicitly seeded np.random.default_rng(seed) instead",
            )


class StdlibRandomRule(Rule):
    id = "RNG002"
    summary = "stdlib random module-level call; use a seeded random.Random"
    rationale = (
        "random.random()/random.shuffle() draw from the stdlib's shared\n"
        "global generator — the same cross-talk problem as legacy numpy\n"
        "global state.  An explicitly seeded random.Random(seed) instance\n"
        "is fine; the module-level API is not."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node, target in ctx.calls:
            if target is None or not target.startswith("random."):
                continue
            attr = target[len("random.") :]
            if "." in attr or attr in SEEDED_STDLIB_RANDOM:
                continue
            yield ctx.diagnostic(
                node,
                self.id,
                f"module-level call {target}() uses the shared global RNG; "
                f"use an explicitly seeded random.Random(seed) instance",
            )


class UnseededRngRule(Rule):
    id = "RNG003"
    summary = "default_rng() without a seed argument is nondeterministic"
    rationale = (
        "default_rng() with no seed (or seed=None) initializes from OS\n"
        "entropy: two runs diverge by construction, and the divergence\n"
        "surfaces far from the call site as flaky quality numbers.  Pass\n"
        "an explicit seed derived from the run's root."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node, target in ctx.calls:
            if target != "numpy.random.default_rng":
                continue
            seed_given = bool(node.args) or any(
                kw.arg == "seed" or kw.arg is None for kw in node.keywords
            )
            # A literal None seed is as nondeterministic as no seed.
            if seed_given and not any(
                isinstance(seed, ast.Constant) and seed.value is None
                for seed in node.args[:1]
                + [kw.value for kw in node.keywords if kw.arg == "seed"]
            ):
                continue
            yield ctx.diagnostic(
                node,
                self.id,
                "default_rng() without a seed draws from OS entropy; pass "
                "an explicit seed so runs are reproducible",
            )


class SeedNonRootRule(Rule):
    id = "RNG101"
    summary = "generator seeded from the wall clock or OS entropy"
    rationale = (
        "Every random stream must be derivable from the run's root seed:\n"
        "that is what makes servesim/faultsim reruns byte-identical.  A\n"
        "seed computed from time.time() or os.urandom(), or a\n"
        "SeedSequence() built without entropy, differs on every run by\n"
        "construction — and outside the simulated layers CLK001 does not\n"
        "look.  Derive child seeds with SeedSequence(seed).spawn() or\n"
        "keyed entropy tuples instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node, target in ctx.calls:
            if target == "numpy.random.SeedSequence" and not (
                node.args or node.keywords
            ):
                yield ctx.diagnostic(
                    node,
                    self.id,
                    "SeedSequence() without entropy seeds from the OS; "
                    "root seeds must be explicit so reruns are identical",
                )
            for seed in _seed_arguments(node, target):
                for inner in ast.walk(seed):
                    source = (
                        resolve_call_target(inner.func, ctx.imports)
                        if isinstance(inner, ast.Call)
                        else None
                    )
                    if source in NON_ROOT_ENTROPY:
                        yield ctx.diagnostic(
                            node,
                            self.id,
                            f"seed of {target}() derives from {source}(), "
                            f"which differs run to run; seeds must come from "
                            f"the run's root seed (spawn() child seeds)",
                        )
                        break


class SeedFanoutRule(Rule):
    id = "RNG102"
    summary = "one seed name seeds two entropy constructors in one function"
    rationale = (
        "Passing the same seed value to two constructors creates two\n"
        "*identical* streams, not two independent ones: faults correlate\n"
        "with arrivals, two shards draw the same 'random' chunk order, and\n"
        "quality numbers quietly stop meaning what they claim.  A bare name\n"
        "passed as the seed of two of default_rng / SeedSequence /\n"
        "random.Random in one function (or at module level) is flagged.\n"
        "Fork child seeds with SeedSequence(seed).spawn(n), or derive keyed\n"
        "entropy tuples ((seed, stream_id) as faults.plan does) so each\n"
        "consumer gets its own stream."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        named_seeds = sum(
            isinstance(seed, ast.Name)
            for node, target in ctx.calls
            for seed in _seed_arguments(node, target)
        )
        if named_seeds < 2:
            return
        for scope in ctx.nodes:
            if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(scope, ctx)

    def _check_scope(self, scope: Scope, ctx: FileContext) -> Iterator[Diagnostic]:
        first: Dict[str, Tuple[int, str]] = {}
        for node in _own_calls(scope):
            target = resolve_call_target(node.func, ctx.imports)
            for seed in _seed_arguments(node, target):
                if not isinstance(seed, ast.Name):
                    continue
                if seed.id not in first:
                    first[seed.id] = (node.lineno, f"{target}()")
                    continue
                line, consumer = first[seed.id]
                yield ctx.diagnostic(
                    node,
                    self.id,
                    f"seed '{seed.id}' fans out to {target}() after already "
                    f"seeding {consumer} (line {line}); aliased seeds produce "
                    f"correlated streams — spawn() child seeds instead",
                )


def _own_calls(scope: Scope) -> List[ast.Call]:
    """Calls in ``scope``'s own body, in source order; nested functions
    are scopes of their own."""
    calls: List[ast.Call] = []
    stack: List[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(calls, key=lambda call: (call.lineno, call.col_offset))
