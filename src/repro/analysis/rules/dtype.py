"""DTY001/DTY002 — dtype contracts.

The distance kernels promote inputs to float64 internally and document a
float64 result; the storage layer keeps descriptors in float32 on disk.
That boundary only stays intelligible if (a) nobody "helpfully"
pre-casts kernel arguments to float32 — the promotion then happens *after*
precision has already been thrown away, changing results at the ulp level
— and (b) every public function that hands back an array says which dtype
it hands back.

* **DTY001** — a call to a distance kernel (``squared_distances``,
  ``pairwise_squared_distances``) whose argument expression *constructs*
  a float32 array (``np.float32(...)``, ``.astype(np.float32)``,
  ``dtype=np.float32``, ``dtype="float32"``).
  Passing stored float32 data through a variable is fine — the kernels
  promote; constructing float32 at the call site is always a bug.
* **DTY002** — a public function annotated as returning an ndarray whose
  docstring/annotation never states a dtype.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Union

from ..config import DTYPE_KERNELS, DTYPE_WORDS
from ..diagnostics import Diagnostic
from .base import FileContext, Rule

__all__ = ["Float32IntoKernelRule", "ArrayDtypeDeclarationRule"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _mentions_float32(node: ast.AST) -> Optional[ast.AST]:
    """First descendant that constructs/names float32, or ``None``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "float32":
            return child
        if isinstance(child, ast.Name) and child.id == "float32":
            return child
        if isinstance(child, ast.Constant) and child.value == "float32":
            return child
    return None


class Float32IntoKernelRule(Rule):
    id = "DTY001"
    summary = "literal float32 construction passed to a distance kernel"
    rationale = (
        "Descriptors are float32 on disk; the distance kernels promote to\n"
        "float64 internally and are tested for bit-identical results on\n"
        "that contract.  Pre-casting an argument to float32 at the call\n"
        "site throws away precision *before* the kernel sees the data and\n"
        "perturbs distances at the ulp level — enough to reorder ties and\n"
        "break the bit-equality tests."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node, target in ctx.calls:
            name = _kernel_name(node, target)
            if name is None or name not in DTYPE_KERNELS:
                continue
            arguments: List[ast.AST] = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            for argument in arguments:
                offender = _mentions_float32(argument)
                if offender is not None:
                    yield ctx.diagnostic(
                        offender,
                        self.id,
                        f"float32 construction in argument to {name}(); the "
                        f"kernel promotes to float64 — casting first discards "
                        f"precision and breaks bit-reproducibility",
                    )
                    break


def _kernel_name(node: ast.Call, target: Optional[str]) -> Optional[str]:
    """Unqualified kernel name of the call target, if determinable.

    Resolves through the import table first so aliased imports
    (``from .distance import squared_distances as sq``) are still
    recognized; falls back to the syntactic name.
    """
    func = node.func
    if target is not None:
        return target.rsplit(".", 1)[-1]
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class ArrayDtypeDeclarationRule(Rule):
    id = "DTY002"
    summary = "public ndarray-returning function must declare its dtype"
    rationale = (
        "The float32 (storage) / float64 (compute) boundary is only\n"
        "manageable while it is legible: every public ndarray-returning\n"
        "function must state its result dtype in its annotation or\n"
        "docstring so callers never have to guess which side of the\n"
        "boundary they are on."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            returns = node.returns
            if returns is None or not _is_plain_ndarray(returns):
                continue
            docstring = ast.get_docstring(node) or ""
            haystack = docstring.lower()
            if any(word in haystack for word in DTYPE_WORDS):
                continue
            yield ctx.diagnostic(
                node,
                self.id,
                f"public function '{node.name}' returns an ndarray but "
                f"neither its annotation nor its docstring states the "
                f"result dtype",
            )


def _is_plain_ndarray(annotation: ast.expr) -> bool:
    """True for a bare ``np.ndarray``/``ndarray`` return annotation.

    Parameterized annotations (``npt.NDArray[np.float64]``) already carry
    the dtype and pass; tuples/containers of arrays are out of scope.
    """
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ndarray"
    if isinstance(annotation, ast.Name):
        return annotation.id == "ndarray"
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
        return text.endswith("ndarray") or text == "ndarray"
    return False
