"""Rule registry for the invariant linter.

Every rule is per-file: it sees one parsed module at a time through a
:class:`FileContext`.  :func:`all_rules` returns fresh instances in
registry order.
"""

from __future__ import annotations

from typing import List

from .base import FileContext, Rule
from .determinism import (
    LegacyNumpyRandomRule,
    SeedFanoutRule,
    SeedNonRootRule,
    StdlibRandomRule,
    UnseededRngRule,
)
from .dtype import ArrayDtypeDeclarationRule, Float32IntoKernelRule
from .durability import DurabilityRule
from .layering import LayerBoundaryRule
from .wall_clock import WallClockRule

__all__ = ["FileContext", "Rule", "all_rules", "RULE_CLASSES"]

RULE_CLASSES = (
    WallClockRule,
    LegacyNumpyRandomRule,
    StdlibRandomRule,
    UnseededRngRule,
    SeedNonRootRule,
    SeedFanoutRule,
    Float32IntoKernelRule,
    ArrayDtypeDeclarationRule,
    DurabilityRule,
    LayerBoundaryRule,
)

def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registry order."""
    return [cls() for cls in RULE_CLASSES]

