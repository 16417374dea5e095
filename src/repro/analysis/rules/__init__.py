"""Rule registry for ``repro lint``.

Every rule is per-file: it sees one parsed module at a time through a
:class:`FileContext`.  :func:`all_rules` returns fresh instances in
registry order; :data:`RULE_IDS` is the stable id list used by
``--rules`` validation and the JSON report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .base import FileContext, ImportTable, Rule, resolve_call_target
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

__all__ = [
    "FileContext",
    "ImportTable",
    "Rule",
    "resolve_call_target",
    "all_rules",
    "RULE_IDS",
    "RULE_CLASSES",
    "select_rules",
]

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

RULE_IDS: List[str] = [cls.id for cls in RULE_CLASSES]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registry order."""
    return [cls() for cls in RULE_CLASSES]


def select_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instances for ``ids`` (all rules when ``None``).

    Raises ``ValueError`` on an unknown id, listing the valid ones.
    """
    if ids is None:
        return all_rules()
    by_id: Dict[str, type] = {cls.id: cls for cls in RULE_CLASSES}
    unknown = sorted(set(ids) - set(by_id))
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"valid: {', '.join(RULE_IDS)}"
        )
    return [by_id[rule_id]() for rule_id in ids]
