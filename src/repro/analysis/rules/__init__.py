"""Rule registry for ``repro lint``.

Two kinds of rules: per-file rules (CLK/RNG00x/DTY/LAY — one parsed
module at a time) and whole-program rules (SIM/RNG1xx/EXA — symbol
table + call graph, built once per run).  :func:`all_rules` returns
fresh instances of both; the runner dispatches on the kind.
:data:`RULE_IDS` is the stable id list used by ``--rules`` validation
and the JSON report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .base import FileContext, ImportTable, ProjectRule, Rule, resolve_call_target
from .determinism import LegacyNumpyRandomRule, StdlibRandomRule, UnseededRngRule
from .dtype import ArrayDtypeDeclarationRule, Float32IntoKernelRule
from .durability import DurabilityRule
from .layering import LayerBoundaryRule
from .project_rules import (
    ContractTagRule,
    ExactnessContractRule,
    SeedFanoutRule,
    SeedNonRootRule,
    TimeUnitMixRule,
    WallClockSinkRule,
)
from .wall_clock import WallClockRule

__all__ = [
    "FileContext",
    "ImportTable",
    "ProjectRule",
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
    Float32IntoKernelRule,
    ArrayDtypeDeclarationRule,
    DurabilityRule,
    LayerBoundaryRule,
    TimeUnitMixRule,
    WallClockSinkRule,
    SeedNonRootRule,
    SeedFanoutRule,
    ExactnessContractRule,
    ContractTagRule,
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
