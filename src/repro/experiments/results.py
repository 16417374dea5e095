"""Common result containers for experiment drivers."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from .report import format_series_block, format_table

__all__ = ["FigureResult", "GridResult", "TableResult"]


@dataclasses.dataclass
class FigureResult:
    """A figure as data: shared x values plus one named series per curve.

    ``render()`` prints the figure as a fixed-width block with one column
    per series — the same numbers the paper plots.  ``meta`` is what
    ``to_report()`` writes before the series: the run's self-description,
    x values included under the key the report names them by.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: List
    series: Dict[str, List[float]]
    precision: int = 3
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, values in self.series.items():
            if len(values) != len(self.x_values):
                raise ValueError(
                    f"series {name!r} has {len(values)} points for "
                    f"{len(self.x_values)} x values"
                )

    def render(self) -> str:
        return format_series_block(
            self.x_label,
            self.x_values,
            self.series,
            title=f"[{self.experiment_id}] {self.title}",
            precision=self.precision,
        )

    def to_report(self) -> Dict[str, object]:
        """Deterministic JSON-ready dict (the CI smoke artefact)."""
        return {"experiment": self.experiment_id, **self.meta, "series": self.series}


@dataclasses.dataclass
class TableResult:
    """A table as data: headers plus rows of cells."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List]
    precision: int = 2

    def render(self) -> str:
        return format_table(
            self.headers,
            self.rows,
            title=f"[{self.experiment_id}] {self.title}",
            precision=self.precision,
        )


@dataclasses.dataclass
class GridResult:
    """A sweep grid as data: one row per cell (``servesim``, ``shardsim``).

    ``rows[i]`` holds one grid cell: its coordinates plus its metrics.
    ``columns`` maps each rendered table header to the row key it shows,
    in table order.  ``meta`` pins the calibration every cell shares, so
    a report is self-describing; ``footer`` is that calibration as the
    line printed under the table.
    """

    experiment_id: str
    title: str
    meta: Dict[str, object]
    rows: List[Dict[str, object]]
    columns: Dict[str, str]
    footer: str

    def render(self) -> str:
        table = format_table(
            list(self.columns),
            [[row[key] for key in self.columns.values()] for row in self.rows],
            title=f"[{self.experiment_id}] {self.title}",
            precision=3,
        )
        return f"{table}\n{self.footer}"

    def to_report(self) -> Dict[str, object]:
        """Deterministic JSON-ready dict (the CI smoke artefact)."""
        return {
            "experiment": self.experiment_id,
            "meta": self.meta,
            "rows": self.rows,
        }
