"""Export experiment results as machine-readable CSV or JSON.

The rendered fixed-width text is for humans; downstream tooling (plotting
scripts, regression dashboards) consumes these exports instead.  Both
result flavors are supported:

* :class:`~repro.experiments.results.TableResult` — one CSV/JSON table;
* :class:`~repro.experiments.results.FigureResult` — long-form rows
  ``(x, series, value)`` so any plotting library can pivot them;
* :class:`~repro.experiments.results.GridResult` — one row per grid
  cell, or the full deterministic report.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Union

from .results import FigureResult, GridResult, TableResult

__all__ = ["to_csv", "to_json", "write_result"]

Result = Union[TableResult, FigureResult, GridResult]


def _figure_rows(result: FigureResult):
    for series_name, values in result.series.items():
        for x, value in zip(result.x_values, values):
            yield [x, series_name, value]


def to_csv(result: Result) -> str:
    """Render one result as CSV text (header row included)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if isinstance(result, TableResult):
        writer.writerow(result.headers)
        writer.writerows(result.rows)
    elif isinstance(result, FigureResult):
        writer.writerow([result.x_label, "series", "value"])
        writer.writerows(_figure_rows(result))
    elif isinstance(result, GridResult):
        headers = list(result.rows[0]) if result.rows else []
        writer.writerow(headers)
        writer.writerows([row[h] for h in headers] for row in result.rows)
    else:
        raise TypeError(f"cannot export {type(result).__name__}")
    return buffer.getvalue()


def to_json(result: Result) -> str:
    """Render one result as a self-describing JSON document."""
    if isinstance(result, TableResult):
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "kind": "table",
            "headers": result.headers,
            "rows": result.rows,
        }
    elif isinstance(result, FigureResult):
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "kind": "figure",
            "x_label": result.x_label,
            "x_values": list(result.x_values),
            "series": {name: list(values) for name, values in result.series.items()},
        }
    elif isinstance(result, GridResult):
        payload = dict(result.to_report(), kind="service-grid")
    else:
        raise TypeError(f"cannot export {type(result).__name__}")
    return json.dumps(payload, indent=2, default=float)


def write_result(result: Result, path: str, fmt: str = "csv") -> None:
    """Write one result to ``path`` in the chosen format."""
    if fmt == "csv":
        text = to_csv(result)
    elif fmt == "json":
        text = to_json(result)
    else:
        raise ValueError(f"unknown export format {fmt!r} (use 'csv' or 'json')")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)
