"""Doc checks.

* DESIGN.md and README.md cite no ROADMAP item numbers.  ROADMAP.md
  renumbers its open items as they land and are re-planned, so a "ROADMAP
  item N" in a document that describes the code goes stale without
  anything noticing (one such citation had already drifted to the wrong
  item).  Those documents say what the open work is, in prose.
* CHANGES.md is a ledger of one entry per line, and every entry from
  "PR 17 (ISSUE 21)" on — when the cap was set — holds at most
  :data:`ENTRY_CAP` characters.  Measurements and history beyond that
  belong in the commit and the benchmark's files.
* Every ``repro.*`` name DESIGN.md and README.md give is a module, or an
  attribute reachable from one, and every ``repro`` subcommand they show
  is one the CLI has: a module or command that is deleted or renamed
  takes its mentions with it.
* Every ablation and the lesson summary the CLI registers has exactly one
  row in DESIGN.md section 4b's table, naming the question it answers and
  the paper statement it tests, and that table has no other row: an
  experiment beyond the paper says why it is there.
"""

import argparse
import importlib
import pathlib
import re
from typing import Dict, List, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The documents that describe the code as it is.
DOCS = ("DESIGN.md", "README.md")

#: "ROADMAP item", also across a line break.
ROADMAP_ITEM = re.compile(r"ROADMAP\s+item", re.IGNORECASE)

#: A dotted name under the package.
REPRO_NAME = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
#: A CLI invocation: ``repro <command>`` in a code span or opening a line.
REPRO_COMMAND = re.compile(r"(?:`|^[ \t]*)repro ([a-z][a-z0-9-]*)", re.MULTILINE)

#: The DESIGN.md heading of the table of experiments beyond the paper.
EXPERIMENTS_HEADING = "## 4b. "

#: Longest CHANGES.md entry, in characters.
ENTRY_CAP = 2500
#: The first entry the cap applies to.
FIRST_CAPPED = "PR 17 (ISSUE 21)"


def roadmap_citations(text: str) -> List[Tuple[int, str]]:
    """``(line, text)`` of every "ROADMAP item" in ``text``."""
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(0))
        for match in ROADMAP_ITEM.finditer(text)
    ]


@pytest.mark.parametrize("name", DOCS)
def test_no_roadmap_item_is_cited(name):
    assert roadmap_citations((ROOT / name).read_text(encoding="utf-8")) == []


def test_a_planted_citation_is_caught():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    planted = design + "Open work: see ROADMAP\nitem 4.\n"
    last_line = design.count("\n") + 1
    assert roadmap_citations(planted) == [(last_line, "ROADMAP\nitem")]


def long_entries(text: str) -> List[Tuple[str, int]]:
    """``(entry head, length)`` of every capped CHANGES.md entry over
    :data:`ENTRY_CAP` characters; the entries start at
    :data:`FIRST_CAPPED`, which must be there."""
    entries = [line for line in text.split("\n") if line.strip()]
    heads = [entry.startswith(FIRST_CAPPED) for entry in entries]
    assert any(heads), f"no CHANGES.md entry starts with {FIRST_CAPPED!r}"
    capped = entries[heads.index(True):]
    return [
        (entry.split(":")[0], len(entry)) for entry in capped if len(entry) > ENTRY_CAP
    ]


def test_changes_entries_fit_the_cap():
    assert long_entries((ROOT / "CHANGES.md").read_text(encoding="utf-8")) == []


def test_an_overlong_entry_is_caught():
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    planted = changes.rstrip("\n") + "\nPR 99 (ISSUE 99): " + "x" * ENTRY_CAP + "\n"
    assert long_entries(planted) == [("PR 99 (ISSUE 99)", ENTRY_CAP + 18)]
    # Entries before the cap was set are not held to it.
    assert long_entries("PR 9 (ISSUE 13): " + "y" * 9000 + "\n" + changes) == []


def _resolves(dotted: str) -> bool:
    """True when the longest importable prefix of ``dotted`` has the rest
    as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(found, attribute):
                return False
            found = getattr(found, attribute)
        return True
    return False


def stale_names(text: str) -> List[str]:
    """The ``repro.*`` names and ``repro`` subcommands ``text`` gives that
    do not exist, sorted."""
    from repro.cli import _build_parser

    (commands,) = [
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    stale = [name for name in set(REPRO_NAME.findall(text)) if not _resolves(name)]
    stale += [
        f"repro {command}"
        for command in set(REPRO_COMMAND.findall(text))
        if command not in commands
    ]
    return sorted(stale)


@pytest.mark.parametrize("name", DOCS)
def test_named_modules_and_commands_exist(name):
    assert stale_names((ROOT / name).read_text(encoding="utf-8")) == []


def test_a_planted_stale_name_is_caught():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    planted = design + (
        "Crash plans live in `repro.faults.crash_plan` (`CrashAtStep`), "
        "drills in `repro.core.ingest.CrashPlan`; run `repro crashsim`.\n"
    )
    assert stale_names(planted) == [
        "repro crashsim",
        "repro.core.ingest.CrashPlan",
        "repro.faults.crash_plan",
    ]


def statement_rows(design: str) -> Dict[str, List[Tuple[str, str]]]:
    """Experiment id -> the ``(question, paper statement)`` of each of its
    rows in DESIGN.md's section 4b table."""
    section = design.split(EXPERIMENTS_HEADING, 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    question = header.index("Question")
    statement = header.index("Paper statement")
    rows: Dict[str, List[Tuple[str, str]]] = {}
    for line in lines[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.setdefault(cells[0].strip("`"), []).append(
            (cells[question], cells[statement])
        )
    return rows


def unstated_experiments(design: str) -> List[str]:
    """One line per ablation or lesson summary of the CLI's registry that
    lacks exactly one section 4b row with a question and a paper
    statement, and per row that names no such experiment; sorted."""
    from repro.cli import EXPERIMENT_RUNNERS

    registered = {
        name
        for name in EXPERIMENT_RUNNERS
        if name.startswith("ablation_") or name == "lessons_summary"
    }
    rows = statement_rows(design)
    problems = []
    for name in sorted(registered | set(rows)):
        found = rows.get(name, [])
        if name not in registered:
            problems.append(f"{name}: a row for no registered experiment")
        elif len(found) != 1:
            problems.append(f"{name}: {len(found)} rows")
        elif not all(found[0]):
            problems.append(f"{name}: no question or no paper statement")
    return problems


def test_every_ablation_names_the_statement_it_tests():
    assert unstated_experiments((ROOT / "DESIGN.md").read_text(encoding="utf-8")) == []


def test_an_unstated_ablation_is_caught():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    row = next(
        line for line in design.splitlines() if line.startswith("| `ablation_cache` |")
    )
    cells = row.split("|")
    cells[3] = " "  # the paper statement
    planted = design.replace(row, "|".join(cells)).replace(
        "| `lessons_summary` |", "| `ablation_gone` | Q | S | - | - |\n| `lessons_summary` |"
    )
    planted = planted.replace("| `ablation_overlap` |", "| `ablation_ranking` |", 1)
    assert unstated_experiments(planted) == [
        "ablation_cache: no question or no paper statement",
        "ablation_gone: a row for no registered experiment",
        "ablation_overlap: 0 rows",
        "ablation_ranking: 2 rows",
    ]
