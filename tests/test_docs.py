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
  row in DESIGN.md section 9's table, naming the question it answers and
  the paper statement it tests, and that table has no other row: an
  experiment beyond the paper says why it is there.
* DESIGN.md is organised by layer and stays short: at most
  :data:`DESIGN_MAX_LINES` lines, and no heading names a PR or an issue
  (history belongs in CHANGES.md).
* DESIGN.md section 3's storage table and the format constants agree both
  ways: every magic and version the table gives is a ``*MAGIC`` /
  ``*VERSION`` / ``FORMAT_NAME`` constant of the module its row names, and
  every such constant of ``storage/`` and ``core/ingest.py`` is in the
  table.
* Every "DESIGN §N" / "DESIGN.md section N" citation in the code, the
  README, EXPERIMENTS.md and CI names a DESIGN.md section, and a quoted title right after
  it (``DESIGN §5, "The code bound"``) names that section or one of its
  subsections.
"""

import argparse
import ast
import importlib
import pathlib
import re
from typing import Dict, List, Optional, Set, Tuple

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
EXPERIMENTS_HEADING = "### Ablations and the statement each tests"

#: Longest DESIGN.md, in lines.
DESIGN_MAX_LINES = 750
#: A Markdown heading that names a PR or an issue.
PR_HEADING = re.compile(r"^#+ .*\b(?:PR|ISSUE)\s*#?\d.*$", re.MULTILINE)

#: The DESIGN.md heading of the storage-format table.
FORMATS_HEADING = "## 3. "
#: The modules whose format constants the table must list, under src/repro.
FORMAT_MODULES = ("storage/*.py", "core/ingest.py")
#: The name of a format constant: a magic or a version.
FORMAT_CONSTANT = re.compile(r"(?:MAGIC|VERSION|^FORMAT_NAME)$")

#: A DESIGN section citation and, optionally, the title quoted after it.
DESIGN_CITATION = re.compile(
    r'DESIGN(?:\.md)?\s+(?:§\s*|section\s+)([0-9]+[a-z]?)(?:,\s*"([^"]+)")?'
)
#: Where citations are looked for: directories (every .py, .md and .yml file
#: under them) and single files, relative to the repository root.
CITING = (
    "src", "tests", "benchmarks", "examples", "README.md", "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
)

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


def _table(design: str, heading: str) -> List[Dict[str, str]]:
    """The rows of the first table after ``heading`` in ``design`` (before
    the next section), each as column header -> cell text."""
    section = design.split(heading, 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    return [
        dict(zip(header, (cell.strip() for cell in line.strip("|").split("|"))))
        for line in lines[2:]
    ]


def statement_rows(design: str) -> Dict[str, List[Tuple[str, str]]]:
    """Experiment id -> the ``(question, paper statement)`` of each of its
    rows in DESIGN.md's section 9 ablation table."""
    rows: Dict[str, List[Tuple[str, str]]] = {}
    for row in _table(design, EXPERIMENTS_HEADING):
        rows.setdefault(row["Exp. id"].strip("`"), []).append(
            (row["Question"], row["Paper statement"])
        )
    return rows


def unstated_experiments(design: str) -> List[str]:
    """One line per ablation or lesson summary of the CLI's registry that
    lacks exactly one section 9 row with a question and a paper
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


def overlong(design: str) -> Optional[int]:
    """The line count of ``design`` if it exceeds :data:`DESIGN_MAX_LINES`."""
    lines = len(design.splitlines())
    return lines if lines > DESIGN_MAX_LINES else None


def test_design_fits_its_line_budget():
    assert overlong((ROOT / "DESIGN.md").read_text(encoding="utf-8")) is None


def test_an_overlong_design_is_caught():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    padding = DESIGN_MAX_LINES + 1 - len(design.splitlines())
    assert overlong(design + "-\n" * padding) == DESIGN_MAX_LINES + 1


def pr_headings(design: str) -> List[str]:
    """Every heading of ``design`` that names a PR or an issue."""
    return [match.group(0) for match in PR_HEADING.finditer(design)]


def test_no_design_heading_names_a_pr():
    assert pr_headings((ROOT / "DESIGN.md").read_text(encoding="utf-8")) == []


def test_a_pr_titled_heading_is_caught():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    titled = [f"### The code bound ({tag} 5)" for tag in ("PR", "ISSUE")]
    planted = design.replace("### The code bound", "\n".join(titled), 1)
    assert pr_headings(planted) == titled


def table_formats(design: str) -> Set[Tuple[str, str, str]]:
    """``(module, "magic" | "version", value)`` of every magic and version
    DESIGN.md's storage table gives."""
    found = set()
    for row in _table(design, FORMATS_HEADING):
        module = row["Module"].strip("`")
        found |= {(module, "magic", m) for m in re.findall(r"`([^`]+)`", row["Magic"])}
        found |= {(module, "version", v) for v in re.findall(r"\d+", row["Version"])}
    return found


def code_formats(root: pathlib.Path) -> Set[Tuple[str, str, str]]:
    """``(module, "magic" | "version", value)`` of every module-level format
    constant of :data:`FORMAT_MODULES`."""
    package = root / "src" / "repro"
    found = set()
    for pattern in FORMAT_MODULES:
        for path in sorted(package.glob(pattern)):
            module = path.relative_to(package).as_posix()
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and FORMAT_CONSTANT.search(node.targets[0].id)
                    and isinstance(node.value, ast.Constant)
                ):
                    continue
                value = node.value.value
                kind = "version" if isinstance(value, int) else "magic"
                text = value.decode("ascii") if isinstance(value, bytes) else str(value)
                found.add((module, kind, text))
    return found


def format_mismatches(design: str) -> List[str]:
    """One line per format constant the storage table and the code do not
    both give, sorted."""
    table, code = table_formats(design), code_formats(ROOT)
    return sorted(
        [f"only in DESIGN: {' '.join(entry)}" for entry in table - code]
        + [f"only in code: {' '.join(entry)}" for entry in code - table]
    )


def test_storage_table_matches_the_format_constants():
    assert code_formats(ROOT)  # the glob still finds the modules
    assert format_mismatches((ROOT / "DESIGN.md").read_text(encoding="utf-8")) == []


def test_a_stale_magic_is_caught():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    planted = design.replace("`EFF2CODE`", "`EFF2VAFL`", 1)
    planted = planted.replace("| `EFF2CIDX` | 4 |", "| `EFF2CIDX` | 3 |", 1)
    assert format_mismatches(planted) == [
        "only in DESIGN: storage/code_file.py magic EFF2VAFL",
        "only in DESIGN: storage/index_file.py version 3",
        "only in code: storage/code_file.py magic EFF2CODE",
        "only in code: storage/index_file.py version 4",
    ]


def design_headings(design: str) -> Dict[str, Set[str]]:
    """Section number -> the titles a citation of it may quote: the
    section's own and its subsections'."""
    headings: Dict[str, Set[str]] = {}
    titles: Set[str] = set()
    for line in design.splitlines():
        section = re.match(r"## ([0-9]+[a-z]?)\. (.+)$", line)
        if section:
            titles = headings.setdefault(section.group(1), set())
            titles.add(section.group(2).strip())
        elif line.startswith("### "):
            titles.add(line[4:].strip())
    return headings


def dangling_citations(text: str, design: str) -> List[str]:
    """Every DESIGN citation in ``text`` whose section, or quoted title,
    DESIGN.md lacks.  Line breaks and comment markers inside a citation
    are read as one space."""
    flat = re.sub(r"\s*\n\s*(?:#+:?\s*)?", " ", text)
    headings = design_headings(design)
    dangling = []
    for match in DESIGN_CITATION.finditer(flat):
        number, title = match.groups()
        if number not in headings or title not in headings[number] | {None}:
            dangling.append(match.group(0))
    return dangling


def _citing_files() -> List[pathlib.Path]:
    files = []
    for name in CITING:
        path = ROOT / name
        if path.is_file():
            files.append(path)
        else:
            files += sorted(
                found for found in path.rglob("*")
                if found.suffix in (".py", ".md", ".yml")
            )
    return files


def test_every_design_citation_names_a_heading():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    dangling = {
        path.relative_to(ROOT).as_posix(): found
        for path in _citing_files()
        if (found := dangling_citations(path.read_text(encoding="utf-8"), design))
    }
    assert dangling == {}


def test_a_dangling_citation_is_caught():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    # Built by concatenation, so this file itself cites nothing dangling.
    cite, old = "DESIGN" + " §", "DESIGN.md" + " section 4b"
    text = (
        f"# Measured ({cite}5, \"The code bound\"): fine.\n"
        f"# See {cite}12 and {cite}5, \"The cube\n#: bound\" and\n"
        f"{old}.\n"
    )
    assert dangling_citations(text, design) == [
        f"{cite}12",
        f'{cite}5, "The cube bound"',
        old,
    ]
