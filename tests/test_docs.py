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
"""

import pathlib
import re
from typing import List, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The documents that describe the code as it is.
DOCS = ("DESIGN.md", "README.md")

#: "ROADMAP item", also across a line break.
ROADMAP_ITEM = re.compile(r"ROADMAP\s+item", re.IGNORECASE)

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
