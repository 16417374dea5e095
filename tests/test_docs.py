"""Doc check: DESIGN.md and README.md cite no ROADMAP item numbers.

ROADMAP.md renumbers its open items as they land and are re-planned, so a
"ROADMAP item N" in a document that describes the code goes stale without
anything noticing (one such citation had already drifted to the wrong
item).  Those documents say what the open work is, in prose.
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
