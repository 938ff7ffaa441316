"""What the documentation tests scan: one document list, one span regex.

``DOCS`` is every document that names paths and code: README.md,
DESIGN.md, EXPERIMENTS.md, ``docs/*.md`` and the verify skill.
``SPANS`` matches a backticked span (group 1), which may wrap onto the
next lines of its paragraph, or a Markdown link target (group 2).
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]
DOCS = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
        *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md"]
SPANS = re.compile(r"`([^`\n]+(?:\n[^`\n]+)*)`|\]\(([^)\s]+)\)")
