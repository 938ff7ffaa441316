"""Every file path the documentation names exists.

Scans the documents of :mod:`tests.tools.doc_scan` for backticked or
linked paths: a span with a ``/`` whose last component has a file
extension. Each must resolve against the repo root, ``src/``,
``src/repro/`` or the document's own directory. Templates
(holding ``*``, ``<`` or ``{``) and URLs are skipped; a ``::test``
suffix, a ``:line`` suffix and a ``#anchor`` are cut off first.
"""

import pathlib
import re

from tests.tools.doc_scan import DOCS, REPO, SPANS

PATH = re.compile(r"[\w.\-/]*/[\w.\-]*\.[A-Za-z0-9]+")


def doc_paths(text: str):
    """The path-like spans of one Markdown document, in order."""
    for match in SPANS.finditer(text):
        span = (match.group(1) or match.group(2)).strip()
        if "://" in span or span.startswith("mailto:") \
                or any(c in span for c in "*<{"):
            continue
        span = re.split(r"::|#", span)[0]
        span = re.sub(r":\d+(-\d+)?$", "", span)
        if PATH.fullmatch(span):
            yield span


def resolves(path: str, doc: pathlib.Path) -> bool:
    return any((base / path).exists() for base in
               (REPO, REPO / "src", REPO / "src" / "repro", doc.parent))


def test_every_documented_path_exists():
    missing = [f"{doc.relative_to(REPO)}: {path}"
               for doc in DOCS
               for path in doc_paths(doc.read_text())
               if not resolves(path, doc)]
    assert missing == []


def test_the_scan_sees_paths():
    text = ("`src/repro/config.py` [x](docs/API.md#top) `a/b.py::test` "
            "`tests/<name>.py` `results/fig*.txt` `python -m repro` "
            "`x/y.py:12` <https://example.org/a.html>")
    assert list(doc_paths(text)) == [
        "src/repro/config.py", "docs/API.md", "a/b.py", "x/y.py"]
