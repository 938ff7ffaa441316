"""Every name a module of ``src/repro`` imports is read in that module.

An import nothing reads is a dependency the module does not have: it
misleads the reader and survives the code that once needed it. Like
the traffic census, this check lists what no code path touches, here
statically. ``__init__`` modules are exempt (they import to re-export),
and so is ``from __future__``. A name counts as read when the module
loads it, names it in ``__all__`` or spells it in a string annotation.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def unused_imports(source: str) -> list:
    """Names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``__all__`` entries and quoted annotations.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read():
    unused = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for names in [unused_imports(path.read_text())] if names}
    assert unused == {}


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Dict, Optional\n"
              "x: 'Optional[int]' = None\n__all__ = ['os']\n")
    assert unused_imports(source) == ["Dict"]
