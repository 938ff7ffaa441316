"""Every dotted name the documentation gives in backticks exists.

Scans the documents of :mod:`tests.tools.doc_scan` for backticked
dotted names (``Engine.run``, ``repro.sim.ACCELERATED``,
``store.get()``, ``hooks.on(name, fn)``; an argument list is cut off,
and a span ending in a file extension is a file, not a name). Source
is read, never imported, so the check is the same under both kernel
builds. A name resolves when:

* its longest prefix that names a module of ``src/repro`` (by any
  dotted suffix of its path: ``repro.sim.engine``, ``sim.engine``,
  ``engine``) is followed by a module-level name, and any further part
  by a member of that class;
* it is ``Class.member`` and some class of that name, or one of its
  bases, has the member (a method, a class attribute, a ``self.x``
  assignment, a ``__slots__`` entry, or an entry of ``_ccore.c``'s
  method, member and getset tables);
* it is a lowercase ``instance.member`` (not ``repro.``) and every
  part after the first is a module-level name or a class member
  somewhere;
* it is a per-layer or end-to-end metric that ``BENCHMARK.json`` names,
  or a stdlib module's or builtin's attribute;
* it is on ``ALLOWED``, which says why for each entry.
"""

import ast
import builtins
import collections
import importlib
import json
import re
import sys

from tests.tools.doc_scan import DOCS, REPO, SPANS

SRC = REPO / "src"
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")
FILE_EXTENSIONS = {"c", "html", "json", "md", "py"}
ALLOWED = {
    "otherData.dropped_events": "a key of the exported trace JSON",
    "vm.max_map_count": "a Linux sysctl",
    "monkeypatch.setattr": "a pytest fixture's method",
    "Hooks.X": "a placeholder for any hook name",
}
C_TABLE = re.compile(
    r"static Py(?:Method|Member|GetSet)Def (\w+?)_(?:methods|members|getset)"
    r"\[\] = \{(.*?)\n\};", re.S)


class Index:
    """Modules, module-level names and class members of ``src/repro``,
    and the metric names of ``BENCHMARK.json``."""

    def __init__(self, root=SRC / "repro"):
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        self.metrics = {m["name"]
                        for m in spec["per_layer"] + spec["end_to_end"]}
        self.modules = collections.defaultdict(set)   # suffix -> dotted
        self.names = collections.defaultdict(set)     # dotted -> names
        self.members = collections.defaultdict(set)   # class -> members
        self.bases = collections.defaultdict(set)     # class -> base names
        for path in sorted(root.rglob("*.py")):
            parts = list(path.relative_to(SRC).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            self._add_module(parts)
            if len(parts) > 1:
                self.names[".".join(parts[:-1])].add(parts[-1])
            self._read(".".join(parts), ast.parse(path.read_text()))
        for path in sorted(root.rglob("*.c")):
            parts = list(path.relative_to(SRC).with_suffix("").parts)
            self._add_module(parts)
            self.names[".".join(parts[:-1])].add(parts[-1])
            for cls, body in C_TABLE.findall(path.read_text()):
                self.names[".".join(parts)].add(cls)
                self.members[cls].update(re.findall(r'\{"(\w+)"', body))
        self.anywhere = set().union(*self.names.values(),
                                    *self.members.values())

    def _add_module(self, parts):
        for start in range(len(parts)):
            self.modules[".".join(parts[start:])].add(".".join(parts))

    def _read(self, module, tree):
        for node in tree.body:
            self.names[module].update(_bound(node))
            if isinstance(node, ast.ClassDef):
                self._read_class(node)

    def _read_class(self, cls):
        self.bases[cls.name].update(
            base.id if isinstance(base, ast.Name) else base.attr
            for base in cls.bases if isinstance(base, (ast.Name, ast.Attribute)))
        members = self.members[cls.name]
        for node in cls.body:
            members.update(_bound(node))
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in node.targets):
                members.update(c.value for c in ast.walk(node.value)
                               if isinstance(c, ast.Constant))
            if isinstance(node, ast.ClassDef):
                self._read_class(node)
        members.update(
            node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self")

    def has_member(self, cls, member, seen=()):
        if cls in seen:
            return False
        return member in self.members.get(cls, ()) or any(
            self.has_member(base, member, seen + (cls,))
            for base in self.bases.get(cls, ()))

    def in_module(self, parts):
        """Whether ``parts`` is a module, or a module's name (and then
        members of that class)."""
        for cut in range(len(parts), 0, -1):
            for module in self.modules.get(".".join(parts[:cut]), ()):
                rest = parts[cut:]
                if not rest:
                    return True
                if rest[0] in self.names[module] and (
                        len(rest) == 1 or len(rest) == 2
                        and self.has_member(rest[0], rest[1])):
                    return True
        return False


def _bound(node):
    """The names one module- or class-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).partition(".")[0] for a in node.names}
    if isinstance(node, (ast.If, ast.Try)):
        body = node.body + node.orelse + getattr(node, "finalbody", []) + [
            n for handler in getattr(node, "handlers", []) for n in handler.body]
        return set().union(*map(_bound, body))
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign)
               else [])
    return {t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)}


def _in_stdlib(parts):
    head, *rest = parts
    if hasattr(builtins, head):
        target = getattr(builtins, head)
    elif head in sys.stdlib_module_names:
        target = importlib.import_module(head)
    else:
        return False
    for part in rest:
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def doc_names(text: str):
    """The backticked dotted names of one Markdown document, in order,
    argument lists cut off."""
    for match in SPANS.finditer(text):
        name = NAME.fullmatch(" ".join((match.group(1) or "").split()))
        if name and name.group(1).rpartition(".")[2] not in FILE_EXTENSIONS:
            yield name.group(1)


def resolves(name: str, index: Index) -> bool:
    parts = name.split(".")
    if name in ALLOWED or name in index.metrics or index.in_module(parts):
        return True
    head, rest = parts[0], parts[1:]
    if head in index.members:
        return len(rest) == 1 and index.has_member(head, rest[0])
    if head != "repro" and head[0].islower() \
            and all(p in index.anywhere for p in rest):
        return True
    return _in_stdlib(parts)


def test_every_documented_name_exists():
    index = Index()
    missing = [f"{doc.relative_to(REPO)}: {name}"
               for doc in DOCS for name in doc_names(doc.read_text())
               if not resolves(name, index)]
    assert missing == []
    named = {name for doc in DOCS for name in doc_names(doc.read_text())}
    assert set(ALLOWED) <= named, "an allowed name no document gives"


def test_the_scan_accepts_and_rejects():
    text = ("`Engine.run(until=...)` `ctx.state` `obs.calls_when_off` "
            "`trace.json` `python -m repro` `store.get()` "
            "`PageTable.record_write` `Engine.metronome` `hooks.on(name,\n"
            "fn)`")
    names = list(doc_names(text))
    assert names == ["Engine.run", "ctx.state", "obs.calls_when_off",
                     "store.get", "PageTable.record_write",
                     "Engine.metronome", "hooks.on"]
    index = Index()
    assert [resolves(n, index) for n in names] == [
        True, True, True, True, False, False, True]
    for name in ("repro.sim.ACCELERATED", "repro.protocol.agent.Operation",
                 "Process._hand", "Engine.queue_depth", "str.format",
                 "time.process_time", "repro.sim._ccore"):
        assert resolves(name, index), name
    for name in ("repro.protocol.base", "protocol.base.genima",
                 "ft.diffprop", "Event.triggered",
                 "lock_handoff.host_us_per_acquire"):
        assert not resolves(name, index), name
