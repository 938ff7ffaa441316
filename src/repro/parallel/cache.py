"""Content-addressed result cache.

A cached entry is keyed by ``sha256(canonical spec JSON + code
fingerprint)``:

* the *spec* part means two experiments with identical configuration,
  seeds and fault plans share an entry, while any parameter change --
  one seed, one protocol knob -- misses;
* the *code fingerprint* part (a digest over every ``.py`` and ``.c``
  file under ``src/repro/`` -- the compiled kernel's source computes
  results too) means touching the simulator invalidates everything,
  so a cached summary is always exactly what re-running the current
  code would produce. Simulations are deterministic, which is what
  makes this sound.

Entries live as JSON under ``results/cache/<k[:2]>/<key>.json``
(sharded to keep directories small); writes are atomic
(tmp + ``os.replace``) so a crashed or concurrent sweep never leaves a
truncated entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, Optional

from repro.parallel.spec import RunSpec

#: Repository root (…/src/repro/parallel/cache.py -> parents[3]).
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
_SRC_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Default cache location, overridable for tests and CI.
DEFAULT_CACHE_DIR = _REPO_ROOT / "results" / "cache"

_fingerprint_memo: Dict[str, str] = {}


def code_fingerprint(root: Optional[pathlib.Path] = None) -> str:
    """Digest of every Python and C source file under ``src/repro/``.

    Memoized per path: the tree cannot change under a running sweep
    without invalidating the sweep itself.
    """
    root = pathlib.Path(root) if root is not None else _SRC_ROOT
    memo_key = str(root)
    cached = _fingerprint_memo.get(memo_key)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*.*")
                       if p.suffix in (".py", ".c")):
        rel = path.relative_to(root).as_posix()
        h.update(rel.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    digest = h.hexdigest()
    _fingerprint_memo[memo_key] = digest
    return digest


def spec_key(spec: RunSpec, fingerprint: Optional[str] = None) -> str:
    """The content address of one experiment under the current code."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    blob = spec.canonical_json() + "\0" + fingerprint
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Filesystem-backed map from spec key to result summary JSON."""

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        if root is None:
            env = os.environ.get("REPRO_CACHE_DIR")
            root = pathlib.Path(env) if env else DEFAULT_CACHE_DIR
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry, or None. A hit is a dict with a
        ``"summary"``; anything else on disk (truncated, ``{}``, some
        other JSON) is a corrupt entry and reads as a miss."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            entry = None
        if not isinstance(entry, dict) or "summary" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, spec: RunSpec, summary: Dict[str, Any],
            fingerprint: Optional[str] = None) -> None:
        """Atomically store a result summary for ``key``."""
        if fingerprint is None:
            fingerprint = code_fingerprint()
        entry = {
            "key": key,
            "spec": spec.to_dict(),
            "code_fingerprint": fingerprint,
            "summary": summary,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
