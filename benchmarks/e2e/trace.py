"""Tracing from outside the program: spans around the calls into it,
and a call-boundary timer that charges host time to layers.

Two instruments, both owned by the benchmark (nothing here is
installed in ``src/``):

* :class:`SpanLog` -- ``cell -> {construct, attach, run, export}``
  spans, one id per cell, kept in memory until the workload ends.
* :class:`LayerProfile` -- a ``cProfile`` session enabled only inside
  timed regions. Each function's *self* time goes to the layer of its
  defining module (the package under ``src/repro/``); self time of a C
  builtin goes to the layer of the Python function that called it;
  everything else (stdlib, numpy's Python shims, this benchmark) is
  ``host.other``. ``calls_in`` counts calls that enter a layer from a
  different one.

``cProfile`` charges its per-call cost to Python calls and not to time
inside native code, so the shares lean toward call-heavy layers; the
runner reports traced/untraced wall time as ``host.trace_overhead_ratio``
and never takes an end-to-end metric from a traced pass.
"""

from __future__ import annotations

import cProfile
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

LAYERS = ("sim", "net", "memory", "protocol", "protocol.ft", "cluster",
          "apps", "harness", "verify", "obs", "metrics")
OTHER = "host.other"


def layer_of(filename: str) -> str:
    """Layer of a source file: its package under ``src/repro/``."""
    marker = os.sep + "repro" + os.sep
    _, found, tail = filename.rpartition(marker)
    if not found:
        return OTHER
    parts = tail.split(os.sep)
    if parts[:2] == ["protocol", "ft"]:
        return "protocol.ft"
    return parts[0] if parts[0] in LAYERS else OTHER


class SpanLog:
    """In-memory spans; ``parent`` is the id of the enclosing span."""

    def __init__(self) -> None:
        self.spans: List[dict] = []

    @contextmanager
    def span(self, name: str, parent: Optional[dict] = None, **attrs):
        """Time the enclosed block; yields the span's record, whose
        ``end_s`` is set when the block is left."""
        record = {"id": len(self.spans),
                  "parent": parent["id"] if parent else None,
                  "name": name, **attrs,
                  "start_s": time.perf_counter(), "end_s": None}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()


def duration(span: dict) -> float:
    return span["end_s"] - span["start_s"]


class LayerProfile:
    """Accumulates one cProfile session over many timed regions."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    @contextmanager
    def timed_region(self):
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "self_share", "calls_in"}}`` over the
        eleven layers plus ``host.other``; shares sum to 1."""
        stats = self._profile.getstats()
        self_s: Dict[str, float] = defaultdict(float)
        calls_in: Dict[str, float] = defaultdict(float)

        def entry_layer(code) -> Optional[str]:
            return None if isinstance(code, str) \
                else layer_of(code.co_filename)

        # A builtin has no layer of its own: it acts for whoever calls
        # it, in proportion to how often each layer does.
        builtin_callers: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        for entry in stats:
            caller = entry_layer(entry.code)
            if caller is None:
                continue
            self_s[caller] += entry.inlinetime
            for sub in entry.calls or ():
                callee = entry_layer(sub.code)
                if callee is None:
                    self_s[caller] += sub.inlinetime
                    builtin_callers[sub.code][caller] += sub.callcount
                elif callee != caller:
                    calls_in[callee] += sub.callcount

        for entry in stats:
            if not isinstance(entry.code, str) or not entry.calls:
                continue
            callers = builtin_callers.get(entry.code, {})
            total = sum(callers.values())
            for sub in entry.calls:
                callee = entry_layer(sub.code)
                if callee is None:      # builtin called by a builtin
                    self_s[OTHER] += sub.inlinetime
                elif total:
                    outside = sum(n for layer, n in callers.items()
                                  if layer != callee)
                    calls_in[callee] += sub.callcount * outside / total

        grand = sum(self_s.values()) or 1.0
        return {layer: {"self_s": self_s[layer],
                        "self_share": self_s[layer] / grand,
                        "calls_in": round(calls_in[layer])}
                for layer in LAYERS + (OTHER,)}
