"""Execution-time breakdown accounting.

The paper reports two breakdown formats (section 5.3):

* four components: compute, data wait, lock, barrier (Figs 7, 9);
* six components: compute, data wait, synchronization (= lock+barrier),
  diffs, protocol processing, checkpointing (Figs 8, 10).

The two formats attribute nested work differently. Diff propagation at
a barrier is *barrier time* in the four-way format (which is why the
paper's Fig 9 shows LU's replication cost as an 86% barrier-time blow-
up) but *diff time* in the six-way format. We therefore account time on
a **category stack**: at any instant a thread has an innermost (fine)
category and an application-visible outermost (coarse) one, and every
elapsed instant is charged to both views. Both views always sum to
elapsed time.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, Iterable

from repro.errors import SimulationError
from repro.sim import Engine


class Category(enum.Enum):
    """Primitive time categories (superset of the paper's components)."""

    COMPUTE = "compute"
    DATA_WAIT = "data_wait"       # page-fault handling incl. remote fetch
    LOCK = "lock"                 # everything inside acquire/release ops
    BARRIER = "barrier"           # everything inside barrier ops
    DIFF = "diff"                 # diff computation + propagation
    CHECKPOINT = "checkpoint"     # thread-state checkpointing
    PROTOCOL = "protocol"         # remaining protocol processing

    # Identity hash at C speed: Enum's own __hash__ is a Python-level
    # call, and ThreadClock hashes a category four times per flush.
    # Members are singletons, so equality is already identity.
    __hash__ = object.__hash__


class ThreadClock:
    """Two-level exclusive time accounting for one thread.

    The protocol *pushes* a category when entering an operation and
    *pops* it when leaving; :meth:`in_category` wraps a generator with a
    push/pop pair. The bottom of the stack is always COMPUTE.

    * fine totals: time charged to the top-of-stack category;
    * coarse totals: time charged to the first non-COMPUTE entry from
      the bottom (the operation the application called), or COMPUTE.
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._stack: list[Category] = [Category.COMPUTE]
        self._mark = engine.now
        self._stopped = False
        self.fine: Dict[Category, float] = defaultdict(float)
        self.coarse: Dict[Category, float] = defaultdict(float)

    @property
    def current(self) -> Category:
        return self._stack[-1]

    def _coarse_category(self) -> Category:
        for cat in self._stack:
            if cat is not Category.COMPUTE:
                return cat
        return Category.COMPUTE

    def _flush(self) -> None:
        now = self._engine.now
        elapsed = now - self._mark
        if elapsed:
            self.fine[self._stack[-1]] += elapsed
            self.coarse[self._coarse_category()] += elapsed
        self._mark = now

    def push(self, category: Category) -> None:
        if self._stopped:
            return
        self._flush()
        self._stack.append(category)

    def pop(self, category: Category) -> None:
        if self._stopped:
            return
        if len(self._stack) == 1:
            raise SimulationError("clock pop with empty category stack")
        if self._stack[-1] is not category:
            raise SimulationError(
                f"clock pop mismatch: expected {self._stack[-1]}, "
                f"got {category}")
        self._flush()
        self._stack.pop()

    def in_category(self, category: Category, op):
        """Generator wrapper charging ``op``'s elapsed time to ``category``."""
        self.push(category)
        try:
            result = yield from op
        finally:
            self.pop(category)
        return result

    def stop(self) -> None:
        """Flush and freeze (thread finished or died)."""
        if not self._stopped:
            self._flush()
            self._stopped = True

    def reset(self) -> None:
        """Zero all totals and restart accounting from the current time
        (used when the timed region of a run begins)."""
        self.fine.clear()
        self.coarse.clear()
        self._mark = self._engine.now
        self._stopped = False

    def restart(self) -> None:
        """Resume accounting after a thread migration: keep the totals,
        reset the category stack (the old stack died with the node) and
        skip the downtime between failure and resumption."""
        self._stack = [Category.COMPUTE]
        self._mark = self._engine.now
        self._stopped = False

    def elapsed(self) -> float:
        return sum(self.fine.values())


class Breakdown:
    """Aggregated totals exposing the paper's two report formats."""

    def __init__(self, fine: Dict[Category, float],
                 coarse: Dict[Category, float]) -> None:
        self.fine = {cat: fine.get(cat, 0.0) for cat in Category}
        self.coarse = {cat: coarse.get(cat, 0.0) for cat in Category}

    @classmethod
    def merge(cls, clocks: Iterable[ThreadClock]) -> "Breakdown":
        """Mean per-thread breakdown across concurrent SPMD threads.

        Threads run in parallel, so summing would double-count wall
        time; the mean matches the paper's per-application bars.
        """
        clocks = list(clocks)
        fine: Dict[Category, float] = defaultdict(float)
        coarse: Dict[Category, float] = defaultdict(float)
        for clock in clocks:
            for cat, value in clock.fine.items():
                fine[cat] += value
            for cat, value in clock.coarse.items():
                coarse[cat] += value
        n = max(len(clocks), 1)
        return cls({c: v / n for c, v in fine.items()},
                   {c: v / n for c, v in coarse.items()})

    @property
    def total(self) -> float:
        return sum(self.fine.values())

    def four_component(self) -> Dict[str, float]:
        """compute / data wait / lock / barrier (paper Figs 7 and 9).

        Uses the coarse view: nested diff/checkpoint/protocol work is
        attributed to the synchronization or fault operation that the
        application was executing.
        """
        out = {
            "compute": self.coarse[Category.COMPUTE],
            "data_wait": self.coarse[Category.DATA_WAIT],
            "lock": self.coarse[Category.LOCK],
            "barrier": self.coarse[Category.BARRIER],
        }
        # Anything charged coarsely to a protocol-side category means an
        # operation ran outside any app-visible op; keep it visible.
        residual = (self.coarse[Category.DIFF]
                    + self.coarse[Category.CHECKPOINT]
                    + self.coarse[Category.PROTOCOL])
        if residual:
            out["other"] = residual
        return out

    def six_component(self) -> Dict[str, float]:
        """compute / data wait / sync / diffs / protocol / checkpointing
        (paper Figs 8 and 10), from the fine view."""
        return {
            "compute": self.fine[Category.COMPUTE],
            "data_wait": self.fine[Category.DATA_WAIT],
            "synchronization": (self.fine[Category.LOCK]
                                + self.fine[Category.BARRIER]),
            "diffs": self.fine[Category.DIFF],
            "protocol": self.fine[Category.PROTOCOL],
            "checkpointing": self.fine[Category.CHECKPOINT],
        }
