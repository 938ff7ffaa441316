"""The process-pool experiment orchestrator.

``run_specs`` takes a list of :class:`RunSpec` and returns one
:class:`SpecResult` per spec, in input order:

* cached results are served without running anything (the cache key
  covers configuration *and* code, see :mod:`repro.parallel.cache`);
* misses fan out over a ``ProcessPoolExecutor`` (``fork`` start method
  where available -- workers inherit the imported simulator);
* a spec whose worker process dies, or that times out, is retried a
  bounded number of times; a pool break only makes the specs in flight
  suspects, and a spec is ``crashed`` only if a worker died while
  running it alone. A deterministic in-spec exception is *not* retried
  (it would fail identically) but never stops the other specs;
* ``jobs=1`` (or a single spec) runs everything in-process through the
  exact same ``execute_payload`` path, which is what makes
  serial-vs-parallel bit-identity a testable invariant;
* progress streams through an optional callback as each spec settles.

Worker count resolution order: explicit ``jobs`` argument, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.parallel.cache import ResultCache, code_fingerprint, spec_key
from repro.parallel.runners import execute_payload
from repro.parallel.spec import RunSpec

#: status values a SpecResult can carry.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"

ProgressFn = Callable[["SpecResult", int, int], None]


@dataclass
class SpecResult:
    """Outcome of one spec: summary on success, diagnostics otherwise."""

    spec: RunSpec
    status: str
    summary: Optional[Dict[str, Any]] = None
    error: str = ""
    cached: bool = False
    attempts: int = 1
    wall_s: float = 0.0
    key: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            jobs = int(env)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _mp_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover -- non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _Pending:
    index: int
    payload: Dict[str, Any]
    attempts: int = 0


def run_specs(specs: Sequence[RunSpec],
              jobs: Optional[int] = None,
              cache: bool = True,
              cache_dir=None,
              progress: Optional[ProgressFn] = None,
              retries: int = 1,
              timeout_s: Optional[float] = None) -> List[SpecResult]:
    """Run ``specs``, concurrently and cache-aware. See module docs."""
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    store = ResultCache(cache_dir) if cache else None
    fingerprint = code_fingerprint()
    total = len(specs)
    results: List[Optional[SpecResult]] = [None] * total
    done = 0

    def settle(index: int, res: SpecResult) -> None:
        nonlocal done
        results[index] = res
        done += 1
        if progress is not None:
            progress(res, done, total)

    def make_result(index: int, **kw) -> SpecResult:
        return SpecResult(spec=specs[index], key=keys[index], **kw)

    keys = [spec_key(spec, fingerprint) for spec in specs]

    # -- pass 1: cache ---------------------------------------------------
    pending: List[_Pending] = []
    for i, spec in enumerate(specs):
        entry = store.get(keys[i]) if store is not None else None
        if entry is not None:
            settle(i, make_result(i, status=STATUS_OK,
                                  summary=entry["summary"], cached=True))
            continue
        payload = {"spec": spec.to_dict(), "timeout_s": timeout_s}
        pending.append(_Pending(index=i, payload=payload))

    def record(p: _Pending, outcome: Dict[str, Any]) -> None:
        status = outcome["status"]
        res = make_result(p.index, status=status,
                          summary=outcome.get("summary"),
                          error=outcome.get("error", ""),
                          attempts=p.attempts,
                          wall_s=outcome.get("wall_s", 0.0))
        if status == STATUS_OK and store is not None:
            store.put(keys[p.index], specs[p.index], res.summary,
                      fingerprint=fingerprint)
        settle(p.index, res)

    # -- pass 2: execute misses ------------------------------------------
    if not pending:
        return [r for r in results if r is not None]

    def wants_retry(p: _Pending, outcome: Dict[str, Any]) -> bool:
        """Timeouts are load-sensitive, so they get the bounded retry
        too; deterministic in-spec errors would fail identically and
        are recorded immediately."""
        return (outcome["status"] == STATUS_TIMEOUT
                and p.attempts <= retries)

    if jobs == 1 or len(pending) == 1:
        for p in pending:
            while True:
                p.attempts += 1
                outcome = execute_payload(p.payload)
                if not wants_retry(p, outcome):
                    record(p, outcome)
                    break
        return [r for r in results if r is not None]

    def run_pool(batch: List[_Pending], workers: int):
        """Run ``batch`` on one fresh pool, at most ``workers`` specs
        submitted at a time -- so an attempt is counted only against a
        spec that was started, and when a worker dies the unfinished
        futures are exactly the specs that were in flight. Returns
        (specs to run again, specs in flight at a pool break)."""
        again: List[_Pending] = []
        todo = list(batch)
        futures: Dict[Any, _Pending] = {}
        executor = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=_mp_context())
        try:
            while todo or futures:
                while todo and len(futures) < workers:
                    p = todo.pop(0)
                    p.attempts += 1
                    futures[executor.submit(execute_payload, p.payload)] = p
                finished, _ = wait(futures, return_when=FIRST_COMPLETED)
                broken: List[_Pending] = []
                for fut in finished:
                    p = futures.pop(fut)
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool:
                        broken.append(p)
                        continue
                    except Exception as exc:  # noqa: BLE001
                        outcome = {"status": STATUS_ERROR,
                                   "error": f"{type(exc).__name__}: {exc}"}
                    if wants_retry(p, outcome):
                        again.append(p)
                    else:
                        record(p, outcome)
                if broken:
                    # The pool is unusable: every future still pending
                    # fails with it, and so was in flight as well.
                    in_flight = broken + list(futures.values())
                    return again + todo, sorted(in_flight,
                                                key=lambda p: p.index)
            return again, []
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    # A dead worker takes its pool down without saying which spec it was
    # running, so everything in flight at a break is only a *suspect*:
    # each suspect then runs alone on its own pool, where a second death
    # is unambiguous. Only that charges the retry budget -- a neighbour
    # of a crashing spec always ends ok.
    shared, suspects = list(pending), []
    while shared or suspects:
        if suspects:
            again, in_flight = run_pool([suspects.pop(0)], 1)
        else:
            batch, shared = shared, []
            again, in_flight = run_pool(batch, jobs)
        shared.extend(again)
        if len(in_flight) == 1 and in_flight[0].attempts > retries:
            p = in_flight[0]
            record(p, {"status": STATUS_CRASHED,
                       "error": "worker process died "
                                f"(after {p.attempts} attempts)"})
        else:
            suspects.extend(in_flight)

    return [r for r in results if r is not None]
