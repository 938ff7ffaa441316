"""Stall watchdog: detect zero-progress windows and dump wait-for graphs.

The simulator's two known deadlock classes (recovery rendezvous that
never completes, lock handover lost across a failure) present as "the
event list keeps polling but no protocol hook fires". The watchdog
subscribes to the full hook stream as its progress signal and rides a
metronome: when ``horizon_us`` of simulated time passes with no hook
event, it dumps a **wait-for graph** -- every unfinished thread,
the event it is parked on (decoded from the simulator's structured
event names: ``lock{id}.localwait``, ``fault{page}.acquire``,
``bar{id}.{epoch}``, ``relslot{node}``, ``recovery.*``), the owner of
the resource where one is known, the home-map epoch and failed set,
every in-flight release (seq/stage/pages), recovery rendezvous state
and NIC queue depths -- to stderr and onto the flight-recorder
timeline, then runs a cycle search over the thread->thread edges so a
true deadlock is named as one.

One dump per stall episode: the watchdog re-arms only after progress
resumes. Zero cost when not attached.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, Optional, Tuple

from repro.cluster import Hooks
from repro.metrics.trace import FULL_EVENTS, STALL
from repro.obs import instrumentation
from repro.protocol.ft import protocol as ft_protocol
from repro.sim import metronome

#: Release-pipeline stage number -> name, read off the ``STAGE_*``
#: constants of the FT protocol.
_STAGES = {value: name.removeprefix("STAGE_")
           for name, value in vars(ft_protocol).items()
           if name.startswith("STAGE_")}

_LOCK_WAIT = re.compile(r"lock(\d+)\.localwait$")
_QLOCK_WAIT = re.compile(r"qlock(\d+)\.")
_PAGE_LOCK = re.compile(r"fault(\d+)\.acquire$")
_PAGE_UNLOCK = re.compile(r"unlock(\d+)$")
_VERSION = re.compile(r"ver(\d+)$")
_BARRIER = re.compile(r"bar(\d+)\.(\d+)$")
_RELSLOT = re.compile(r"relslot(\d+)$")


def _decode_wait(name: str
                 ) -> Tuple[str, Optional[int], Optional[int]]:
    """Classify a simulator event name into (kind, resource id,
    barrier generation). The generation is the one encoded in the
    wait event (``bar{id}.{epoch}``) -- which *round* the thread is
    parked in, the first question a barrier deadlock raises."""
    for pattern, kind in ((_LOCK_WAIT, "lock"), (_QLOCK_WAIT, "lock"),
                          (_PAGE_LOCK, "page_lock"),
                          (_PAGE_UNLOCK, "page_unlock"),
                          (_VERSION, "page_version"),
                          (_RELSLOT, "release_slot")):
        m = pattern.search(name)
        if m:
            return kind, int(m.group(1)), None
    m = _BARRIER.search(name)
    if m:
        return "barrier", int(m.group(1)), int(m.group(2))
    if name.startswith("recovery"):
        return "recovery", None, None
    return "other", None, None


def build_waitfor(runtime,
                  lock_holders: Optional[Dict[int, Tuple[int, int]]] = None
                  ) -> dict:
    """Snapshot the cluster's blocking structure.

    ``lock_holders`` maps lock id -> (node, tid) as tracked from
    LOCK_ACQUIRED/LOCK_RELEASED hooks (the :class:`StallWatchdog`
    maintains one); without it lock edges lack owners but the graph is
    still built. Pure introspection -- no simulated cost, no mutation.
    """
    lock_holders = lock_holders or {}
    threads = []
    edges: Dict[int, List[int]] = {}  # waiter tid -> owner tids
    inflight_by_node: Dict[int, List[dict]] = {}
    for node_id, agent in enumerate(runtime.agents):
        fl_map = getattr(agent, "_inflight", None) or {}
        inflight_by_node[node_id] = [
            {"tid": tid, "seq": fl.seq,
             "stage": _STAGES.get(fl.stage, str(fl.stage)),
             "lock": fl.lock_id, "pages": len(fl.pages)}
            for tid, fl in sorted(fl_map.items())]

    for rec in runtime.threads:
        entry = {"tid": rec.tid, "node": rec.current_node,
                 "finished": rec.finished, "waiting": None,
                 "kind": None, "resource": None, "owner": None}
        proc = rec.proc
        waiting = getattr(proc, "_waiting_on", None) if proc else None
        if not rec.finished and waiting is not None:
            name = waiting.name
            kind, resource, wait_epoch = _decode_wait(name)
            entry.update(waiting=name, kind=kind, resource=resource)
            if kind == "barrier":
                # The three epoch counters a barrier deadlock is
                # diagnosed from: the generation the wait event names,
                # the thread's own completed count, and its node's.
                agent = runtime.agents[rec.current_node]
                entry["wait_epoch"] = wait_epoch
                entry["thread_epoch"] = rec.ctx.state.get(
                    ("__bar__", resource), 0)
                entry["node_done"] = getattr(
                    agent, "barrier_done", {}).get(resource, 0)
            if kind == "lock" and resource in lock_holders:
                owner_node, owner_tid = lock_holders[resource]
                entry["owner"] = {"tid": owner_tid, "node": owner_node}
                edges.setdefault(rec.tid, []).append(owner_tid)
            elif kind == "release_slot":
                owners = [fl["tid"] for fl in
                          inflight_by_node.get(resource, ())]
                if owners:
                    entry["owner"] = {"tids": owners, "node": resource}
                    edges.setdefault(rec.tid, []).extend(owners)
            elif kind in ("page_lock", "page_unlock", "page_version"):
                entry["home"] = runtime.homes.primary_home(resource)
        threads.append(entry)

    # Barrier arrivals at the current manager: which nodes are in,
    # which the manager is still waiting for.
    barriers = []
    manager_node = runtime.barrier_manager_node()
    manager = runtime.barrier_managers[manager_node]
    expected = sorted(runtime.expected_barrier_node_ids())
    for barrier_id, gen in sorted(
            getattr(manager, "_generations", {}).items()):
        arrived = sorted({node for node, _ts, _e in gen.arrivals})
        barriers.append({"barrier": barrier_id, "arrived": arrived,
                         "missing": [n for n in expected
                                     if n not in arrived]})

    recovery = None
    manager = runtime.recovery_manager
    if manager is not None:
        recovery = {
            "active": manager.active,
            "recoveries": manager.recoveries,
            "parked": sorted(manager._parked),
            "required": sorted(manager._required_parkers())
            if manager.active is not None else [],
            "blocked": {n: c for n, c in sorted(manager._blocked.items())
                        if c},
        }

    return {
        "time_us": runtime.engine.now,
        "threads": threads,
        "edges": edges,
        "cycle": _find_cycle(edges),
        "inflight": {n: fls for n, fls in inflight_by_node.items() if fls},
        "barriers": barriers,
        "recovery": recovery,
        "homes": {"epoch": runtime.homes.epoch,
                  "failed": sorted(runtime.homes.failed)},
        "nic_queues": {n: len(node.nic.post_queue)
                       for n, node in enumerate(runtime.cluster.nodes)},
    }


def _find_cycle(edges: Dict[int, List[int]]) -> Optional[List[int]]:
    """First cycle in the waiter->owner graph, as a tid path."""
    for start in sorted(edges):
        path, seen = [start], {start}
        node = start
        while True:
            nxt = [t for t in edges.get(node, ()) if t is not None]
            if not nxt:
                break
            node = nxt[0]
            if node in seen:
                if node == start:
                    return path + [start]
                break  # cycle not through start; a later start finds it
            seen.add(node)
            path.append(node)
    return None


def format_waitfor(graph: dict, horizon_us: Optional[float] = None) -> str:
    """Human-readable wait-for dump (what lands on stderr)."""
    lines = []
    head = f"=== stall watchdog: t={graph['time_us']:.1f}us"
    if horizon_us is not None:
        head += f", no progress event for {horizon_us:.0f}us"
    lines.append(head + " ===")
    homes = graph["homes"]
    lines.append(f"home map: epoch {homes['epoch']}, "
                 f"failed nodes {homes['failed'] or 'none'}")
    rec = graph["recovery"]
    if rec is not None:
        lines.append(
            f"recovery: active={rec['active']} "
            f"parked={rec['parked']} required={rec['required']} "
            f"blocked={rec['blocked'] or '{}'} "
            f"(completed: {rec['recoveries']})")
    lines.append("wait-for graph:")
    for t in graph["threads"]:
        if t["finished"]:
            lines.append(f"  thread {t['tid']} @ node {t['node']}: "
                         "finished")
            continue
        desc = (f"  thread {t['tid']} @ node {t['node']}: "
                f"waiting on {t['waiting'] or '<runnable>'}")
        if t["kind"] and t["kind"] != "other":
            desc += f" [{t['kind']}"
            if t["resource"] is not None:
                desc += f" {t['resource']}"
            if t["kind"] == "barrier":
                desc += (f" gen {t.get('wait_epoch')}; "
                         f"thread epoch {t.get('thread_epoch')}, "
                         f"node done {t.get('node_done')}")
            desc += "]"
        owner = t.get("owner")
        if owner:
            if "tid" in owner:
                desc += (f" held by thread {owner['tid']} "
                         f"@ node {owner['node']}")
            else:
                desc += (f" busy with release of thread(s) "
                         f"{owner['tids']} @ node {owner['node']}")
        if "home" in t:
            desc += f" (page home: node {t['home']})"
        lines.append(desc)
    for node, fls in sorted(graph["inflight"].items()):
        for fl in fls:
            lines.append(
                f"  in-flight release: node {node} tid {fl['tid']} "
                f"seq={fl['seq']} stage={fl['stage']} "
                f"lock={fl['lock']} pages={fl['pages']}")
    for b in graph["barriers"]:
        lines.append(f"  barrier {b['barrier']}: arrived nodes "
                     f"{b['arrived']}, missing {b['missing']}")
    for node, depth in sorted(graph["nic_queues"].items()):
        if depth:
            lines.append(f"  nic queue: node {node} has {depth} "
                         "message(s) pending")
    if graph["cycle"]:
        chain = " -> ".join(f"t{t}" for t in graph["cycle"])
        lines.append(f"  CYCLE: {chain}  (deadlock)")
    return "\n".join(lines)


#: Stall reports one watchdog prints at most.
MAX_DUMPS = 8


class StallWatchdog:
    """Fires :func:`build_waitfor` when the hook stream goes quiet.

    ``horizon_us`` is the zero-progress window; the check runs every
    horizon / 4. Dumps (at most :data:`MAX_DUMPS`) go to stderr, into
    ``self.dumps``, and -- when a
    :class:`~repro.obs.recorder.FlightRecorder` is supplied -- onto the
    trace timeline as a global "stall detected" instant carrying the
    full report.
    """

    def __init__(self, runtime, horizon_us: float = 20_000.0,
                 recorder=None) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.horizon_us = horizon_us
        self.recorder = recorder
        self.dumps: List[str] = []
        self.graphs: List[dict] = []
        self._last_progress = 0.0
        self._in_stall = False
        self._started = self._detached = False
        self._lock_holders: Dict[int, Tuple[int, int]] = {}
        self._tap = runtime.cluster.hooks.tap(FULL_EVENTS, self._progress)

    def _progress(self, name: str, node_id: int, info: dict) -> None:
        instrumentation.bump("watchdog")
        self._last_progress = self.engine.now
        self._in_stall = False
        if name == Hooks.LOCK_ACQUIRED and "lock" in info and "tid" in info:
            self._lock_holders[info["lock"]] = (node_id, info["tid"])
        elif name == Hooks.LOCK_RELEASED and "lock" in info:
            self._lock_holders.pop(info["lock"], None)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._last_progress = self.engine.now
        metronome(self.engine, self.horizon_us / 4.0, self._check)

    def detach(self) -> None:
        """Stop watching. A metronome cannot be unarmed, so the ticks
        still to come return at once."""
        self.runtime.cluster.hooks.untap(self._tap)
        self._detached = True

    def _check(self) -> None:
        if self._detached:
            return
        instrumentation.bump("watchdog")
        if self.engine.now - self._last_progress < self.horizon_us:
            return
        if self._in_stall or len(self.dumps) >= MAX_DUMPS:
            return  # one dump per stall episode
        self._in_stall = True
        graph = build_waitfor(self.runtime, self._lock_holders)
        report = format_waitfor(graph, horizon_us=self.horizon_us)
        self.graphs.append(graph)
        self.dumps.append(report)
        print(report, file=sys.stderr)
        if self.recorder is not None:
            blocked = [t["tid"] for t in graph["threads"]
                       if not t["finished"]]
            self.recorder.note(STALL, self.runtime.config.num_nodes,
                               blocked=blocked, report=report[:4000])
