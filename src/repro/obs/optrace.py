"""Causal cross-node operation tracing.

Every logical protocol operation -- a page-fault fetch, a global lock
acquire, a barrier, a diff propagation phase, a checkpoint, a recovery
wave -- is minted an **operation id** at the protocol layer and carried
on every message the operation sends (inside the modelled 32-byte NIC
header, so wire accounting is unchanged). The NIC and VMMC layers stamp
**hops** against that id:

``send``
    a message carrying the id was posted (VMMC post, or a NIC-built
    fetch/service reply),
``recv``
    the message was dispatched at its destination,
``svc_begin`` / ``svc_end``
    the service-request handler window at the serving node,
``applied``
    a generator NOTIFY handler finished -- the diff-apply path, so the
    span from ``recv`` to ``applied`` is the remote apply cost.

From those hops :class:`OpTracer` reconstructs each operation as a
**causal tree**: messages pair up by message id (send -> recv = wire
time), service windows hang off the request message that triggered
them, and any message sent from inside an open service window nests
under that window. The tree is renderable as text (:meth:`OpTracer.render`;
``repro report`` shows the worst of each class),
exportable as canonical JSON (:meth:`OpTracer.to_dict` /
:meth:`OpTracer.digest` -- deterministic: message ids are normalized to
per-operation dense indices so process history never leaks in), and
linkable into a flight-recorder export as Chrome/Perfetto **flow
events** (:meth:`OpTracer.iter_flow_events`, ``ph``: ``s``/``f``),
yielded by the same walk that leaves the digest behind.

Zero-cost when off: the tracer attaches itself as ``cluster.optrace``
and ``nic.optrace``; both default to ``None`` and every touch point is
gated on ``msg.op is not None`` (always None with no tracer attached),
so an untraced run executes no code from this module --
:mod:`repro.obs.instrumentation` counts every invocation to prove it.

Latency is not the tracer's: every operation is timed whether or not
a tracer is attached, into the run's one registry
(``SvmRuntime.latency``, also reachable as :attr:`OpTracer.metrics`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.metrics.trace import canonical_json
from repro.obs import instrumentation


#: Causal trees encoded at a time for the digest.
_HASH_BATCH = 64

#: Hop kinds stamped against a message (the rest are service hops).
_MESSAGE_HOPS = frozenset(("send", "recv", "applied"))


class _Op:
    """One traced logical operation: identity plus its raw hop log."""

    __slots__ = ("op_id", "op_class", "node", "label", "start_us",
                 "end_us", "hops")

    def __init__(self, op_id: int, op_class: str, node: int, label: str,
                 start_us: float) -> None:
        self.op_id = op_id
        self.op_class = op_class
        self.node = node
        self.label = label
        self.start_us = start_us
        self.end_us: Optional[float] = None
        #: Flat tuples in capture order: ``(t, kind, node, msg_id,
        #: msg_kind, src, dst, wire_bytes)`` for a message hop,
        #: ``(t, kind, node, req_msg_id, service)`` for a service hop.
        self.hops: List[tuple] = []

    @property
    def duration_us(self) -> Optional[float]:
        if self.end_us is None:
            return None
        return self.end_us - self.start_us


class OpTracer:
    """Mints operation ids, collects hops, reconstructs causal trees.

    Attach before ``runtime.run()``; ids are minted from a monotonic
    counter driven purely by simulated event order, so the same seeded
    run always assigns the same ids (and :meth:`digest` is stable
    across hosts, job counts and sim cores).
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self._next_id = 1
        self._ops: Dict[int, _Op] = {}
        #: The digest as of the last walk (:meth:`iter_flow_events`;
        #: "" while one is under way); None again once anything is
        #: recorded.
        self._digest: Optional[str] = None
        #: Id of the first operation minted inside the timed region:
        #: it and every later one are what ``runtime.latency`` books.
        self._first_booked: Optional[int] = None
        #: The run's latency book (``runtime.latency``).
        self.metrics = runtime.latency
        cluster = runtime.cluster
        cluster.optrace = self
        for node in cluster.nodes:
            node.nic.optrace = self
        self._attached = True

    def detach(self) -> None:
        """Stop tracing: restore the None attach points."""
        if not self._attached:
            return
        cluster = self.runtime.cluster
        if cluster.optrace is self:
            cluster.optrace = None
        for node in cluster.nodes:
            if node.nic.optrace is self:
                node.nic.optrace = None
        self._attached = False

    def __len__(self) -> int:
        return len(self._ops)

    # ------------------------------------------------------------------
    # Recording (called from the protocol / NIC / VMMC layers)
    # ------------------------------------------------------------------

    def mint(self, op_class: str, node: int, label: str) -> int:
        instrumentation.bump("optrace")
        op_id = self._next_id
        self._next_id += 1
        if self._first_booked is None and self.runtime.timing_started:
            self._first_booked = op_id
        self._ops[op_id] = _Op(op_id, op_class, node, label,
                               self.engine.now)
        self._digest = None
        return op_id

    def finish(self, op_id: int) -> None:
        instrumentation.bump("optrace")
        op = self._ops[op_id]
        if op.end_us is None:
            op.end_us = self.engine.now
            self._digest = None

    def message_hop(self, kind: str, msg, node: int, t: float) -> None:
        """``kind``: ``send`` / ``recv`` / ``applied``."""
        instrumentation.bump("optrace")
        op = self._ops.get(msg.op)
        if op is not None:
            op.hops.append((t, kind, node, msg.msg_id, msg.kind,
                            msg.src, msg.dst, msg.wire_bytes))
            self._digest = None

    def service_hop(self, op_id: int, kind: str, node: int, t: float,
                    req_msg_id: Optional[int], service: str) -> None:
        """``kind``: ``svc_begin`` / ``svc_end``."""
        instrumentation.bump("optrace")
        op = self._ops.get(op_id)
        if op is not None:
            op.hops.append((t, kind, node, req_msg_id, service))
            self._digest = None

    # ------------------------------------------------------------------
    # Causal-tree reconstruction
    # ------------------------------------------------------------------

    def tree(self, op_id: int) -> dict:
        """Reconstruct the operation's causal tree.

        Returns a dict: op identity fields plus ``children`` -- message
        nodes (``kind``, ``src``/``dst``, ``msg`` normalized index,
        ``send_us``/``recv_us``/``wire_us``, optional ``apply_us``) that
        in turn may hold a ``service`` child (``svc_begin``/``svc_end``
        window) under which nested messages hang.
        """
        op = self._ops[op_id]
        norm = self._normalize_ids(op)

        msgs: Dict[int, dict] = {}
        order: List[int] = []
        services: List[dict] = []
        open_begin: Dict[Tuple[Optional[int], int], dict] = {}
        for hop in op.hops:
            kind = hop[1]
            if kind in _MESSAGE_HOPS:
                t, _, _, msg_id, mkind, src, dst, wire_bytes = hop
                rec = msgs.get(msg_id)
                if rec is None:
                    rec = {"msg": norm[msg_id], "kind": mkind,
                           "src": src, "dst": dst,
                           "wire_bytes": wire_bytes,
                           "send_us": None, "recv_us": None,
                           "children": []}
                    msgs[msg_id] = rec
                    order.append(msg_id)
                if kind == "send":
                    rec["send_us"] = t
                elif kind == "recv":
                    rec["recv_us"] = t
                else:
                    rec["apply_us"] = round(t - (rec["recv_us"] or t), 6)
                continue
            t, _, node, msg_id, service = hop
            if kind == "svc_begin":
                window = {"service": service, "node": node,
                          "begin_us": t, "end_us": None,
                          "req_msg": norm.get(msg_id),
                          "_req_msg_id": msg_id, "children": []}
                services.append(window)
                open_begin[(msg_id, node)] = window
            elif kind == "svc_end":
                window = open_begin.pop((msg_id, node), None)
                if window is not None:
                    window["end_us"] = t

        for rec in msgs.values():
            if rec["send_us"] is not None and rec["recv_us"] is not None:
                rec["wire_us"] = round(rec["recv_us"] - rec["send_us"], 6)
            else:
                rec["wire_us"] = None
        for window in services:
            if window["end_us"] is not None:
                window["service_us"] = round(
                    window["end_us"] - window["begin_us"], 6)
            else:
                window["service_us"] = None

        # Service windows hang off their request message.
        for window in services:
            parent = msgs.get(window.pop("_req_msg_id"))
            if parent is not None:
                parent["children"].append(window)

        # A message sent from inside an open service window nests under
        # it (innermost window wins); everything else is a root child.
        root_children: List[dict] = []
        for msg_id in order:
            rec = msgs[msg_id]
            t = rec["send_us"]
            best = None
            if t is not None:
                for window in services:
                    if (window["node"] == rec["src"]
                            and window["begin_us"] <= t
                            and (window["end_us"] is None
                                 or t <= window["end_us"])
                            and window.get("req_msg") != rec["msg"]):
                        if (best is None
                                or window["begin_us"] >= best["begin_us"]):
                            best = window
            if best is not None:
                best["children"].append(rec)
            else:
                root_children.append(rec)

        return {
            "op": op.op_id, "class": op.op_class, "node": op.node,
            "label": op.label, "start_us": op.start_us,
            "end_us": op.end_us,
            "duration_us": (round(op.duration_us, 6)
                            if op.duration_us is not None else None),
            "children": root_children,
        }

    @staticmethod
    def _normalize_ids(op: _Op) -> Dict[int, int]:
        """Global message ids -> dense per-op indices (first-seen
        order), so exports never depend on how many messages earlier
        runs in the same process sent."""
        norm: Dict[int, int] = {}
        for hop in op.hops:
            msg_id = hop[3]
            if msg_id is not None and msg_id not in norm:
                norm[msg_id] = len(norm)
        return norm

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def op_ids(self, op_class: Optional[str] = None) -> List[int]:
        return [op.op_id for op in self._ops.values()
                if op_class is None or op.op_class == op_class]

    def worst(self, n: int = 5,
              op_class: Optional[str] = None) -> List[int]:
        """The ``n`` slowest finished operations (optionally one
        class) of those the latency book counts -- begun inside the
        timed region -- ids ordered by duration descending (ties:
        minting order, so the result is deterministic)."""
        first = self._first_booked or self._next_id  # None: none booked
        finished = [op for op in self._ops.values()
                    if op.op_id >= first and op.end_us is not None
                    and (op_class is None or op.op_class == op_class)]
        finished.sort(key=lambda op: (-op.duration_us, op.op_id))
        return [op.op_id for op in finished[:n]]

    def op(self, op_id: int) -> _Op:
        return self._ops[op_id]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, op_id: int) -> str:
        """Text causal tree for one operation."""
        tree = self.tree(op_id)
        dur = tree["duration_us"]
        head = (f"op {tree['op']} [{tree['class']}] node {tree['node']} "
                f"\"{tree['label']}\"  start={tree['start_us']:.1f}us "
                + (f"dur={dur:.1f}us" if dur is not None
                   else "(unfinished)"))
        lines = [head]
        self._render_children(tree["children"], "", lines)
        return "\n".join(lines)

    def _render_children(self, children: List[dict], indent: str,
                         lines: List[str]) -> None:
        for i, child in enumerate(children):
            last = i == len(children) - 1
            branch = "`- " if last else "|- "
            cont = "   " if last else "|  "
            if "service" in child:
                svc = child["service_us"]
                text = (f"service {child['service']} @node"
                        f"{child['node']}  "
                        + (f"{svc:.1f}us" if svc is not None
                           else "(no end)"))
            else:
                wire = child["wire_us"]
                text = (f"{child['kind']} {child['src']}->"
                        f"{child['dst']} msg#{child['msg']}  "
                        + (f"wire {wire:.1f}us" if wire is not None
                           else "in flight"))
                if child.get("apply_us") is not None:
                    text += f"  apply {child['apply_us']:.1f}us"
            lines.append(indent + branch + text)
            self._render_children(child["children"], indent + cont, lines)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-able form: every operation's causal tree, in
        minting order. Deterministic for a seeded run (normalized
        message ids, simulated timestamps only)."""
        return {
            "num_ops": len(self._ops),
            "ops": [self.tree(op_id) for op_id in sorted(self._ops)],
        }

    def iter_flow_events(self) -> Iterator[dict]:
        """Chrome trace flow events (``ph`` ``s``/``f``) linking each
        traced message's send point to its receive point across node
        processes. Pass to ``FlightRecorder.export(counters=...)`` to
        overlay causal arrows on the flight-recorder timeline.

        This is the one walk a report needs: each causal tree is built
        once, yields its flow events and is hashed into ``to_dict()``'s
        canonical JSON with the next few (:data:`_HASH_BATCH`), then
        dropped. Once exhausted, the walk leaves :meth:`digest` behind
        unless something was recorded meanwhile."""
        self._digest = ""  # walking; anything recorded resets it to None
        sha = hashlib.sha256()
        sha.update(b'{"num_ops":%d,"ops":[' % len(self._ops))
        trees: List[dict] = []
        sep = ""
        flow_id = 0  # two events a flow, ids from 1
        for op_id in sorted(self._ops):
            tree = self.tree(op_id)
            trees.append(tree)
            if len(trees) == _HASH_BATCH:
                sha.update((sep + canonical_json(trees)[1:-1]).encode())
                sep, trees = ",", []
            name = f"{tree['class']} op {tree['op']}"
            stack = list(tree["children"])
            while stack:
                node = stack.pop(0)
                stack.extend(node["children"])
                if ("service" in node or node["send_us"] is None
                        or node["recv_us"] is None):
                    continue
                flow_id += 1
                yield {"ph": "s", "cat": "optrace", "name": name,
                       "id": flow_id, "pid": node["src"], "tid": 0,
                       "ts": node["send_us"]}
                yield {"ph": "f", "bp": "e", "cat": "optrace",
                       "name": name, "id": flow_id, "pid": node["dst"],
                       "tid": 0, "ts": node["recv_us"]}
        if trees:
            sha.update((sep + canonical_json(trees)[1:-1]).encode())
        sha.update(b"]}")
        if self._digest == "":
            self._digest = sha.hexdigest()

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """sha256 over the canonical serialization -- the determinism
        fingerprint for causal traces (same seeds => same digest,
        regardless of host, job count or sim core)."""
        if not self._digest:
            for _ in self.iter_flow_events():
                pass
        return self._digest

    def flow_events(self) -> List[dict]:
        """:meth:`iter_flow_events` as one list."""
        return list(self.iter_flow_events())
