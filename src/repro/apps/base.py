"""Application kernel framework.

Kernels are SPMD generator functions running one per thread against the
:class:`~repro.protocol.api.SvmThread` API. To support the paper's
thread migration (section 4.4) without native stack snapshots, kernels
keep all control-flow state that must survive a failure in an explicit,
checkpointable ``ctx.state`` dict, using the resumable helpers below.

The contract: re-invoking ``kernel(ctx)`` with a ``ctx.state`` captured
at any point must deterministically replay the un-checkpointed suffix.
This is exactly the guarantee the paper's rollback needs -- no shared
write performed after the last checkpoint was propagated, so replaying
those writes (with identical values) is safe.

**Non-idempotent (read-modify-write) shared updates** need one extra
rule. The protocol checkpoints thread state at every release and
propagates all writes performed up to that release; a replayed RMW
would re-read its own propagated result and apply the modification
twice. Kernels therefore must advance their persistent continuation
*atomically with* the final shared write of a critical section, before
the release::

    for i in ctx.range("i", n):
        yield from ctx.svm.acquire(lock)
        v = yield from ctx.svm.read_i64(addr)
        yield from ctx.svm.write_i64(addr, v + 1)
        ctx.state["i"] = i + 1          # <- before the release
        yield from ctx.svm.release(lock)

(The assignment runs in the same scheduler step as the write's
completion, so a checkpoint can never observe the write without the
advanced continuation. Pure writes -- values computed from other data
-- are idempotent under replay and need no advance; this mirrors the
paper's exact-stack checkpoint at points A/B, where the saved context
always matches the propagated updates.) Corollaries: a release should
be the last shared operation of its loop body, and one-shot phases
should call ``ctx.done(...)`` before the barrier that publishes them.

Helpers:

* ``for i in ctx.range("i", n):`` -- a loop whose index persists in
  ``ctx.state["i"]``; restored threads continue from the saved index.
  On completion the counter parks at ``stop``: a loop name identifies
  one dynamic loop instance, so inner loops embed the outer index in
  their name (see :meth:`AppContext.range`).
* ``if ctx.pending("init"): ...; ctx.done("init")`` -- one-shot phase
  guard; the marker is set only after the block completes.
* ``yield from ctx.barrier(bid, key=...)`` -- replay-safe barriers;
  the key identifies the dynamic call instance (mandatory in loops).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.errors import ApplicationError
from repro.protocol.api import SvmThread

#: The barrier id the runtime reserves for its init/timed-region split;
#: workloads use ids 0 .. INIT_BARRIER - 1.
INIT_BARRIER = 7


class AppContext:
    """Per-thread execution context handed to kernels."""

    def __init__(self, svm: SvmThread, tid: int, nthreads: int,
                 state: Optional[Dict[str, Any]] = None) -> None:
        self.svm = svm
        self.tid = tid
        self.nthreads = nthreads
        #: Checkpointable kernel state. Everything a kernel needs to
        #: resume after migration must live here.
        self.state: Dict[str, Any] = state if state is not None else {}

    # -- resumable control flow ------------------------------------------------

    def range(self, name, stop: int, start: int = 0) -> Iterator[int]:
        """A loop counter that persists across checkpoints.

        The live index is ``ctx.state[name]``; on completion it stays
        at ``stop`` so a checkpoint taken *after* the loop never causes
        a replay to redo propagated iterations (read-modify-write
        loops would double-apply).

        Consequence: a loop name identifies one *dynamic loop
        instance*. An inner loop executed once per outer iteration
        must embed the outer index in its name::

            for r in ctx.range("round", rounds):
                for m in ctx.range(("mol", r), n):   # unique per round
                    ...

        (Alternatively call ``ctx.reset(name)`` at the top of the
        outer body -- safe there because the reset is synchronous with
        body entry -- but per-instance names are preferred; stale
        counters of finished instances are just small state entries.)
        """
        i = self.state.get(name, start)
        while i < stop:
            yield i
            i += 1
            self.state[name] = i
        self.state[name] = max(i, stop)

    def pending(self, name: str) -> bool:
        """True until :meth:`done` is called for ``name``."""
        return not self.state.get(("done", name), False)

    def done(self, name: str) -> None:
        self.state[("done", name)] = True

    def reset(self, name: str) -> None:
        """Clear a phase marker or loop counter."""
        self.state.pop(name, None)
        self.state.pop(("done", name), None)

    def barrier(self, barrier_id: int, key=None):
        """Generator: replay-safe global barrier.

        Two pieces of persistent state make barrier re-execution after
        a migration correct:

        * a per-barrier *epoch counter* (how many generations of this
          barrier id this thread has completed) -- the protocol uses it
          to let stale re-arrivals at already-completed generations
          pass through;
        * a per-*dynamic-instance* done marker keyed by ``key`` -- a
          replayed kernel that re-reaches a barrier call whose instance
          already completed before the checkpoint skips it entirely
          (otherwise the re-call would consume a *future* epoch and
          wait for a generation nobody else will join).

        ``key`` must uniquely identify the call instance within the
        kernel: pass the loop indices for barriers inside loops
        (``ctx.barrier(B, key=step)``). When ``key`` is omitted the
        barrier id itself is the key, which is only correct for a
        barrier id used by **at most one call per kernel run** --
        never omit the key inside a loop.

        Workload barrier ids are 0 .. ``INIT_BARRIER - 1``; any other id
        raises :class:`ApplicationError` (id ``INIT_BARRIER`` would share
        the runtime's init barrier and be skipped as already done).
        """
        if not 0 <= barrier_id < INIT_BARRIER:
            raise ApplicationError(
                f"barrier id {barrier_id} is outside the workload range "
                f"0..{INIT_BARRIER - 1}")
        return self.runtime_barrier(barrier_id, key)

    def runtime_barrier(self, barrier_id: int, key=None):
        """Generator: :meth:`barrier` without the id check -- the
        runtime's own path to :data:`INIT_BARRIER`."""
        count_key = ("__bar__", barrier_id)
        done_key = ("__bardone__", barrier_id,
                    key if key is not None else "@once")
        if self.state.get(done_key):
            return None  # this dynamic instance completed pre-checkpoint
        epoch = self.state.get(count_key, 0)
        yield from self.svm.barrier(barrier_id, epoch)
        self.state[done_key] = True
        self.state[count_key] = epoch + 1
        return None


class Workload:
    """Base class for application workloads.

    Subclasses define:

    * :meth:`setup` -- allocate shared segments and record addresses
      (runs at host level before the simulation starts);
    * :meth:`init_kernel` -- per-thread initialization (data population,
      first-touch placement). Runs before the timed region.
    * :meth:`kernel` -- the timed SPMD computation.
    * :meth:`verify` -- check the final shared-memory contents; raise
      :class:`ApplicationError` on any mismatch. This is what makes
      fault-injection runs falsifiable.
    """

    #: Human-readable name (matches the paper's figures).
    name = "workload"
    #: Barrier ids 0..6 are free for workloads; the runtime reserves
    #: id 7 (:data:`INIT_BARRIER`).
    BARRIER_A = 0
    BARRIER_B = 1
    BARRIER_C = 2

    def setup(self, runtime) -> None:
        raise NotImplementedError

    def init_kernel(self, ctx: AppContext):
        """Default: no initialization phase."""
        return None
        yield  # pragma: no cover

    def kernel(self, ctx: AppContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def verify(self, runtime) -> None:
        """Default: nothing to check."""

