"""Randomized SPMD programs for protocol model-checking.

A :class:`RandomProgram` is a reproducible, seed-generated parallel
program built from the primitives whose interactions the protocols
must get right:

* owner writes (pure, idempotent) to per-thread blocks;
* lock-protected read-modify-writes on shared counters (the
  non-idempotent case that stresses checkpoint/replay);
* cross-thread reads after barriers;
* compute delays that shift interleavings.

The generator also computes the program's *expected final memory*
analytically, so any run -- base or extended protocol, failure-free or
under a random fault plan -- is verified bit-exactly. Combined with
hypothesis over (program seed, cluster seed, fault plan), this is a
randomized model check of the whole stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Action kinds within a phase.
OWN_WRITE = "own_write"
RMW = "rmw"
READ = "read"
COMPUTE = "compute"
#: Write to this thread's byte-slice of a page every thread writes --
#: false sharing, exercising diff merging and the pending-diff rebase.
SHARED_WRITE = "shared_write"


@dataclass(frozen=True)
class Action:
    kind: str
    #: OWN_WRITE: (block_slot, value); RMW: (counter, lock, amount);
    #: READ: (block owner tid, slot); COMPUTE: (microseconds,).
    args: Tuple


class RandomProgram(Workload):
    """A generated phase-structured SPMD program."""

    name = "randomprog"

    def __init__(self, program_seed: int = 1, phases: int = 4,
                 actions_per_phase: int = 5, counters: int = 4,
                 slots_per_thread: int = 8,
                 nthreads_hint: int = 4) -> None:
        self.program_seed = program_seed
        self.phases = phases
        self.actions_per_phase = actions_per_phase
        self.ncounters = counters
        self.slots = slots_per_thread
        self.nthreads_hint = nthreads_hint
        self.counters_seg = None
        self.blocks_seg = None
        self._programs: Dict[int, Tuple[Tuple[Action, ...], ...]] = {}

    _ITEM = 8

    def counter_lock(self, counter: int) -> int:
        return 1 + counter

    # -- program generation ----------------------------------------------------

    def thread_program(self, tid: int) -> Tuple[Tuple[Action, ...], ...]:
        """The per-thread actions, one tuple per phase.

        Deterministic in (program_seed, tid), so the kernel, the
        verifier, every cross-thread READ check and any migrated
        resumption of the thread see the same program: generated once
        per instance and shared, hence tuples.
        """
        program = self._programs.get(tid)
        if program is None:
            program = self._programs[tid] = tuple(
                tuple(actions) for actions in self._generate(tid))
        return program

    def _generate(self, tid: int) -> List[List[Action]]:
        rng = random.Random(self.program_seed * 7919 + tid)
        program: List[List[Action]] = []
        for phase in range(self.phases):
            actions: List[Action] = []
            for index in range(rng.randint(1, self.actions_per_phase)):
                kind = rng.choices(
                    (OWN_WRITE, RMW, READ, COMPUTE, SHARED_WRITE),
                    weights=(3, 3, 2, 2, 2))[0]
                if kind == OWN_WRITE:
                    slot = rng.randrange(self.slots)
                    value = rng.randrange(1, 1 << 30)
                    actions.append(Action(OWN_WRITE, (slot, value)))
                elif kind == RMW:
                    counter = rng.randrange(self.ncounters)
                    amount = rng.randrange(1, 100)
                    actions.append(Action(RMW, (counter, amount)))
                elif kind == READ:
                    owner = rng.randrange(self.nthreads_hint)
                    slot = rng.randrange(self.slots)
                    actions.append(Action(READ, (owner, slot)))
                elif kind == COMPUTE:
                    actions.append(Action(COMPUTE,
                                          (rng.uniform(1.0, 15.0),)))
                else:
                    value = rng.randrange(1, 256)
                    actions.append(Action(SHARED_WRITE, (value,)))
            program.append(actions)
        return program

    # -- allocation ------------------------------------------------------------

    def setup(self, runtime) -> None:
        total = runtime.config.total_threads
        if total != self.nthreads_hint:
            raise ApplicationError(
                f"program generated for {self.nthreads_hint} threads, "
                f"cluster has {total}")
        self.counters_seg = runtime.alloc(
            "rand_counters", self.ncounters * self._ITEM, home=0)
        self.blocks_seg = runtime.alloc(
            "rand_blocks", total * self.slots * self._ITEM, home="block")
        # One page written by every thread in disjoint byte slices.
        self.shared_seg = runtime.alloc(
            "rand_shared", runtime.config.page_size, home=0)

    def _counter_addr(self, counter: int) -> int:
        return self.counters_seg.addr(counter * self._ITEM)

    def _slot_addr(self, tid: int, slot: int) -> int:
        return self.blocks_seg.addr(
            (tid * self.slots + slot) * self._ITEM)

    def _shared_slice(self, tid: int, nthreads: int) -> tuple:
        width = self.shared_seg.size_bytes // nthreads
        return self.shared_seg.addr(tid * width), width

    # -- kernel ------------------------------------------------------------------

    def init_kernel(self, ctx: AppContext):
        # Progress markers: a checkpoint-restored thread must not
        # re-run initialization writes it already performed. The zero
        # writes are idempotent against *initial* memory, but a replay
        # after other threads have published real values would wipe
        # them (a restored tid 0 re-zeroing the counters page destroys
        # every RMW committed since -- a lost-update divergence).
        if ctx.tid == 0 and ctx.pending("init_counters"):
            zeros = np.zeros(self.ncounters, dtype=np.int64)
            yield from ctx.svm.write_array(self._counter_addr(0), zeros)
            ctx.done("init_counters")
        if ctx.pending("init_slots"):
            zeros = np.zeros(self.slots, dtype=np.int64)
            yield from ctx.svm.write_array(self._slot_addr(ctx.tid, 0),
                                           zeros)
            ctx.done("init_slots")
        return None

    def kernel(self, ctx: AppContext):
        program = self.thread_program(ctx.tid)
        for phase in ctx.range("phase", self.phases):
            actions = program[phase]
            for index in ctx.range(("act", phase), len(actions)):
                action = actions[index]
                if action.kind == OWN_WRITE:
                    slot, value = action.args
                    yield from ctx.svm.write_i64(
                        self._slot_addr(ctx.tid, slot), value)
                elif action.kind == RMW:
                    counter, amount = action.args
                    lock = self.counter_lock(counter)
                    yield from ctx.svm.acquire(lock)
                    current = yield from ctx.svm.read_i64(
                        self._counter_addr(counter))
                    yield from ctx.svm.write_i64(
                        self._counter_addr(counter), current + amount)
                    # RMW replay contract: advance before the release.
                    ctx.state[("act", phase)] = index + 1
                    yield from ctx.svm.release(lock)
                elif action.kind == SHARED_WRITE:
                    value = action.args[0]
                    addr, width = self._shared_slice(ctx.tid,
                                                     ctx.nthreads)
                    yield from ctx.svm.write(
                        addr, bytes([value]) * min(width, 32))
                elif action.kind == READ:
                    owner, slot = action.args
                    value = yield from ctx.svm.read_i64(
                        self._slot_addr(owner, slot))
                    self._check_read(ctx.tid, phase, owner, slot, value)
                else:
                    yield from ctx.svm.compute(action.args[0])
            yield from ctx.barrier(self.BARRIER_A, key=phase)
        return None

    # -- verification ----------------------------------------------------------------

    def _expected_slots_after_phase(self, nthreads: int,
                                    upto_phase: int
                                    ) -> Dict[Tuple[int, int], int]:
        """Slot values once every thread finished phases < upto_phase."""
        values: Dict[Tuple[int, int], int] = {}
        for tid in range(nthreads):
            program = self.thread_program(tid)
            for phase in range(min(upto_phase, self.phases)):
                for action in program[phase]:
                    if action.kind == OWN_WRITE:
                        slot, value = action.args
                        values[(tid, slot)] = value
        return values

    def _check_read(self, reader: int, phase: int, owner: int,
                    slot: int, value: int) -> None:
        """Cross-thread reads must observe the owner's last write from
        any *completed* phase (phases are barrier-separated; the owner
        may also have overwritten the slot in the current phase)."""
        legal = {0}
        published = self._expected_slots_after_phase(
            self.nthreads_hint, phase)
        if (owner, slot) in published:
            legal = {published[(owner, slot)]}
        # Values from the owner's current, un-barriered phase are also
        # legal (the reader may race ahead within the phase only for
        # its own slots; for others the protocol may legitimately show
        # the newer value once propagated).
        for action in self.thread_program(owner)[phase]:
            if action.kind == OWN_WRITE and action.args[0] == slot:
                legal.add(action.args[1])
        if value not in legal:
            raise ApplicationError(
                f"thread {reader} phase {phase} read slot "
                f"({owner},{slot}) = {value}, legal {legal}")

    def verify(self, runtime) -> None:
        total = runtime.config.total_threads
        # Counters: the sum of every generated RMW amount.
        expected = np.zeros(self.ncounters, dtype=np.int64)
        for tid in range(total):
            for actions in self.thread_program(tid):
                for action in actions:
                    if action.kind == RMW:
                        counter, amount = action.args
                        expected[counter] += amount
        got = runtime.debug_read_array(self._counter_addr(0), np.int64,
                                       self.ncounters)
        if not np.array_equal(got, expected):
            raise ApplicationError(
                f"counters {got.tolist()} != expected "
                f"{expected.tolist()} (an RMW was lost or doubled)")
        # Blocks: the last write of each slot across all phases.
        final = self._expected_slots_after_phase(total, self.phases)
        for (tid, slot), value in final.items():
            cell = runtime.debug_read_array(
                self._slot_addr(tid, slot), np.int64, 1)[0]
            if cell != value:
                raise ApplicationError(
                    f"slot ({tid},{slot}) = {cell} != {value}")
        # Falsely-shared page: each thread's slice holds its own last
        # shared write (diff merging must never leak across slices).
        for tid in range(total):
            last = None
            for actions in self.thread_program(tid):
                for action in actions:
                    if action.kind == SHARED_WRITE:
                        last = action.args[0]
            if last is None:
                continue
            addr, width = self._shared_slice(tid, total)
            got = runtime.debug_read(addr, min(width, 32))
            if got != bytes([last]) * min(width, 32):
                raise ApplicationError(
                    f"false-shared slice of thread {tid} corrupted: "
                    f"expected {last}, got {got[:4].hex()}...")
