"""Application-facing shared-memory API.

A :class:`SvmThread` is what an application kernel sees: shared-memory
reads/writes, lock acquire/release, barriers, and a ``compute`` call
charging modelled CPU time. All methods are generators (run under the
simulation); the typed helpers move numpy arrays in and out of shared
pages so kernels can do real arithmetic on real shared data.

Time accounting happens here: each operation pushes its coarse category
(LOCK, BARRIER; page faults push DATA_WAIT inside the agent), so the
per-thread clock can reproduce both of the paper's breakdown formats.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics import Category, ThreadClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.agent import SvmNodeAgent

#: Little-endian scalar codecs; identical wire bytes to
#: ``np.int64(v).tobytes()`` / ``np.float64(v).tobytes()`` on the
#: little-endian hosts this runs on, without the numpy scalar boxing.
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class SvmThread:
    """One application compute thread bound to a node agent."""

    def __init__(self, agent: "SvmNodeAgent", thread_id: int,
                 clock: ThreadClock) -> None:
        self.agent = agent
        self.thread_id = thread_id
        self.clock = clock

    def rebind(self, agent: "SvmNodeAgent") -> None:
        """Recovery: the thread now executes on a different node."""
        self.agent = agent

    # -- compute ------------------------------------------------------------

    def compute(self, us: float):
        """Charge ``us`` microseconds of application CPU time."""
        if us > 0:
            yield us
        return None

    # -- shared memory ------------------------------------------------------
    #
    # ``read`` / ``write`` are the agent's page walk; the typed
    # accessors are codecs over them.

    def read(self, addr: int, size: int):
        """Generator returning ``size`` bytes of shared memory."""
        return (yield from self.agent.read(self, addr, size))

    def write(self, addr: int, data):
        """Generator writing ``data`` (any contiguous bytes-like
        object) into shared memory."""
        return (yield from self.agent.write(self, addr, data))

    def read_array(self, addr: int, dtype, count: int):
        """Generator returning a numpy array copied out of shared memory."""
        dtype = np.dtype(dtype)
        raw = yield from self.agent.read(self, addr, dtype.itemsize * count)
        return np.frombuffer(raw, dtype=dtype).copy()

    def write_array(self, addr: int, array) -> object:
        """Generator writing a numpy array into shared memory."""
        arr = np.atleast_1d(np.ascontiguousarray(array))
        return (yield from self.agent.write(self, addr, arr.data))

    def read_i64(self, addr: int):
        return _I64.unpack((yield from self.agent.read(self, addr, 8)))[0]

    def write_i64(self, addr: int, value: int):
        return (yield from self.agent.write(self, addr, _I64.pack(value)))

    def read_f64(self, addr: int):
        return _F64.unpack((yield from self.agent.read(self, addr, 8)))[0]

    def write_f64(self, addr: int, value: float):
        return (yield from self.agent.write(self, addr, _F64.pack(value)))

    # -- synchronization -------------------------------------------------------------

    def acquire(self, lock_id: int):
        """Generator: acquire a shared lock (LRC acquire semantics)."""
        return self.clock.in_category(
            Category.LOCK, self.agent.acquire_op(self, lock_id))

    def release(self, lock_id: int):
        """Generator: release a shared lock (commits + propagates)."""
        return self.clock.in_category(
            Category.LOCK, self.agent.release_op(self, lock_id))

    def barrier(self, barrier_id: int, epoch=None):
        """Generator: global barrier (commit, all-to-all, invalidate).

        Application kernels should call ``ctx.barrier`` instead, which
        tracks the checkpointable ``epoch`` automatically.
        """
        return self.clock.in_category(
            Category.BARRIER, self.agent.barrier_op(self, barrier_id, epoch))
