"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without catching programming errors.
Simulation-internal control-flow exceptions (process kill) are
deliberately *not* part of this hierarchy: they must never be swallowed
by application-level ``except ReproError`` handlers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A discrete-event simulation invariant was violated."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class NetworkError(ReproError):
    """Base class for communication-layer failures."""


class RemoteNodeFailure(NetworkError):
    """A communication operation failed because the peer node is down.

    Mirrors the VMMC contract from the paper (section 4.1): once an
    operation to a node returns this error, every subsequent operation to
    that node is also guaranteed to fail with it.
    """

    def __init__(self, node_id: int, detail: str = "") -> None:
        self.node_id = node_id
        msg = f"remote node {node_id} has failed"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class MemoryError_(ReproError):
    """A paged-memory invariant was violated (bad address, bad state)."""


class ProtocolError(ReproError):
    """The SVM protocol reached an inconsistent state."""


class RecoveryError(ProtocolError):
    """Recovery could not restore a consistent system state."""


class UnrecoverableFailure(RecoveryError):
    """A failure occurred that the protocol cannot tolerate.

    Raised, for example, when a second node fails while recovery from a
    first failure is still in progress (the paper tolerates multiple
    failures only if they are not simultaneous), or when a node fails
    while running the non-fault-tolerant base protocol.
    """


class ApplicationError(ReproError):
    """An application kernel produced an incorrect or impossible result."""
