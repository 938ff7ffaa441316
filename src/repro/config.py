"""Configuration and cost model for the simulated cluster.

All times are in **microseconds** of simulated time; all sizes in bytes.
Every latency, bandwidth, and CPU-occupancy constant of the cluster and
its protocols lives here so that calibration against the paper's
testbed (400 MHz Pentium-II SMPs, Myrinet/VMMC with ~8 us one-way
latency and ~100 MB/s effective bandwidth) is transparent; the
applications' compute costs live with each application in
:mod:`repro.apps`.

The values are calibrated so that the *relative* magnitudes of the
execution-time components in the paper's figures are reproduced; the
absolute milliseconds of a 2003 testbed are not a goal. A value that
no run varies is an upper-case constant; :class:`ClusterConfig` holds
only what runs set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


# -- communication (paper section 3.1) --------------------------------------

#: Host CPU cost to post an asynchronous send descriptor.
POST_OVERHEAD_US = 0.7
#: NIC occupancy per message (descriptor handling, DMA setup). The
#: paper's NIC-event-priority tuning maps to this constant.
NIC_PER_MESSAGE_US = 1.5
#: Size in bytes of a control-only message (requests, acks, notices).
CONTROL_MESSAGE_BYTES = 64


@dataclass(frozen=True)
class NetworkParams:
    """The Myrinet/VMMC parameters the paper's section 5.3 varies."""

    #: One-way end-to-end latency for a minimal message, in us. The paper
    #: reports ~8 us for VMMC on their Myrinet cluster.
    wire_latency_us: float = 8.0
    #: Effective point-to-point bandwidth in bytes per us (100 bytes/us
    #: = 100 MB/s, the order the paper cites as PCI-limited).
    bandwidth_bytes_per_us: float = 100.0
    #: Depth of the NIC post queue for asynchronous sends. When full, the
    #: posting processor blocks until the queue drains -- the contention
    #: effect the paper highlights at release points.
    post_queue_depth: int = 32

    def __post_init__(self) -> None:
        _require(self.wire_latency_us >= 0, "wire_latency_us must be >= 0")
        _require(self.bandwidth_bytes_per_us > 0, "bandwidth must be > 0")
        _require(self.post_queue_depth >= 1, "post_queue_depth must be >= 1")

    def transfer_time_us(self, size_bytes: int) -> float:
        """Serialization time of ``size_bytes`` on the wire."""
        return size_bytes / self.bandwidth_bytes_per_us


# -- node memory system -------------------------------------------------------

#: Local memory-copy bandwidth in bytes/us (twin creation, local
#: fetches of committed copies, checkpoint buffer copies).
COPY_BANDWIDTH_BYTES_PER_US = 400.0
#: Aggregate memory-bus bandwidth in bytes/us shared by all
#: processors and DMA within one SMP node. The paper attributes
#: compute-time dilation under the extended protocol to exactly
#: this contention.
BUS_BANDWIDTH_BYTES_PER_US = 800.0


def copy_time_us(size_bytes: int) -> float:
    return size_bytes / COPY_BANDWIDTH_BYTES_PER_US


# -- CPU costs of protocol operations ----------------------------------------
#
# The host-side instruction costs of the SVM protocol on a 400 MHz
# processor; communication costs are above.

#: Fixed cost of entering the page-fault handler (trap + dispatch).
PAGE_FAULT_HANDLER_US = 4.0
#: Per-byte cost of the word-by-word twin comparison when computing
#: a diff (~2 cycles/word at 400 MHz ~= 0.0025 us/byte).
DIFF_COMPUTE_PER_BYTE_US = 0.0025
#: Fixed cost per diff computation (setup, scan bookkeeping).
DIFF_COMPUTE_BASE_US = 2.0
#: Per-byte cost of applying a received diff at a home copy.
DIFF_APPLY_PER_BYTE_US = 0.0015
#: Cost of invalidating one page (page-table update + TLB shootdown).
INVALIDATE_PER_PAGE_US = 1.0
#: Cost of creating/processing one write notice.
WRITE_NOTICE_PER_ENTRY_US = 0.3
#: Cost of committing one page into the interval record at release.
COMMIT_PER_PAGE_US = 0.4
#: Fixed protocol cost of a release operation (timestamps, tables).
RELEASE_BASE_US = 3.0
#: Fixed protocol cost of an acquire operation.
ACQUIRE_BASE_US = 3.0
#: Host cost of one lock-algorithm iteration (build request/poll).
LOCK_OP_US = 1.0
#: Backoff window for the centralized polling lock: initial and max.
LOCK_BACKOFF_MIN_US = 2.0
LOCK_BACKOFF_MAX_US = 64.0
#: Fixed per-thread cost of saving a checkpoint (context capture).
CHECKPOINT_BASE_US = 5.0
#: Bytes added to every checkpoint's accounted size, modelling the
#: native thread stack the paper ships (2-2.8 KB); our explicit
#: kernel state is far smaller, so this constant can restore the
#: paper's checkpoint volume without changing semantics.
CHECKPOINT_STACK_BYTES = 0
#: Per-byte cost of serializing checkpoint state locally.
CHECKPOINT_PER_BYTE_US = 0.004
#: Cost to suspend/resume a peer thread at checkpoint point A.
THREAD_SUSPEND_US = 2.0
#: Barrier manager per-arrival processing cost.
BARRIER_PER_NODE_US = 1.0
#: Heart-beat timeout: how long a node spins on an expected remote
#: response before probing the peer (paper section 4.1).
HEARTBEAT_TIMEOUT_US = 500.0
#: Cost of the page-lock bookkeeping per page (FT protocol, Fig 4).
PAGE_LOCK_US = 0.2


def diff_compute_us(page_size: int) -> float:
    return DIFF_COMPUTE_BASE_US + DIFF_COMPUTE_PER_BYTE_US * page_size


def diff_apply_us(diff_bytes: int) -> float:
    return DIFF_APPLY_PER_BYTE_US * diff_bytes


def checkpoint_us(state_bytes: int) -> float:
    return CHECKPOINT_BASE_US + CHECKPOINT_PER_BYTE_US * state_bytes


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs selecting protocol variants and FT behaviour."""

    #: "base" = original GeNIMA; "ft" = extended fault-tolerant protocol.
    variant: str = "base"
    #: "polling" (centralized, stateless -- the paper's final choice) or
    #: "queueing" (distributed queue lock). Section 5.2 uses polling on
    #: both sides for fairness; we default to that.
    lock_algorithm: str = "polling"
    #: FT only: serialize concurrent releases within an SMP node
    #: (required by non-overlapping checkpointing, section 4.4).
    serialize_releases: bool = True
    #: FT only: take remote checkpoints at points A and B.
    checkpointing: bool = True
    #: FT only: aggregate a release's diffs into one message per
    #: destination home ("sending fewer and larger messages" -- the
    #: paper's section 6 optimization for NIC post-queue contention).
    batch_diffs: bool = False

    def __post_init__(self) -> None:
        _require(self.variant in ("base", "ft"),
                 f"unknown protocol variant {self.variant!r}")
        _require(self.lock_algorithm in ("polling", "queueing"),
                 f"unknown lock algorithm {self.lock_algorithm!r}")

    @property
    def is_ft(self) -> bool:
        return self.variant == "ft"


@dataclass(frozen=True)
class ClusterConfig:
    """Top-level configuration for one simulated cluster run."""

    num_nodes: int = 8
    threads_per_node: int = 1
    #: Shared address-space size in pages.
    shared_pages: int = 2048
    #: Number of application lock variables available.
    num_locks: int = 8192
    seed: int = 12345
    #: Virtual-memory page size; the SVM coherence unit.
    page_size: int = 4096
    network: NetworkParams = field(default_factory=NetworkParams)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1, "num_nodes must be >= 1")
        _require(self.threads_per_node >= 1, "threads_per_node must be >= 1")
        _require(self.shared_pages >= 1, "shared_pages must be >= 1")
        _require(self.page_size >= 64, "page_size must be >= 64")
        _require(self.page_size & (self.page_size - 1) == 0,
                 "page_size must be a power of two")
        if self.protocol.is_ft:
            _require(self.num_nodes >= 2,
                     "the fault-tolerant protocol needs >= 2 nodes "
                     "(replicas must live on distinct nodes)")

    @property
    def total_threads(self) -> int:
        return self.num_nodes * self.threads_per_node

    def with_protocol(self, variant: str, **overrides) -> "ClusterConfig":
        """A copy of this config running a different protocol variant."""
        proto = replace(self.protocol, variant=variant, **overrides)
        return replace(self, protocol=proto)
