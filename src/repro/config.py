"""Configuration and cost model for the simulated cluster.

All times are in **microseconds** of simulated time; all sizes in bytes.
Every latency, bandwidth, and CPU-occupancy constant used anywhere in
the simulator lives here so that calibration against the paper's
testbed (400 MHz Pentium-II SMPs, Myrinet/VMMC with ~8 us one-way
latency and ~100 MB/s effective bandwidth) is transparent.

The defaults are calibrated so that the *relative* magnitudes of the
execution-time components in the paper's figures are reproduced; the
absolute milliseconds of a 2003 testbed are not a goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class NetworkParams:
    """Myrinet/VMMC communication-layer parameters (paper section 3.1)."""

    #: One-way end-to-end latency for a minimal message, in us. The paper
    #: reports ~8 us for VMMC on their Myrinet cluster.
    wire_latency_us: float = 8.0
    #: Effective point-to-point bandwidth in bytes per us (100 bytes/us
    #: = 100 MB/s, the order the paper cites as PCI-limited).
    bandwidth_bytes_per_us: float = 100.0
    #: Host CPU cost to post an asynchronous send descriptor.
    post_overhead_us: float = 0.7
    #: NIC occupancy per message (descriptor handling, DMA setup). The
    #: paper's NIC-event-priority tuning maps to this constant.
    nic_per_message_us: float = 1.5
    #: Depth of the NIC post queue for asynchronous sends. When full, the
    #: posting processor blocks until the queue drains -- the contention
    #: effect the paper highlights at release points.
    post_queue_depth: int = 32
    #: Size in bytes of a control-only message (requests, acks, notices).
    control_message_bytes: int = 64

    def __post_init__(self) -> None:
        _require(self.wire_latency_us >= 0, "wire_latency_us must be >= 0")
        _require(self.bandwidth_bytes_per_us > 0, "bandwidth must be > 0")
        _require(self.post_queue_depth >= 1, "post_queue_depth must be >= 1")

    def transfer_time_us(self, size_bytes: int) -> float:
        """Serialization time of ``size_bytes`` on the wire."""
        return size_bytes / self.bandwidth_bytes_per_us


@dataclass(frozen=True)
class MemoryParams:
    """Node memory-system parameters."""

    #: Virtual-memory page size; the SVM coherence unit.
    page_size: int = 4096
    #: Local memory-copy bandwidth in bytes/us (twin creation, local
    #: fetches of committed copies, checkpoint buffer copies).
    copy_bandwidth_bytes_per_us: float = 400.0
    #: Aggregate memory-bus bandwidth in bytes/us shared by all
    #: processors and DMA within one SMP node. The paper attributes
    #: compute-time dilation under the extended protocol to exactly
    #: this contention.
    bus_bandwidth_bytes_per_us: float = 800.0

    def __post_init__(self) -> None:
        _require(self.page_size >= 64, "page_size must be >= 64")
        _require(self.page_size & (self.page_size - 1) == 0,
                 "page_size must be a power of two")
        _require(self.copy_bandwidth_bytes_per_us > 0,
                 "copy bandwidth must be > 0")

    def copy_time_us(self, size_bytes: int) -> float:
        return size_bytes / self.copy_bandwidth_bytes_per_us


@dataclass(frozen=True)
class CostModel:
    """CPU costs of protocol operations, in us.

    These model the host-side instruction costs of the SVM protocol on a
    400 MHz processor; communication costs live in NetworkParams.
    """

    #: Fixed cost of entering the page-fault handler (trap + dispatch).
    page_fault_handler_us: float = 4.0
    #: Per-byte cost of the word-by-word twin comparison when computing
    #: a diff (~2 cycles/word at 400 MHz ~= 0.0025 us/byte).
    diff_compute_per_byte_us: float = 0.0025
    #: Fixed cost per diff computation (setup, scan bookkeeping).
    diff_compute_base_us: float = 2.0
    #: Per-byte cost of applying a received diff at a home copy.
    diff_apply_per_byte_us: float = 0.0015
    #: Cost of invalidating one page (page-table update + TLB shootdown).
    invalidate_per_page_us: float = 1.0
    #: Cost of creating/processing one write notice.
    write_notice_per_entry_us: float = 0.3
    #: Cost of committing one page into the interval record at release.
    commit_per_page_us: float = 0.4
    #: Fixed protocol cost of a release operation (timestamps, tables).
    release_base_us: float = 3.0
    #: Fixed protocol cost of an acquire operation.
    acquire_base_us: float = 3.0
    #: Host cost of one lock-algorithm iteration (build request/poll).
    lock_op_us: float = 1.0
    #: Backoff window for the centralized polling lock: initial and max.
    lock_backoff_min_us: float = 2.0
    lock_backoff_max_us: float = 64.0
    #: Fixed per-thread cost of saving a checkpoint (context capture).
    checkpoint_base_us: float = 5.0
    #: Bytes added to every checkpoint's accounted size, modelling the
    #: native thread stack the paper ships (2-2.8 KB); our explicit
    #: kernel state is far smaller, so this knob restores the paper's
    #: checkpoint volume without changing semantics.
    checkpoint_stack_bytes: int = 0
    #: Per-byte cost of serializing checkpoint state locally.
    checkpoint_per_byte_us: float = 0.004
    #: Cost to suspend/resume a peer thread at checkpoint point A.
    thread_suspend_us: float = 2.0
    #: Barrier manager per-arrival processing cost.
    barrier_per_node_us: float = 1.0
    #: Heart-beat timeout: how long a node spins on an expected remote
    #: response before probing the peer (paper section 4.1).
    heartbeat_timeout_us: float = 500.0
    #: Cost of the page-lock bookkeeping per page (FT protocol, Fig 4).
    page_lock_us: float = 0.2

    def diff_compute_us(self, page_size: int) -> float:
        return self.diff_compute_base_us + self.diff_compute_per_byte_us * page_size

    def diff_apply_us(self, diff_bytes: int) -> float:
        return self.diff_apply_per_byte_us * diff_bytes

    def checkpoint_us(self, state_bytes: int) -> float:
        return self.checkpoint_base_us + self.checkpoint_per_byte_us * state_bytes


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
    #: Number of barrier variables available.
    num_barriers: int = 16
    seed: int = 12345
    network: NetworkParams = field(default_factory=NetworkParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    costs: CostModel = field(default_factory=CostModel)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1, "num_nodes must be >= 1")
        _require(self.threads_per_node >= 1, "threads_per_node must be >= 1")
        _require(self.shared_pages >= 1, "shared_pages must be >= 1")
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
