"""Deterministic fixed-bucket log2 latency histograms and a registry.

The SLO pipeline needs percentiles that are *exactly* reproducible:
across runs, across ``parallel.run_specs`` worker counts, and across
the pure/compiled simulation cores. Sample-sorting percentiles would
need every sample kept and serialized; instead we bucket by the bit
length of the integer microsecond value (bucket ``i`` holds values in
``[2**(i-1), 2**i)``, bucket 0 holds ``[0, 1)``), which makes a
histogram a fixed vector of 64 integer counters:

* recording is two integer ops (``int(v).bit_length()`` + increment);
* merging is elementwise addition (and ``max`` for the largest
  sample) -- associative and commutative, so any worker partition of
  the sample stream merges to the identical vector;
* a percentile is the *bucket upper bound* at the cumulative-count
  crossing -- a pure function of the counts, never of sample order.

The reported percentile is therefore an upper bound with at most 2x
resolution, which is the right trade for SLO gating: deterministic,
mergeable, and conservative (never under-reports the tail).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

#: 64 buckets cover every representable microsecond latency: bucket 63
#: holds everything at or above ~2**62 us (never reached in practice).
NUM_BUCKETS = 64


def bucket_index(value_us: float) -> int:
    """Bucket for a (non-negative) latency sample in microseconds."""
    idx = int(value_us).bit_length()
    return idx if idx < NUM_BUCKETS else NUM_BUCKETS - 1


def bucket_upper_us(index: int) -> int:
    """Inclusive upper bound of bucket ``index`` in whole microseconds."""
    return (1 << index) - 1


class Log2Histogram:
    """Fixed-bucket log2 histogram of microsecond latencies."""

    __slots__ = ("counts", "count", "total_us", "max_us")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * NUM_BUCKETS
        self.count = 0
        self.total_us = 0.0
        #: Largest sample seen, exact (the percentiles are bucket
        #: upper bounds).
        self.max_us = 0.0

    def record(self, value_us: float) -> None:
        self.counts[bucket_index(value_us)] += 1
        self.count += 1
        self.total_us += value_us
        if value_us > self.max_us:
            self.max_us = value_us

    def merge(self, other: "Log2Histogram") -> None:
        mine, theirs = self.counts, other.counts
        for i in range(NUM_BUCKETS):
            mine[i] += theirs[i]
        self.count += other.count
        self.total_us += other.total_us
        if other.max_us > self.max_us:
            self.max_us = other.max_us

    def percentile_us(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile (``0 < q <= 1``).

        Returns the inclusive upper bound of the first bucket whose
        cumulative count reaches ``ceil(q * count)``; 0.0 when empty.
        """
        if not self.count:
            return 0.0
        # ceil without floats drifting: rank in [1, count].
        rank = -(-int(q * self.count * 1_000_000) // 1_000_000)
        rank = min(max(rank, 1), self.count)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return float(bucket_upper_us(i))
        return float(bucket_upper_us(NUM_BUCKETS - 1))

    def percentiles(self) -> Dict[str, float]:
        """The SLO trio: p50 / p99 / p999 upper bounds in microseconds."""
        return {"p50": self.percentile_us(0.50),
                "p99": self.percentile_us(0.99),
                "p999": self.percentile_us(0.999)}

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """Sparse, canonical, JSON-portable form."""
        return {
            "count": self.count,
            "total_us": self.total_us,
            "max_us": self.max_us,
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Log2Histogram":
        out = cls()
        out.count = int(data.get("count", 0))
        out.total_us = float(data.get("total_us", 0.0))
        out.max_us = float(data.get("max_us", 0.0))
        for key, c in data.get("buckets", {}).items():
            out.counts[int(key)] = int(c)
        return out

    @classmethod
    def merged(cls, hists: Iterable["Log2Histogram"]) -> "Log2Histogram":
        out = cls()
        for hist in hists:
            out.merge(hist)
        return out


class MetricsRegistry:
    """Named latency histograms, mergeable across workers (elementwise
    addition, so any merge order gives the same book)."""

    def __init__(self) -> None:
        self.histograms: Dict[str, Log2Histogram] = {}

    def histogram(self, name: str) -> Log2Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Log2Histogram()
        return hist

    def observe(self, name: str, value_us: float) -> None:
        self.histogram(name).record(value_us)

    def merge(self, other: "MetricsRegistry") -> None:
        for name, hist in other.histograms.items():
            self.histogram(name).merge(hist)

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]
               ) -> "MetricsRegistry":
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out

    def to_dict(self) -> dict:
        return {"histograms": {name: hist.to_dict() for name, hist
                               in sorted(self.histograms.items())}}

    @classmethod
    def from_dict(cls, data: Optional[Mapping]) -> "MetricsRegistry":
        out = cls()
        if not data:
            return out
        for name, hist in data.get("histograms", {}).items():
            out.histograms[name] = Log2Histogram.from_dict(hist)
        return out
