"""Log2 histogram determinism: the property the SLO pipeline rests on.

A percentile from :class:`repro.metrics.hist.Log2Histogram` must be a
pure function of the *multiset* of samples -- independent of sample
order, of how the stream was partitioned across workers, and of the
merge order of the partitions. These tests pin that algebra directly
(associativity / commutativity / order-insensitivity on synthetic
streams) and then end-to-end: the same app specs run through
``parallel.run_specs`` at ``jobs=1`` and ``jobs=2`` must ship
bit-identical latency histograms and merge to the identical registry.
"""

import json
import random

from repro.metrics.hist import (
    NUM_BUCKETS,
    Log2Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_us,
)
from repro.metrics.latency import OP_CLASSES
from repro.obs.report import _percentile_table, sweep_latency
from repro.parallel import RunSummary, app_spec, run_specs


def _fill(samples):
    hist = Log2Histogram()
    for s in samples:
        hist.record(s)
    return hist


def _samples(seed, n=500):
    rng = random.Random(seed)
    # Mix of sub-us, mid-range, and heavy-tail values across buckets.
    return [rng.choice((0.0, 0.5, 3.0, 17.0, 129.4, 2048.0,
                        rng.uniform(0, 1e6)))
            for _ in range(n)]


# -- bucket algebra ----------------------------------------------------------

def test_bucket_bounds_are_consistent():
    # Every bucket's inclusive upper bound maps back into that bucket,
    # and the next integer maps into the next bucket.
    for i in range(NUM_BUCKETS - 1):
        upper = bucket_upper_us(i)
        assert bucket_index(upper) == i
        assert bucket_index(upper + 1) == i + 1
    assert bucket_index(2.0 ** 80) == NUM_BUCKETS - 1


def test_record_counts_and_mean():
    hist = _fill([0.0, 1.0, 1.5, 7.0, 8.0])
    assert hist.count == 5
    assert hist.mean_us == (0.0 + 1.0 + 1.5 + 7.0 + 8.0) / 5
    assert hist.counts[0] == 1          # [0, 1)
    assert hist.counts[1] == 2          # [1, 2)
    assert hist.counts[3] == 1          # [4, 8)
    assert hist.counts[4] == 1          # [8, 16)
    assert hist.max_us == 8.0           # exact, not a bucket bound


def test_percentile_is_bucket_upper_bound():
    hist = _fill([3.0] * 99 + [1000.0])
    assert hist.percentile_us(0.50) == bucket_upper_us(2)   # 3
    assert hist.percentile_us(0.99) == bucket_upper_us(2)
    # The single tail sample only surfaces past rank 99.
    assert hist.percentile_us(0.999) == bucket_upper_us(10)  # 1023
    empty = Log2Histogram()
    assert empty.percentile_us(0.5) == 0.0


def test_percentiles_are_monotone_in_q():
    hist = _fill(_samples(7))
    values = [hist.percentile_us(q)
              for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0)]
    assert values == sorted(values)
    pct = hist.percentiles()
    assert pct["p50"] <= pct["p99"] <= pct["p999"]


# -- merge algebra -----------------------------------------------------------

def test_merge_is_partition_invariant():
    samples = _samples(11, n=1000)
    whole = _fill(samples)
    rng = random.Random(3)
    for _ in range(5):
        # Arbitrary 3-way partition of the same stream.
        parts = [[], [], []]
        for s in samples:
            parts[rng.randrange(3)].append(s)
        merged = Log2Histogram.merged(_fill(p) for p in parts)
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.max_us == whole.max_us
        assert merged.percentiles() == whole.percentiles()


def test_merge_is_associative_and_commutative():
    a, b, c = (_fill(_samples(seed)) for seed in (1, 2, 3))
    left = Log2Histogram.merged([_fill(_samples(1))])
    left.merge(b)
    left.merge(c)
    right = Log2Histogram.merged([_fill(_samples(2))])
    right.merge(c)
    right.merge(a)
    assert left.counts == right.counts
    assert left.count == right.count
    assert left.total_us == right.total_us
    assert left.max_us == right.max_us == max(a.max_us, b.max_us, c.max_us)


def test_round_trip_preserves_everything():
    hist = _fill(_samples(5))
    blob = json.dumps(hist.to_dict(), sort_keys=True)
    back = Log2Histogram.from_dict(json.loads(blob))
    assert back.counts == hist.counts
    assert back.count == hist.count
    assert back.total_us == hist.total_us
    assert back.max_us == hist.max_us
    assert back.percentiles() == hist.percentiles()


def test_restored_book_prints_the_same_table():
    # What sweeps and RunSummary.latency hand back is a registry
    # rebuilt from its serialized form; its table in the HTML reports
    # (count / percentiles / mean) must read like the live one.
    book = MetricsRegistry()
    for seed, op in enumerate(OP_CLASSES, 1):
        for sample in _samples(seed, n=50):
            book.observe(op, sample)
    blob = json.dumps(book.to_dict(), sort_keys=True)
    restored = MetricsRegistry.from_dict(json.loads(blob))
    assert _percentile_table(restored) == _percentile_table(book)
    assert _percentile_table(book).count("<tr>") == 1 + len(OP_CLASSES)
    for op in OP_CLASSES:
        assert (restored.histogram(op).max_us
                == book.histogram(op).max_us > 0)


def test_registry_merge_is_deterministic():
    def build(seed):
        reg = MetricsRegistry()
        for s in _samples(seed, n=100):
            reg.observe("lat", s)
        return reg

    merged_a = MetricsRegistry()
    merged_a.merge(build(1))
    merged_a.merge(build(2))
    merged_b = MetricsRegistry()
    merged_b.merge(build(1))
    merged_b.merge(build(2))
    assert merged_a.to_dict() == merged_b.to_dict()
    round_trip = MetricsRegistry.from_dict(merged_a.to_dict())
    assert round_trip.to_dict() == merged_a.to_dict()


# -- cross-worker bit-identity -----------------------------------------------

def test_latency_histograms_independent_of_jobs():
    # The same specs through the parallel orchestrator at different job
    # counts must ship bit-identical per-run histograms, and the merged
    # sweep-level book (what `repro sweep --slo` evaluates) must be
    # identical too.
    def sweep(jobs):
        specs = [app_spec(app, variant, scale="test")
                 for app in ("FFT", "LU")
                 for variant in ("base", "ft")]
        results = run_specs(specs, jobs=jobs, cache=False)
        assert all(r.ok for r in results)
        summaries = [RunSummary.from_dict(r.summary) for r in results]
        per_run = [s.to_dict()["latency_hist"] for s in summaries]
        merged = MetricsRegistry.merged(s.latency for s in summaries)
        assert merged.to_dict() == sweep_latency(results).to_dict()
        return per_run, merged.to_dict()

    serial_runs, serial_merged = sweep(jobs=1)
    parallel_runs, parallel_merged = sweep(jobs=2)
    assert serial_runs == parallel_runs
    assert serial_merged == parallel_merged
    book = MetricsRegistry.from_dict(serial_merged)
    assert any(book.histogram(op).count for op in OP_CLASSES)
