"""Canonical experiment configurations for the paper's evaluation.

Section 5 of the paper runs six SPLASH-2 applications on 8 nodes with
one or two compute threads per node, under the original (base) and the
extended (fault-tolerant) protocol, and reports execution-time
breakdowns in two formats. This module pins down the workload scales
and cluster configuration used by every benchmark so that figures are
regenerated from one place.

Scales: the paper's problem sizes (1M-point FFT, 4M-key radix, 4096
molecules) target a 2003 testbed measured in seconds; a cycle-ish
Python simulation of the same protocol work runs them at reduced sizes
chosen to keep every sharing characteristic intact (multiple pages per
thread per data structure, the same home-page-diff ratios, the same
lock structure).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.apps import (
    FFT,
    LU,
    RadixSort,
    Volrend,
    WaterNsquared,
    WaterSpatial,
)
from repro.apps.base import Workload
from repro.config import ClusterConfig, ProtocolParams
from repro.harness.runner import RunResult, SvmRuntime

#: The application suite in the paper's figure order.
APP_ORDER = ("FFT", "LU", "WaterNsq", "WaterSpFL", "RadixLocal",
             "Volrend")


def workload_factories(scale: str = "bench"
                       ) -> Dict[str, Callable[[], Workload]]:
    """Factories for the six applications at a given scale.

    ``"test"`` is small enough for unit tests; ``"bench"`` is the
    default evaluation scale; ``"large"`` approaches the paper's sizes
    (slow in pure Python -- minutes per run).
    """
    if scale == "test":
        return {
            "FFT": lambda: FFT(points=1024),
            "LU": lambda: LU(n=64, block=16),
            "WaterNsq": lambda: WaterNsquared(molecules=24, steps=1),
            "WaterSpFL": lambda: WaterSpatial(molecules=48, steps=1),
            "RadixLocal": lambda: RadixSort(keys=512, radix_bits=4,
                                            key_bits=8),
            "Volrend": lambda: Volrend(image_size=8, tile=4,
                                       volume_size=8),
        }
    if scale == "bench":
        return {
            "FFT": lambda: FFT(points=4096),
            "LU": lambda: LU(n=128, block=16),
            "WaterNsq": lambda: WaterNsquared(molecules=64, steps=2),
            "WaterSpFL": lambda: WaterSpatial(molecules=128, steps=2),
            "RadixLocal": lambda: RadixSort(keys=2048, radix_bits=4,
                                            key_bits=8),
            "Volrend": lambda: Volrend(image_size=16, tile=4,
                                       volume_size=12),
        }
    if scale == "large":
        return {
            "FFT": lambda: FFT(points=16384),
            "LU": lambda: LU(n=256, block=16),
            "WaterNsq": lambda: WaterNsquared(molecules=128, steps=2),
            "WaterSpFL": lambda: WaterSpatial(molecules=256, steps=2),
            "RadixLocal": lambda: RadixSort(keys=8192, radix_bits=4,
                                            key_bits=12),
            "Volrend": lambda: Volrend(image_size=32, tile=4,
                                       volume_size=16),
        }
    raise ValueError(f"unknown scale {scale!r}")


def evaluation_config(variant: str,
                      threads_per_node: int = 1,
                      num_nodes: int = 8,
                      seed: int = 2003,
                      lock_algorithm: str = "polling",
                      page_size: int = 512,
                      **protocol_overrides) -> ClusterConfig:
    """The paper's testbed (section 5.1) at simulation scale."""
    return ClusterConfig(
        num_nodes=num_nodes,
        threads_per_node=threads_per_node,
        shared_pages=2048,
        num_locks=512,
        seed=seed,
        page_size=page_size,
        protocol=ProtocolParams(variant=variant,
                                lock_algorithm=lock_algorithm,
                                **protocol_overrides),
    )


def build_app(app_name: str,
              variant: str,
              threads_per_node: int = 1,
              scale: str = "bench",
              num_nodes: int = 8,
              seed: int = 2003,
              lock_algorithm: str = "polling",
              **protocol_overrides) -> SvmRuntime:
    """The runtime of one cell of the paper's evaluation matrix, not
    yet started: the one place a workload factory meets
    :func:`evaluation_config` meets :class:`SvmRuntime`. Attach
    observers or fault injection to it, then ``run()``."""
    config = evaluation_config(variant, threads_per_node,
                               num_nodes=num_nodes, seed=seed,
                               lock_algorithm=lock_algorithm,
                               **protocol_overrides)
    return SvmRuntime(config, workload_factories(scale)[app_name]())


def run_app(app_name: str, variant: str, *args, verify: bool = True,
            **kwargs) -> RunResult:
    """Build one cell (arguments of :func:`build_app`) and run it."""
    return build_app(app_name, variant, *args, **kwargs).run(verify)


def run_suite(variant: str,
              threads_per_node: int = 1,
              scale: str = "bench",
              **kwargs) -> Dict[str, RunResult]:
    """Run the whole application suite under one protocol variant.

    Serial, in-process, full ``RunResult`` objects (latency books and
    thread clocks included) -- the right tool when a consumer needs
    everything. Multi-run entry points that only need summaries
    (figures, sweeps) go through :func:`run_matrix` instead.
    """
    return {app: run_app(app, variant, threads_per_node, scale, **kwargs)
            for app in APP_ORDER}


def run_matrix(specs, jobs=None, cache=True, cache_dir=None):
    """Run a list of :class:`~repro.parallel.RunSpec` concurrently.

    The fan-out/caching entry point every multi-run benchmark routes
    through: specs fan out over a process pool (``jobs`` / the
    ``REPRO_JOBS`` env var / ``os.cpu_count()``), results come back as
    :class:`~repro.parallel.RunSummary` in spec order, and completed
    cells are served from the content-addressed cache on re-runs.
    Raises ``RuntimeError`` if any spec fails -- a figure with holes in
    its matrix is worse than no figure.
    """
    from repro.parallel import RunSummary, run_specs

    results = run_specs(specs, jobs=jobs, cache=cache,
                        cache_dir=cache_dir)
    failed = [r for r in results if not r.ok]
    if failed:
        lines = "\n".join(f"  {r.spec.label}: {r.status}: "
                          f"{r.error.strip().splitlines()[-1] if r.error else ''}"
                          for r in failed)
        raise RuntimeError(
            f"{len(failed)}/{len(results)} matrix cells failed:\n{lines}")
    return [RunSummary.from_dict(r.summary) for r in results]
