"""Regeneration of the paper's evaluation figures.

``figure(number)`` runs the necessary simulations and returns
``(data, text)``: the raw component data and a formatted table in the
paper's layout. The benchmark modules under ``benchmarks/`` call
``figure7`` .. ``figure10`` and persist the text next to the timing
data.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from repro.harness.experiments import APP_ORDER, run_matrix
from repro.metrics import (
    format_breakdown_table,
    overhead_bars,
    overhead_percent,
    stacked_bars,
)

FOUR = ("compute", "data_wait", "lock", "barrier")
SIX = ("compute", "data_wait", "synchronization", "diffs", "protocol",
       "checkpointing")

#: number -> (threads per node, components, table title, caption of the
#: overhead bars; None for the six-component figures, which have none).
FIGURES = {
    7: (1, FOUR,
        "Figure 7: execution time breakdown, 8 nodes x 1 thread "
        "(0 = base GeNIMA, 1 = extended FT protocol)",
        "Failure-free overhead of the extended protocol"),
    8: (1, SIX,
        "Figure 8: overhead breakdown (6 components), 8 nodes x 1 thread",
        None),
    9: (2, FOUR,
        "Figure 9: execution time breakdown, 8 nodes x 2 threads/node",
        "Failure-free overhead, 2 threads/node"),
    10: (2, SIX,
         "Figure 10: overhead breakdown (6 components), "
         "8 nodes x 2 threads/node",
         None),
}


def overhead_summary(base, extended) -> Dict[str, float]:
    return {app: overhead_percent(base[app].elapsed_us,
                                  extended[app].elapsed_us)
            for app in base}


def figure(number: int, scale: str = "bench",
           apps=APP_ORDER) -> Tuple[Dict, str]:
    """One of the paper's Figures 7-10 (see :data:`FIGURES`).

    Every cell is an independent simulation, so the 2 x len(apps)
    matrix fans out over :func:`run_matrix` -- parallel across cores
    (``REPRO_JOBS``) and served from the content-addressed result
    cache, which is also what makes the second figure of a pair
    (7/8, 9/10: same cells, other format) cost no simulation.
    """
    from repro.parallel import app_spec

    threads, components, title, overhead_caption = FIGURES[number]
    apps = tuple(apps)
    summaries = run_matrix([
        app_spec(app, variant, threads_per_node=threads, scale=scale)
        for variant in ("base", "ft") for app in apps])
    base = dict(zip(apps, summaries[:len(apps)]))
    extended = dict(zip(apps, summaries[len(apps):]))
    # Interleaved base (0) / extended (1) rows, figure style.
    rows: Dict[str, Dict[str, float]] = {}
    for app in apps:
        for digit, suite in enumerate((base, extended)):
            breakdown = suite[app].breakdown
            rows[f"{app}/{digit}"] = (breakdown.four_component()
                                      if components is FOUR
                                      else breakdown.six_component())
    text = format_breakdown_table(title, rows, components)
    text += "\n\n" + stacked_bars(f"Figure {number} (bars)", rows,
                                  components)
    if overhead_caption is not None:
        summary = overhead_summary(base, extended)
        text += "\n\n" + overhead_bars(overhead_caption, summary)
        text += "\n\nOverhead (extended vs base): " + ", ".join(
            f"{app} {pct:+.0f}%" for app, pct in summary.items())
    return {"rows": rows, "base": base, "extended": extended}, text


figure7, figure8, figure9, figure10 = (
    partial(figure, number) for number in FIGURES)
