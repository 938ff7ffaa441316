"""Text-mode stacked bar charts.

The paper's Figures 7-10 are stacked horizontal bars (one per
application x protocol); this renders the regenerated data in the same
visual shape for terminals and result files.
"""

from __future__ import annotations

from typing import Mapping, Sequence

#: Fill characters assigned to components in order.
FILLS = "#=%+:.~o*"


def stacked_bars(title: str,
                 rows: Mapping[str, Mapping[str, float]],
                 components: Sequence[str],
                 width: int = 60) -> str:
    """Render rows of stacked horizontal bars.

    Each row label maps to component->value; bars share one scale
    (the largest row total spans ``width`` characters). A legend maps
    fill characters to component names.
    """
    if not rows:
        return title + "\n(no data)"
    if len(components) > len(FILLS):
        raise ValueError(f"too many components (max {len(FILLS)})")
    totals = {label: sum(comps.get(c, 0.0) for c in components)
              for label, comps in rows.items()}
    peak = max(totals.values()) or 1.0
    label_w = max(len(label) for label in rows) + 2

    lines = [title, "=" * len(title)]
    legend = "  ".join(f"{FILLS[i]} {name}"
                       for i, name in enumerate(components))
    lines.append(legend)
    lines.append("")
    for label, comps in rows.items():
        bar = []
        # Largest-remainder rounding so the bar length matches the
        # row's share of the scale.
        scaled = [(comps.get(c, 0.0) / peak) * width for c in components]
        cells = [int(v) for v in scaled]
        remainder = int(round(sum(scaled))) - sum(cells)
        fractional = sorted(range(len(components)),
                            key=lambda i: scaled[i] - cells[i],
                            reverse=True)
        for i in fractional[:max(remainder, 0)]:
            cells[i] += 1
        for i, count in enumerate(cells):
            bar.append(FILLS[i] * count)
        lines.append(f"{label:<{label_w}}|{''.join(bar)}"
                     f"  {totals[label]:.0f}")
    return "\n".join(lines)


def overhead_bars(title: str, overheads: Mapping[str, float],
                  width: int = 50) -> str:
    """Render one bar per app for percentage overheads."""
    if not overheads:
        return title + "\n(no data)"
    peak = max(max(overheads.values()), 1.0)
    label_w = max(len(label) for label in overheads) + 2
    lines = [title, "=" * len(title)]
    for label, pct in overheads.items():
        filled = int(round(pct / peak * width))
        lines.append(f"{label:<{label_w}}|{'#' * filled} {pct:.1f}%")
    return "\n".join(lines)


#: Eight-level block ramp used by the sparkline panel.
SPARKS = " .:-=+*#"


def _si(value: float) -> str:
    """Compact magnitude formatting for gauge peaks: ``871``,
    ``12.3k``, ``4.56M`` -- never raw ``1.5e+06`` scientific notation
    and never more than ~5 characters of digits."""
    if value >= 1e6:
        return f"{value / 1e6:.3g}M"
    if value >= 1e3:
        return f"{value / 1e3:.3g}k"
    if value >= 100 or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.3g}"


def timeseries_panel(title: str,
                     times_us: Sequence[float],
                     series: Mapping[str, Sequence[float]],
                     width: int = 64,
                     unit: str = "") -> str:
    """Render sampled time series as aligned text sparklines.

    One row per series (insertion order): the values are bucketed onto
    the columns of the shared time axis and drawn with an 8-level
    density ramp, with the series peak printed at the row end
    (``unit``-suffixed, SI-compacted so wide counters stay narrow).
    ``width`` caps the sparkline column count, but every row is also
    clamped to the current terminal width (``COLUMNS`` honored) so
    panels never wrap in narrow CI logs. Consumes the columnar output
    of :class:`repro.obs.timeseries.TimeSeriesSampler` (``totals()`` /
    ``rates()``) but accepts any label -> values mapping.
    """
    if not times_us or not series:
        return title + "\n(no samples)"
    t_lo, t_hi = times_us[0], times_us[-1]
    span = (t_hi - t_lo) or 1.0
    label_w = max(len(label) for label in series) + 2
    # Clamp the sparkline to what the terminal can hold: label, two
    # pipes, the " peak 00.0M<unit>" suffix, one free column.
    import shutil
    columns = shutil.get_terminal_size((80, 24)).columns
    suffix_w = len(" peak ") + 5 + len(unit)
    width = max(8, min(width, columns - label_w - suffix_w - 3))
    lines = [title, "=" * len(title)]
    for label, values in series.items():
        values = list(values)[:len(times_us)]
        buckets = [[] for _ in range(width)]
        for t, v in zip(times_us, values):
            col = min(int((t - t_lo) / span * width), width - 1)
            buckets[col].append(v)
        peak = max(values) if values else 0.0
        row = []
        for bucket in buckets:
            if not bucket:
                row.append(" ")
                continue
            level = (0 if peak <= 0 else
                     int(max(bucket) / peak * (len(SPARKS) - 1)))
            row.append(SPARKS[level])
        lines.append(f"{label:<{label_w}}|{''.join(row)}| "
                     f"peak {_si(peak)}{unit}")
    axis_lo, axis_hi = f"{t_lo / 1000:.1f}ms", f"{t_hi / 1000:.1f}ms"
    pad = max(width - len(axis_lo) - len(axis_hi) + 2, 0)
    lines.append(f"{'':<{label_w}} {axis_lo}{'':>{pad}}{axis_hi}")
    return "\n".join(lines)
