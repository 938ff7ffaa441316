"""Plain-text report tables in the spirit of the paper's figures."""

from __future__ import annotations

from typing import Mapping, Sequence


def format_breakdown_table(title: str,
                           rows: Mapping[str, Mapping[str, float]],
                           components: Sequence[str]) -> str:
    """Render one breakdown table.

    ``rows`` maps a row label (e.g. "FFT/base") to a component->time
    mapping; components missing from a row print as 0.
    """
    label_w = max([len(label) for label in rows] + [len("run")]) + 2
    col_w = max([len(c) for c in components] + [12]) + 2
    lines = [title, "=" * len(title)]
    header = "run".ljust(label_w) + "".join(
        c.rjust(col_w) for c in components) + "total".rjust(col_w)
    lines.append(header)
    lines.append("-" * len(header))
    for label, comps in rows.items():
        total = sum(comps.get(c, 0.0) for c in components)
        cells = "".join(
            f"{comps.get(c, 0.0):>{col_w}.1f}" for c in components)
        lines.append(label.ljust(label_w) + cells + f"{total:>{col_w}.1f}")
    lines.append("(times in us)")
    return "\n".join(lines)


def overhead_percent(base_total: float, extended_total: float) -> float:
    """Extended-over-base overhead in percent."""
    if base_total <= 0:
        return float("nan")
    return (extended_total / base_total - 1.0) * 100.0
