"""Self-contained HTML run reports with inline SVG charts.

Two entry points:

* :func:`render_run_report` -- one simulated run: stat tiles, the
  sampler's protocol-activity rate lines and engine-queue-depth line,
  a per-thread stacked time-breakdown bar chart, the flight-recorder
  span inventory, watchdog wait-for dumps, and a per-node counters
  table. Everything inlines into one file (no external assets) so a CI
  artifact opens anywhere.
* :func:`render_sweep_report` -- one parallel sweep: orchestrator
  stats (cache hits, retries, wall time) and a per-spec wall-time bar
  chart plus result table.

Charts follow the repo's chart conventions: categorical series colors
are assigned in fixed slot order and validated for color-vision-
deficiency separation in both light and dark mode, every multi-series
chart carries a legend *and* direct labels, value text always uses
text ink (never the series color), one axis per chart, and a table
view accompanies the charts. Hover shows a crosshair + tooltip.
"""

from __future__ import annotations

import html
import json
import math
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.metrics.hist import MetricsRegistry
from repro.obs.slo import latency_by_class

# ``--series-1`` .. ``--series-4`` are categorical slots (blue, orange,
# aqua, yellow), light / dark steps of the same hues. Validated (CVD >=
# 8, normal-vision >= 15, lightness band) against the light #fcfcfb /
# dark #1a1a19 surfaces.
_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; background: var(--page); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
  --series-3: #1baf7a; --series-4: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926;
    --series-3: #199e70; --series-4: #c98500;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926;
  --series-3: #199e70; --series-4: #c98500;
}
.wrap { max-width: 880px; margin: 0 auto; padding: 24px 20px 48px; }
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 14px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 108px;
}
.tile .v { font-size: 22px; }
.tile .l { color: var(--text-secondary); font-size: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; margin: 10px 0;
  position: relative;
}
.legend { display: flex; gap: 14px; flex-wrap: wrap;
  color: var(--text-secondary); font-size: 12px; margin: 2px 0 6px; }
.legend .chip, .endlab .chip {
  display: inline-block; width: 9px; height: 9px; border-radius: 2px;
  margin-right: 5px; vertical-align: baseline;
}
svg text { fill: var(--muted); font-size: 11px;
  font-variant-numeric: tabular-nums; }
svg text.endlab-t { fill: var(--text-secondary); }
.tooltip {
  position: absolute; pointer-events: none; display: none;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 9px; font-size: 12px;
  color: var(--text-primary); box-shadow: 0 2px 8px rgba(0,0,0,0.12);
  white-space: nowrap; z-index: 10;
}
.tooltip .row { color: var(--text-secondary); }
.tooltip .row b { color: var(--text-primary); font-weight: 600; }
table { border-collapse: collapse; width: 100%; font-size: 12.5px; }
th, td { text-align: right; padding: 4px 8px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
pre.dump {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; overflow-x: auto;
  font-size: 12px; line-height: 1.5;
}
"""

_JS = """
(function () {
  function nearest(xs, x) {
    var best = 0, d = Infinity;
    for (var i = 0; i < xs.length; i++) {
      var di = Math.abs(xs[i] - x);
      if (di < d) { d = di; best = i; }
    }
    return best;
  }
  document.querySelectorAll(".linechart").forEach(function (card) {
    var data = JSON.parse(card.querySelector("script").textContent);
    var svg = card.querySelector("svg");
    var tip = card.querySelector(".tooltip");
    var cross = svg.querySelector(".cross");
    var dots = {};
    data.series.forEach(function (s, i) {
      dots[i] = svg.querySelector(".dot-" + i);
    });
    function toPlotX(evt) {
      var r = svg.getBoundingClientRect();
      return (evt.clientX - r.left) * (data.vw / r.width);
    }
    svg.addEventListener("mousemove", function (evt) {
      if (!data.px.length) return;
      var i = nearest(data.px, toPlotX(evt));
      cross.setAttribute("x1", data.px[i]);
      cross.setAttribute("x2", data.px[i]);
      cross.style.display = "block";
      var rows = "<b>" + data.t[i] + "</b>";
      data.series.forEach(function (s, k) {
        rows += '<div class="row">' + s.label + ": <b>" +
          s.v[i] + "</b></div>";
        var d = dots[k];
        if (d) { d.setAttribute("cx", data.px[i]);
                 d.setAttribute("cy", s.py[i]);
                 d.style.display = "block"; }
      });
      tip.innerHTML = rows;
      tip.style.display = "block";
      var r = card.getBoundingClientRect();
      var x = evt.clientX - r.left + 14, y = evt.clientY - r.top + 10;
      if (x + tip.offsetWidth > r.width - 8)
        x -= tip.offsetWidth + 26;
      tip.style.left = x + "px"; tip.style.top = y + "px";
    });
    svg.addEventListener("mouseleave", function () {
      tip.style.display = "none";
      cross.style.display = "none";
      Object.keys(dots).forEach(function (k) {
        if (dots[k]) dots[k].style.display = "none";
      });
    });
  });
  document.querySelectorAll(".barchart").forEach(function (card) {
    var tip = card.querySelector(".tooltip");
    card.querySelectorAll("rect[data-tip]").forEach(function (seg) {
      seg.addEventListener("mousemove", function (evt) {
        tip.innerHTML = seg.getAttribute("data-tip");
        tip.style.display = "block";
        var r = card.getBoundingClientRect();
        var x = evt.clientX - r.left + 14, y = evt.clientY - r.top + 10;
        if (x + tip.offsetWidth > r.width - 8)
          x -= tip.offsetWidth + 26;
        tip.style.left = x + "px"; tip.style.top = y + "px";
      });
      seg.addEventListener("mouseleave", function () {
        tip.style.display = "none";
      });
    });
  });
})();
"""


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e6:
        return f"{value / 1e6:.2f}M"
    if abs(value) >= 1e4:
        return f"{value / 1e3:.1f}k"
    if abs(value) >= 100 or float(value).is_integer():
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.1f}"
    return f"{value:.2f}"


def _nice_ticks(peak: float) -> List[float]:
    """About four round-numbered ticks from 0 to ``peak``."""
    if peak <= 0:
        return [0.0, 1.0]
    raw = peak / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    ticks = [0.0]
    while ticks[-1] < peak:
        ticks.append(round(ticks[-1] + step, 10))
    return ticks


def _chip(color_slot: int) -> str:
    return (f'<span class="chip" '
            f'style="background:var(--series-{color_slot + 1})"></span>')


def _legend(labels: Sequence[str]) -> str:
    if len(labels) < 2:
        return ""
    items = "".join(f"<span>{_chip(i)}{html.escape(lab)}</span>"
                    for i, lab in enumerate(labels))
    return f'<div class="legend">{items}</div>'


def line_chart(title: str, times_us: Sequence[float],
               series: Mapping[str, Sequence[float]],
               unit: str = "") -> str:
    """One SVG line chart card: shared x axis (simulated ms), up to 4
    series (fixed slot order), legend + direct end labels, hairline
    grid, hover crosshair with tooltip."""
    labels = list(series)[:4]
    vw, vh = 760, 230
    left, right, top, bottom = 52, 118, 10, 26
    pw, ph = vw - left - right, vh - top - bottom
    times_ms = [t / 1000.0 for t in times_us]
    if not times_ms:
        return (f'<div class="card"><h2>{html.escape(title)}</h2>'
                "<p class='sub'>(no samples)</p></div>")
    t_lo, t_hi = times_ms[0], times_ms[-1] or 1.0
    t_span = (t_hi - t_lo) or 1.0
    peak = max((max(series[lab]) for lab in labels
                if series[lab]), default=1.0) or 1.0
    ticks = _nice_ticks(peak)
    y_hi = ticks[-1] or 1.0

    def sx(t):
        return left + (t - t_lo) / t_span * pw

    def sy(v):
        return top + ph - (v / y_hi) * ph

    parts = [f'<svg viewBox="0 0 {vw} {vh}" role="img" '
             f'aria-label="{html.escape(title)}" '
             'style="width:100%;height:auto;display:block">']
    for tick in ticks:
        y = sy(tick)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + pw}" '
                     f'y2="{y:.1f}" stroke="var(--grid)" '
                     'stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    parts.append(f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" '
                 f'y2="{top + ph}" stroke="var(--baseline)" '
                 'stroke-width="1"/>')
    for frac in (0.0, 0.5, 1.0):
        t = t_lo + frac * t_span
        parts.append(f'<text x="{sx(t):.1f}" y="{vh - 8}" '
                     f'text-anchor="middle">{_fmt(t)} ms</text>')
    px = [sx(t) for t in times_ms]
    payload = {"vw": vw, "px": [round(x, 1) for x in px],
               "t": [f"{t:.2f} ms" for t in times_ms], "series": []}
    for i, lab in enumerate(labels):
        vals = list(series[lab])
        py = [sy(v) for v in vals]
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="var(--series-{i + 1})" stroke-width="2" '
                     'stroke-linejoin="round" stroke-linecap="round"/>')
        # Direct label at the line's end: colored chip carries identity,
        # the text itself stays in text ink (relief for the sub-3:1
        # light-mode slots).
        end_y = py[-1] if py else top + ph
        parts.append(f'<rect x="{left + pw + 6}" y="{end_y - 4:.1f}" '
                     f'width="9" height="9" rx="2" '
                     f'fill="var(--series-{i + 1})"/>')
        parts.append(f'<text x="{left + pw + 19}" y="{end_y + 4:.1f}" '
                     f'class="endlab-t">{html.escape(lab)}</text>')
        parts.append(f'<circle class="dot-{i}" r="3.5" '
                     f'fill="var(--series-{i + 1})" '
                     'style="display:none" cx="0" cy="0"/>')
        payload["series"].append({
            "label": lab, "py": [round(y, 1) for y in py],
            "v": [_fmt(v) + (f" {unit}" if unit else "") for v in vals]})
    parts.append(f'<line class="cross" x1="0" y1="{top}" x2="0" '
                 f'y2="{top + ph}" stroke="var(--baseline)" '
                 'stroke-width="1" style="display:none"/>')
    parts.append("</svg>")
    return (f'<div class="card linechart"><h2>{html.escape(title)}</h2>'
            + _legend(labels) + "".join(parts)
            + '<div class="tooltip"></div>'
            + f'<script type="application/json">'
              f"{json.dumps(payload)}</script></div>")


def stacked_bar_chart(title: str,
                      rows: Mapping[str, Mapping[str, float]],
                      components: Sequence[str],
                      unit: str = "us") -> str:
    """Horizontal stacked bars, one per row label: thin 14px bars,
    2px surface gaps between segments, shared scale, legend, per-
    segment hover tooltip, total in text ink at the bar end."""
    components = list(components)[:4]
    if not rows:
        return (f'<div class="card"><h2>{html.escape(title)}</h2>'
                "<p class='sub'>(no data)</p></div>")
    vw = 760
    left, right, top = 88, 70, 8
    row_h, bar_h = 24, 14
    pw = vw - left - right
    totals = {lab: sum(comps.get(c, 0.0) for c in components)
              for lab, comps in rows.items()}
    peak = max(totals.values()) or 1.0
    vh = top + row_h * len(rows) + 10
    parts = [f'<svg viewBox="0 0 {vw} {vh}" role="img" '
             f'aria-label="{html.escape(title)}" '
             'style="width:100%;height:auto;display:block">']
    for r, (lab, comps) in enumerate(rows.items()):
        y = top + r * row_h
        parts.append(f'<text x="{left - 8}" y="{y + bar_h - 3}" '
                     f'text-anchor="end" class="endlab-t">'
                     f'{html.escape(lab)}</text>')
        x = float(left)
        for i, comp in enumerate(components):
            val = comps.get(comp, 0.0)
            w = val / peak * pw
            if w <= 0:
                continue
            draw_w = max(w - 2, 0.5)  # 2px surface gap between segments
            # The tip is HTML the tooltip div will render; escaped here
            # so it survives as an attribute value.
            tip = html.escape(
                f"{html.escape(lab)} · {html.escape(comp)}: "
                f"<b>{_fmt(val)} {unit}</b>", quote=True)
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{draw_w:.1f}" '
                f'height="{bar_h}" rx="2" fill="var(--series-{i + 1})" '
                f'data-tip="{tip}"/>')
            x += w
        parts.append(f'<text x="{x + 6:.1f}" y="{y + bar_h - 3}">'
                     f'{_fmt(totals[lab])}</text>')
    parts.append("</svg>")
    return (f'<div class="card barchart"><h2>{html.escape(title)}</h2>'
            + _legend(components) + "".join(parts)
            + '<div class="tooltip"></div></div>')


def _stat_tiles(tiles: Sequence[Tuple[str, str]]) -> str:
    cells = "".join(
        f'<div class="tile"><div class="v">{html.escape(value)}</div>'
        f'<div class="l">{html.escape(label)}</div></div>'
        for label, value in tiles)
    return f'<div class="tiles">{cells}</div>'


def _page(title: str, subtitle: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head>"
        "<body class='viz-root'><div class='wrap'>"
        f"<h1>{html.escape(title)}</h1>"
        f"<p class='sub'>{html.escape(subtitle)}</p>"
        f"{body}</div><script>{_JS}</script></body></html>")


# ----------------------------------------------------------------------
# Operation latency and SLO (run and sweep reports)
# ----------------------------------------------------------------------

def _percentile_table(metrics: MetricsRegistry) -> str:
    """Count, p50/p99/p999 and mean of every operation class with
    samples in ``metrics``; empty when there is none."""
    cells = []
    for name, hist in latency_by_class(metrics).items():
        p = hist.percentiles()
        cells.append(
            f"<tr><td>{html.escape(name)}</td><td>{hist.count}</td>"
            f"<td>{_fmt(p['p50'])}</td><td>{_fmt(p['p99'])}</td>"
            f"<td>{_fmt(p['p999'])}</td><td>{_fmt(hist.mean_us)}</td></tr>")
    if not cells:
        return ""
    return ("<div class='card'><table><tr><th>operation</th><th>n</th>"
            "<th>p50 us</th><th>p99 us</th><th>p999 us</th>"
            f"<th>mean us</th></tr>{''.join(cells)}</table></div>")


def _slo_section(slo: dict) -> List[str]:
    """Render an SLO evaluation report (repro.obs.slo.evaluate_slo)."""
    body = [f"<h2>SLO: {html.escape(slo['spec'])} &mdash; "
            + ("<span style='color:var(--series-3)'>PASS</span>"
               if slo["ok"]
               else "<span style='color:var(--series-2)'>FAIL</span>")
            + "</h2>"]
    cells = []
    for check in slo["checks"]:
        actual = check["actual_us"]
        cells.append(
            f"<tr><td>{html.escape(check['op_class'])}</td>"
            f"<td>{check['quantile']}</td>"
            f"<td>{_fmt(check['target_us'])}</td>"
            f"<td>{_fmt(actual) if actual is not None else '(no data)'}"
            f"</td><td>{check['count']}</td>"
            f"<td>{'pass' if check['ok'] else '<b>FAIL</b>'}</td></tr>")
    body.append("<div class='card'><table><tr><th>operation</th>"
                "<th>q</th><th>target us</th><th>actual us</th>"
                f"<th>n</th><th>verdict</th></tr>{''.join(cells)}"
                "</table></div>")
    avail = slo.get("availability")
    if avail is not None:
        body.append(
            "<p class='sub'>availability "
            f"{avail['actual'] * 100:.4f}% (floor "
            f"{avail['min'] * 100:.4f}%; exposed "
            f"{_fmt(avail['exposed_window_us'])} us of "
            f"{_fmt(avail['elapsed_us'])} us) &mdash; "
            f"{'pass' if avail['ok'] else 'FAIL'}</p>")
    return body


def _exemplar_sections(tracer) -> List[str]:
    """The worst operation of each class: a summary table whose rows
    link to the rendered causal trees below it."""
    entries = []
    for op_class in sorted({tracer.op(i).op_class
                            for i in tracer.op_ids()}):
        for op_id in tracer.worst(1, op_class):
            entries.append((op_class, tracer.op(op_id)))
    if not entries:
        return []
    rows = "".join(
        f"<tr><td><a href='#op-{op.op_id}'>op {op.op_id}</a></td>"
        f"<td>{html.escape(op_class)}</td><td>{op.node}</td>"
        f"<td style='text-align:left'>{html.escape(op.label)}</td>"
        f"<td>{_fmt(op.duration_us)}</td></tr>"
        for op_class, op in entries)
    body = ["<h2>Worst operations (causal trees)</h2>",
            "<div class='card'><table><tr><th>op</th><th>class</th>"
            "<th>node</th><th>label</th><th>duration us</th></tr>"
            f"{rows}</table></div>"]
    for _op_class, op in entries:
        body.append(f"<pre class='dump' id='op-{op.op_id}'>"
                    f"{html.escape(tracer.render(op.op_id))}</pre>")
    return body


# ----------------------------------------------------------------------
# Run report
# ----------------------------------------------------------------------

def render_run_report(title: str, subtitle: str = "", result=None,
                      recorder=None, sampler=None, watchdog=None,
                      trace_file: Optional[str] = None,
                      tracer=None, slo: Optional[dict] = None) -> str:
    """Assemble the single-run HTML report; every section is optional
    so partial runs (deadlock caps, failed verification) still render.
    ``slo`` is an :func:`~repro.obs.slo.evaluate_slo` report."""
    body = []

    tiles: List[Tuple[str, str]] = []
    if result is not None:
        tiles.append(("simulated time", f"{result.elapsed_us / 1000:.1f} ms"))
        totals = result.counters.total
        tiles.extend([
            ("page faults", _fmt(totals.page_faults)),
            ("pages diffed", _fmt(totals.pages_diffed)),
            ("lock acquires", _fmt(totals.lock_acquires)),
            ("checkpoints", _fmt(totals.checkpoints)),
            ("recoveries", str(result.recoveries)),
        ])
        if result.recoveries:
            # Worst single-failure window during which some page, lock
            # or checkpoint ward had only one live copy.
            tiles.append(("exposed window",
                          f"{result.exposed_window_us / 1000:.2f} ms"))
    if recorder is not None:
        tiles.append(("trace events", _fmt(len(recorder))))
    if tracer is not None:
        tiles.append(("traced ops", _fmt(len(tracer))))
    if slo is not None:
        tiles.append(("SLO", "PASS" if slo["ok"] else "FAIL"))
    if tiles:
        body.append(_stat_tiles(tiles))

    if tracer is not None:
        table = _percentile_table(tracer.metrics)
        if table:
            body.append("<h2>Operation latency percentiles</h2>")
            body.append(table)
    if slo is not None:
        body.extend(_slo_section(slo))

    if sampler is not None and len(sampler) > 1:
        times, rates = sampler.rates()
        body.append(line_chart(
            "Protocol activity (events per simulated ms)", times,
            {"page faults": rates.get("page_faults", []),
             "diff messages": rates.get("diff_messages", []),
             "lock acquires": rates.get("lock_acquires", []),
             "checkpoints": rates.get("checkpoints", [])},
            unit="/ms"))
        body.append(line_chart(
            "Engine event-queue depth", sampler.times,
            {"pending events": sampler.gauge("engine.queue_depth")}))

    if result is not None and result.thread_breakdowns:
        rows = {f"thread {tid}": breakdown.four_component()
                for tid, breakdown in enumerate(result.thread_breakdowns)}
        body.append(stacked_bar_chart(
            "Time breakdown per thread",
            rows, ("compute", "data_wait", "lock", "barrier")))

    if recorder is not None:
        inv = recorder.span_inventory()
        if inv:
            body.append("<h2>Timeline spans</h2>")
            if trace_file:
                body.append(
                    "<p class='sub'>Full timeline: open "
                    f"<code>{html.escape(str(trace_file))}</code> at "
                    "ui.perfetto.dev</p>")
            rows = "".join(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{int(s['count'])}</td>"
                f"<td>{_fmt(s['total_us'])}</td>"
                f"<td>{_fmt(s['total_us'] / s['count'])}</td></tr>"
                for name, s in sorted(inv.items(),
                                      key=lambda kv: -kv[1]["total_us"]))
            body.append(
                "<div class='card'><table><tr><th>span</th>"
                "<th>slices</th><th>total us</th><th>mean us</th></tr>"
                f"{rows}</table></div>")

    if tracer is not None:
        body.extend(_exemplar_sections(tracer))

    if watchdog is not None and watchdog.dumps:
        body.append("<h2>Stall watchdog</h2>")
        for dump in watchdog.dumps:
            body.append(f"<pre class='dump'>{html.escape(dump)}</pre>")

    if result is not None:
        body.append("<h2>Per-node counters</h2>")
        fields = ("page_faults", "remote_page_fetches", "pages_diffed",
                  "diff_bytes_sent", "diff_messages", "lock_acquires",
                  "barriers", "checkpoints", "checkpoint_bytes")
        head = "".join(f"<th>{f.replace('_', ' ')}</th>" for f in fields)
        rows = "".join(
            "<tr><td>node " + str(n) + "</td>" + "".join(
                f"<td>{getattr(c, f)}</td>" for f in fields) + "</tr>"
            for n, c in enumerate(result.per_node_counters))
        body.append(f"<div class='card'><table><tr><th>node</th>{head}"
                    f"</tr>{rows}</table></div>")

    return _page(title, subtitle, "\n".join(body))


# ----------------------------------------------------------------------
# Sweep report
# ----------------------------------------------------------------------

def sweep_latency(results) -> MetricsRegistry:
    """Every ok cell's latency registry, merged (elementwise bucket
    addition -- associative, so the result is bit-identical regardless
    of job count or completion order)."""
    return MetricsRegistry.merged(
        MetricsRegistry.from_dict(r.summary.get("latency_hist"))
        for r in results if r.ok and r.summary)


def render_sweep_report(title: str, results, subtitle: str = "",
                        slo: Optional[dict] = None) -> str:
    """Sweep-level report over :class:`repro.parallel.pool.SpecResult`
    rows: orchestrator stats, merged operation-latency percentiles,
    optional SLO verdict, per-spec wall time, result table."""
    ok = [r for r in results if r.ok]
    cached = [r for r in results if r.cached]
    retried = [r for r in results if r.attempts > 1]
    executed = [r for r in results if not r.cached]
    tiles = [
        ("cells", str(len(results))),
        ("ok", str(len(ok))),
        ("failed", str(len(results) - len(ok))),
        ("cache hits", str(len(cached))),
        ("retried", str(len(retried))),
        ("exec wall", f"{sum(r.wall_s for r in executed):.1f} s"),
    ]
    if slo is not None:
        tiles.append(("SLO", "PASS" if slo["ok"] else "FAIL"))
    body = [_stat_tiles(tiles)]

    table = _percentile_table(sweep_latency(results))
    if table:
        body.append("<h2>Merged operation latency percentiles</h2>")
        body.append(table)
    if slo is not None:
        body.extend(_slo_section(slo))

    timed = [r for r in executed if r.wall_s > 0]
    if timed:
        rows = {r.spec.label: {"wall": r.wall_s} for r in timed}
        body.append(stacked_bar_chart(
            "Wall-clock time per executed spec", rows, ("wall",),
            unit="s"))

    head = ("<tr><th>spec</th><th>status</th><th>source</th>"
            "<th>attempts</th><th>wall s</th><th>checksum</th></tr>")
    cells = []
    for r in results:
        checksum = ""
        if r.summary and r.summary.get("data_checksum"):
            checksum = r.summary["data_checksum"][:12]
        cells.append(
            f"<tr><td>{html.escape(r.spec.label)}</td>"
            f"<td>{html.escape(r.status)}</td>"
            f"<td>{'cache' if r.cached else 'run'}</td>"
            f"<td>{r.attempts}</td><td>{r.wall_s:.2f}</td>"
            f"<td>{checksum}</td></tr>")
    body.append("<h2>Per-spec results</h2>")
    body.append(f"<div class='card'><table>{head}{''.join(cells)}"
                "</table></div>")
    failed = [r for r in results if not r.ok]
    if failed:
        body.append("<h2>Failures</h2>")
        for r in failed:
            tail = r.error.strip().splitlines()[-12:] if r.error else []
            body.append(f"<pre class='dump'>{html.escape(r.spec.label)}"
                        f" ({html.escape(r.status)})\n"
                        f"{html.escape(chr(10).join(tail))}</pre>")
    return _page(title, subtitle, "\n".join(body))
