"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

The two-clocks rule, applied metric by metric (A is the parent, B the
change):

* *exact*  -- simulated results and counts: must be equal;
* *host*   -- noisy and bounded: B may be worse than A by at most the
  bound, in the metric's direction; when the spread between either
  side's own repeats is wider than the bound the row reads
  ``unresolved`` instead of ``ok``;
* *info*   -- host figures kept for reading across machines (layer self
  times, calibration, ...): printed, never gated.

Units, directions and the host bounds come from ``BENCHMARK.json``
(``obs_on_ratio``, listed there without a bound, has its own here).
``sim_elapsed_us`` has a bound there only because the driver's runs
differ in seed; here, where seeds are equal, it is exact like every
other simulated figure. Exit code 1 on any regression.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Host metrics that gate. Their relative bounds are BENCHMARK.json's.
HOST_GATED = ("wall_s", "svm_ops_per_s", "setup_s", "peak_rss_mb",
              "obs_on_ratio")
OBS_ON_RATIO_BOUND = 0.10
#: Below this many seconds a set-up difference is interpreter start-up
#: noise, whatever share of the total it is.
SETUP_FLOOR_S = 0.2

#: Host metrics that never gate.
HOST_INFO_PREFIXES = ("host.",)
HOST_INFO_SUFFIXES = (".self_s", ".self_share", ".calls_in")
HOST_INFO = {
    "sim.host_us_per_event", "harness.wall_s_base", "harness.wall_s_ft",
    "harness.construct_s", "harness.cell_ms_p50", "harness.cell_ms_tail",
    "obs.attach_run_s", "obs.export_render_s",
}


def load_spec() -> Dict[str, dict]:
    """``{metric: {"unit", "better", "bound"}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"bound": OBS_ON_RATIO_BOUND, **m}
            for section in ("end_to_end", "per_layer")
            for m in spec[section]}


def clock_of(name: str) -> str:
    """``host`` (bounded), ``info`` (host, ungated) or ``exact``."""
    if name in HOST_GATED:
        return "host"
    if (name in HOST_INFO or name.startswith(HOST_INFO_PREFIXES)
            or name.endswith(HOST_INFO_SUFFIXES)):
        return "info"
    return "exact"


def _spread(samples) -> float:
    """Range of a side's own repeats as a share of their middle."""
    if not samples or len(samples) < 2:
        return 0.0
    middle = sorted(samples)[len(samples) // 2]
    return (max(samples) - min(samples)) / middle if middle else 0.0


def judge(name: str, a: float, b: float, entry: dict,
          spread: float = 0.0) -> str:
    clock = clock_of(name)
    if clock == "info":
        return "info"
    if clock == "exact":
        return "ok" if a == b else "REGRESSION"
    worse_by = (b - a) if entry["better"] == "lower" else (a - b)
    floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
    if worse_by > max(entry["bound"] * abs(a), floor):
        return "REGRESSION"
    return "unresolved" if spread > entry["bound"] else "ok"


def compare(doc_a: dict, doc_b: dict, out=sys.stdout) -> int:
    """Print one row per workload x metric; return regressions found."""
    spec = load_spec()
    regressions = 0
    if doc_a["meta"]["seed"] != doc_b["meta"]["seed"]:
        print("note: the two files were run with different seeds; the "
              "exact rows cannot agree", file=out)
    print(f"{'workload':12s} {'metric':42s} {'A':>16s} {'B':>16s} "
          f"{'B/A':>8s}  verdict", file=out)
    for workload, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(workload)
        if b is None:
            continue
        rows = [("result_digest", a["result_digest"][:12],
                 b["result_digest"][:12], "",
                 "ok" if a["result_digest"] == b["result_digest"]
                 else "REGRESSION")]
        for name, value_a in a["metrics"].items():
            value_b: Optional[float] = b["metrics"].get(name)
            if value_b is None:
                continue
            spread = max(_spread(side["samples"].get(name))
                         for side in (a, b))
            verdict = judge(name, value_a, value_b, spec[name], spread)
            ratio = f"{value_b / value_a:8.3f}" if value_a else "       -"
            rows.append((name, f"{value_a:.6g}", f"{value_b:.6g}", ratio,
                         verdict))
        for name, text_a, text_b, ratio, verdict in rows:
            regressions += verdict == "REGRESSION"
            print(f"{workload:12s} {name:42s} {text_a:>16s} "
                  f"{text_b:>16s} {ratio:>8s}  {verdict}", file=out)
    print(f"{regressions} regression(s)", file=out)
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(pathlib.Path(p).read_text())
                    for p in argv)
    return 1 if compare(doc_a, doc_b) else 0


if __name__ == "__main__":
    sys.exit(main())
