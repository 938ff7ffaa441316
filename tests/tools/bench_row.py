"""Append one row to the benchmark trajectory, results/BENCH_e2e.jsonl.

    python tests/tools/bench_row.py COMMIT OUT.json [OUT.json ...]

One side's ``benchmarks/e2e/run.py --out`` files (one a seed) become a
row: the commit, each workload's medians of the five end-to-end metrics,
and the ``result_digest`` and exact counters of the lowest seed (run.py's
default, so that one plain run compares).
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
from benchmarks.e2e.compare import clock_of  # noqa: E402


def row(commit: str, docs: list) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = sorted(docs, key=lambda doc: doc["meta"]["seed"])
    workloads = {}
    for name, first in docs[0]["workloads"].items():
        runs = [doc["workloads"][name]["metrics"] for doc in docs]
        workloads[name] = {
            "median": {m["name"]: statistics.median(r[m["name"]] for r in runs)
                       for m in spec["end_to_end"]},
            "result_digest": first["result_digest"],
            "exact": {m: v for m, v in first["metrics"].items()
                      if clock_of(m) == "exact"}}
    return {"commit": commit, "workloads": workloads,
            "seeds": [doc["meta"]["seed"] for doc in docs]}


if __name__ == "__main__":
    docs = [json.loads(pathlib.Path(p).read_text()) for p in sys.argv[2:]]
    with open(ROOT / "results" / "BENCH_e2e.jsonl", "a") as fh:
        fh.write(json.dumps(row(sys.argv[1], docs), sort_keys=True) + "\n")
