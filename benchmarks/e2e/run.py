"""End-to-end + per-layer benchmark runner.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out F] [--quick]
                                  [--selfcheck] [--known-bad]

(``PYTHONPATH=src:. python -m benchmarks.e2e.run`` is the same thing.)

Each workload runs in a fresh single-threaded subprocess on the pure
reference kernel (``REPRO_PURE=1`` is set before ``repro`` is
imported), in-process serial: no pool, no result cache. The parent only
spawns, prints and compares. Every metric is printed by name with its
unit; the last line of a workload's output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``)
that ``BENCHMARK.json`` names. Exit code is non-zero when a cell fails,
two passes disagree on ``result_digest``, or observability code ran
while off.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e2e import compare  # noqa: E402 -- needs ROOT on sys.path


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- worker ------------------------------------------------------------------

def _worker(args) -> int:
    """Runs in the subprocess: measure one workload, print its document
    as the last line of stdout."""
    from benchmarks.e2e.measure import measure

    doc = measure(args.workload, args.seed, args.seconds,
                  bool(args.trace), args.quick, args.spawned_at)
    print(json.dumps(doc))
    return 0


def run_workload(name: str, args) -> dict:
    """Spawn the worker for one workload and return its document."""
    env = dict(os.environ, REPRO_PURE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    command = [sys.executable, str(HERE / "run.py"), "--worker",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)),
               "--spawned-at", repr(time.time())]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit(f"worker for {name} exited with code "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- printing ----------------------------------------------------------------

def print_workload(doc: dict, spec: dict) -> None:
    metrics = doc["metrics"]
    tail = doc["cell_ms_tail"]
    print(f"== {doc['workload']}: seed {doc['seed']}, {doc['passes']:.1f} "
          f"untraced pass(es){' + 1 traced' if doc['traced'] else ''}, "
          f"{doc['attempted']} cells, build {doc['build']}"
          f"{', quick sizes' if doc['quick'] else ''} ==")
    for section in ("end_to_end", "per_layer"):
        print(f"-- {section} (host times: per cell the best of "
              f"{doc['passes']:.1f} pass(es), speed-normalised) --")
        for m in spec[section]:
            if m["name"] not in metrics:
                continue
            note = ""
            if m["name"] == "harness.cell_ms_tail" and tail["percentile"]:
                note = f"  (p{tail['percentile']} of {tail['n']})"
            value = metrics[m["name"]]
            shown = str(value) if isinstance(value, int) \
                else f"{value:.6f}"
            print(f"{doc['workload']:12s} {m['name']:42s} "
                  f"{shown:>18s} {m['unit']:10s} "
                  f"{compare.clock_of(m['name']):5s} {m['better']}"
                  f"{note}")
    print(f"{doc['workload']:12s} result_digest {doc['result_digest']}")
    for failure in doc["failures"]:
        print(f"FAILED {failure['label']}: {failure['error']}")
    if not doc["repeatable"]:
        print("FAILED result_digest differs between passes")
    if metrics["obs.calls_when_off"]:
        print("FAILED observability code ran while off "
              f"({metrics['obs.calls_when_off']} calls)")


def contract_line(doc: dict, spec: dict) -> str:
    """The driver's result line: end-to-end metrics untraced, per-layer
    metrics traced; a per-layer metric that does not apply reads 0."""
    section = "per_layer" if doc["traced"] else "end_to_end"
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": doc["metrics"].get(m["name"], 0),
                                "unit": m["unit"]}
                    for m in spec[section]}})


# -- modes -------------------------------------------------------------------

def run_set(names, args, spec, quiet: bool = False) -> dict:
    """Run the named workloads one at a time; return the result file."""
    out = {"meta": {"seed": args.seed, "quick": args.quick,
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "machine": platform.machine()},
           "workloads": {}}
    for name in names:
        doc = run_workload(name, args)
        out["workloads"][name] = doc
        if not quiet:
            print_workload(doc, spec)
            print(contract_line(doc, spec), flush=True)
    return out


def known_bad() -> int:
    """Run the configurations known_bad.json lists, untimed; report
    which still fail the way they did when they were recorded."""
    os.environ["REPRO_PURE"] = "1"
    from benchmarks.e2e.workloads import known_bad_runtime

    entries = json.loads((HERE / "known_bad.json").read_text())
    flipped = 0
    for entry in entries:
        try:
            known_bad_runtime(entry).run(
                verify=True, max_sim_us=entry.get("max_sim_us"))
            status = "ok"
        except Exception as exc:  # noqa: BLE001 -- the status is the output
            status = type(exc).__name__
        changed = status != entry["error"]
        flipped += changed
        print(f"{entry['name']:36s} recorded {entry['error']:20s} "
              f"now {status:20s} {'FLIPPED' if changed else 'unchanged'}")
    print(f"{flipped} of {len(entries)} known-bad configurations changed "
          "status")
    return 0


def main(argv=None) -> int:
    spec = _benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes, two passes")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and compare them")
    parser.add_argument("--known-bad", action="store_true")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.worker:
        return _worker(args)
    if args.known_bad:
        return known_bad()

    selected = [args.workload] if args.workload else names
    if args.selfcheck:
        first = run_set(selected, args, spec, quiet=True)
        second = run_set(selected, args, spec, quiet=True)
        regressions = compare.compare(first, second)
        correct = all(doc["correct"] for run in (first, second)
                      for doc in run["workloads"].values())
        return 1 if regressions or not correct else 0

    result = run_set(selected, args, spec)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(doc["correct"]
                    for doc in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
