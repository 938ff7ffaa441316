"""Seed sweep around a failing model-check case.

Runs ``FaultPlan.random_plan`` over a contiguous range of plan seeds
(times a set of failure counts) against one fixed program/cluster seed
pair, and reports every divergent combination -- the enumeration used
to pin regression seeds in
``tests/integration/test_recovery_regressions.py``.

Not a pytest module (no ``test_`` prefix): it is a search tool, run on
demand::

    PYTHONPATH=src python tests/tools/sweep_fault_seeds.py \
        --program-seed 145 --cluster-seed 1 \
        --plan-start 434 --plan-count 200 --failures 1,2 --check

Cases fan out over the parallel orchestrator (``--jobs`` /
``REPRO_JOBS``); completed cases are served from the content-addressed
result cache, so re-sweeping an extended seed range only runs the new
seeds. ``--no-cache`` forces every case to execute.
"""

from __future__ import annotations

import argparse
import random
import sys
import time


def clamp_notes(failure_counts, num_nodes) -> list:
    """Warnings for failure counts ``FaultPlan.random_plan`` will clamp.

    Returned (not just printed) so they land in the sweep ledger too: a
    ledger line reading "clean at failures=3" on a 4-node cluster would
    otherwise overclaim what was actually injected.
    """
    cap = num_nodes - 2
    return [
        f"note: failures={count} exceeds num_nodes-2={cap}; "
        f"FaultPlan.random_plan clamps to {cap} (grow --num-nodes to "
        f"actually inject {count})"
        for count in failure_counts if count > cap
    ]


def write_ledger(path, header_lines, body_lines) -> None:
    """Append one sweep record to the ledger file at ``path``."""
    with open(path, "a") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n" if line else "#\n")
        for line in body_lines:
            fh.write(line + "\n")
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program-seed", type=int, default=145)
    parser.add_argument("--cluster-seed", type=int, default=1)
    parser.add_argument("--plan-start", type=int, default=434,
                        help="first plan seed (default brackets the "
                             "145/1/533 case)")
    parser.add_argument("--plan-count", type=int, default=200)
    parser.add_argument("--failures", default="1,2",
                        help="comma-separated failure counts (e.g. "
                             "1,2,3; counts above num_nodes-2 are "
                             "clamped by FaultPlan.random_plan)")
    parser.add_argument("--num-nodes", type=int, default=4,
                        help="cluster size; at least failures+2 nodes "
                             "are needed for a plan to actually "
                             "inject that many failures")
    parser.add_argument("--during-recovery-prob", type=float, default=0.0,
                        help="probability that each failure after the "
                             "first strikes during the previous "
                             "recovery instead of after it")
    parser.add_argument("--ledger", default=None,
                        help="append the sweep summary (including "
                             "clamp warnings) to this ledger file")
    parser.add_argument("--check", action="store_true",
                        help="also attach the recovery invariant "
                             "checker to every run")
    parser.add_argument("--stop-after", type=int, default=None,
                        help="stop after N divergences")
    parser.add_argument("--max-sim-us", type=float, default=200_000.0,
                        help="simulated-time cap per run; exceeding it "
                             "counts as a divergence (deadlock)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS env "
                             "var, else os.cpu_count())")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the result cache")
    args = parser.parse_args(argv)

    from repro.parallel import model_check_spec, resolve_jobs, run_specs

    failure_counts = [int(x) for x in args.failures.split(",")]
    # FaultPlan.random_plan keeps at least two survivors, so a plan
    # seed at a too-high count produces the same victims as at the cap
    # -- run it anyway (the plan *schedule* differs: the rng consumes
    # the same draws but the count is clamped), but say so (and record
    # it in the ledger), because "clean at failures=3" on a 4-node
    # cluster proves nothing beyond failures=2.
    notes = clamp_notes(failure_counts, args.num_nodes)
    for note in notes:
        print(note, flush=True)
    seeds = range(args.plan_start, args.plan_start + args.plan_count)
    specs = [model_check_spec(args.program_seed, args.cluster_seed,
                              plan_seed, failures, check=args.check,
                              max_sim_us=args.max_sim_us,
                              num_nodes=args.num_nodes,
                              during_recovery_prob=args.during_recovery_prob)
             for plan_seed in seeds for failures in failure_counts]
    total = len(specs)
    bad = []
    start = time.time()
    print(f"sweeping {total} cases on {resolve_jobs(args.jobs)} "
          f"worker(s)", flush=True)

    def progress(res, done, _total):
        # `summary["status"]` classifies the *simulated* outcome; the
        # orchestrator status only goes non-ok on harness breakage.
        if res.ok and res.summary["status"] != "ok":
            p = res.spec.params
            print(f"DIVERGENT plan_seed={p['plan_seed']} "
                  f"failures={p['failures']}: {res.summary['status']}: "
                  f"{res.summary['detail']}", flush=True)
        if done % 50 == 0:
            rate = done / (time.time() - start)
            print(f"... {done}/{total} ({rate:.1f}/s)", flush=True)

    results = run_specs(specs, jobs=args.jobs, cache=not args.no_cache,
                        progress=progress)
    done = len(results)
    for res in results:
        p = res.spec.params
        if not res.ok:
            tail = res.error.strip().splitlines()[-1] if res.error else ""
            bad.append((p["plan_seed"], p["failures"], res.status, tail))
        elif res.summary["status"] != "ok":
            bad.append((p["plan_seed"], p["failures"],
                        res.summary["status"], res.summary["detail"]))
        if args.stop_after and len(bad) >= args.stop_after:
            break

    elapsed = time.time() - start
    knobs = (f", during_recovery_prob={args.during_recovery_prob:g}"
             if args.during_recovery_prob else "")
    summary = (f"swept {done}/{total} cases "
               f"(program_seed={args.program_seed}, "
               f"cluster_seed={args.cluster_seed}, plan seeds "
               f"{args.plan_start}..{args.plan_start + args.plan_count - 1}, "
               f"failures={failure_counts}, "
               f"num_nodes={args.num_nodes}{knobs})")
    print(f"\n{summary}  [{elapsed:.0f}s]")
    body = [summary]
    if bad:
        print(f"{len(bad)} divergent:")
        body.append(f"{len(bad)} divergent:")
        for plan_seed, failures, status, detail in bad:
            line = (f"  plan_seed={plan_seed} failures={failures}: "
                    f"{status}")
            print(line)
            body.append(line)
    else:
        print("all clean")
        body.append("all clean")
    if args.ledger:
        write_ledger(args.ledger, notes, body)
    return 1 if bad else 0


if __name__ == "__main__":
    # Re-run `random_plan` ordering sanity before a long sweep: the
    # plan for a given seed must not depend on process hash seeds.
    assert random.Random(1).random() == random.Random(1).random()
    sys.exit(main())
