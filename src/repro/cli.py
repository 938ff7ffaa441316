"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` -- one application under one protocol, with breakdown output;
* ``suite`` -- the six-application comparison (Figure 7 style);
* ``figures`` -- regenerate all four paper figures into a directory;
* ``sweep`` -- fan an experiment matrix out over the parallel
  orchestrator with content-addressed result caching (exit 1 on a
  failed cell or, with ``--slo``, a violated latency target);
* ``report`` -- one observed run: Perfetto trace, metrics JSON and an
  HTML report (with ``--spec``, an SLO gate: exit 1 on a violation);
* ``recover`` -- fault-injection demo with a recovery timeline (exit 1
  when the kill never fired);
* ``replay`` -- run a model-check scenario under the invariant checker;
  on divergence, bisect to the first event where protocol state
  departs from the shadow oracle;
* ``list`` -- available applications and scales.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.experiments import APP_ORDER, build_app, run_app
from repro.metrics import format_breakdown_table

VARIANTS = ("base", "ft")


def _outdir(name) -> pathlib.Path:
    """``name`` as a directory that exists."""
    path = pathlib.Path(name)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: pathlib.Path, document) -> pathlib.Path:
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
    return path


def _cmd_list(_args) -> int:
    print("applications:", ", ".join(APP_ORDER))
    print("scales: test (seconds), bench (default), large (minutes)")
    print("protocols: base (GeNIMA), ft (extended fault-tolerant)")
    return 0


def _cmd_run(args) -> int:
    result = run_app(args.app, args.variant,
                     threads_per_node=args.threads,
                     scale=args.scale)
    print(f"{args.app} / {args.variant} / {args.threads} thread(s) per "
          f"node / scale={args.scale}")
    print(f"simulated execution time: {result.elapsed_us:.0f} us")
    print()
    six = result.breakdown.six_component()
    total = sum(six.values())
    for component, value in six.items():
        share = value / total * 100 if total else 0.0
        print(f"  {component:16s} {value:12.1f} us  {share:5.1f}%")
    totals = result.counters.total
    print()
    print(f"  page faults {totals.page_faults}, pages diffed "
          f"{totals.pages_diffed} (home fraction "
          f"{result.counters.home_diff_fraction:.2f}), lock acquires "
          f"{totals.lock_acquires}, checkpoints {totals.checkpoints}")
    return 0


def _cmd_suite(args) -> int:
    rows = {}
    overheads = {}
    for app in APP_ORDER:
        base = run_app(app, "base", scale=args.scale)
        extended = run_app(app, "ft", scale=args.scale)
        rows[f"{app}/0"] = base.breakdown.four_component()
        rows[f"{app}/1"] = extended.breakdown.four_component()
        overheads[app] = (extended.elapsed_us / base.elapsed_us - 1) * 100
    print(format_breakdown_table(
        "SPLASH-2 suite, 8 nodes x 1 thread(s)/node "
        "(0 = base, 1 = extended)",
        rows, ("compute", "data_wait", "lock", "barrier")))
    print()
    for app, pct in overheads.items():
        print(f"  {app:12s} FT overhead {pct:6.1f}%")
    return 0


def _cmd_figures(args) -> int:
    from repro.harness.figures import FIGURES, figure
    outdir = _outdir(args.output)
    for number in FIGURES:
        _data, text = figure(number, scale=args.scale)
        path = outdir / f"fig{number}.txt"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    """Run an experiment matrix through the parallel orchestrator."""
    from repro.obs import SloSpec, evaluate_slo, format_slo_report
    from repro.obs.report import render_sweep_report, sweep_latency
    from repro.obs.slo import latency_by_class
    from repro.parallel import app_spec, resolve_jobs, run_specs

    # Load the spec before the matrix runs: a bad one fails in seconds.
    spec = SloSpec.load(args.slo) if args.slo else None
    specs = [app_spec(app, variant, scale=args.scale)
             for variant in VARIANTS
             for app in args.apps or APP_ORDER]
    jobs = resolve_jobs(args.jobs)
    setup = f"{jobs} worker(s), cache on"
    print(f"sweep: {len(specs)} cells, {setup}")

    live = sys.stderr.isatty()

    def progress(res, done, total):
        src = "cache" if res.cached else f"{res.wall_s:5.1f}s"
        line = (f"[{done:3d}/{total}] {res.status:7s} {src:>6s}  "
                f"{res.spec.label}")
        if live:
            print(f"\r\x1b[K{line}", end="" if done < total else "\n",
                  file=sys.stderr, flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    results = run_specs(specs, jobs=args.jobs, progress=progress)
    hits = sum(r.cached for r in results)
    failed = [r for r in results if not r.ok]
    latency = sweep_latency(results)
    slo_report = evaluate_slo(spec, latency) if spec is not None else None
    if args.report:
        outdir = _outdir(args.report)
        # Machine-readable merged latency histograms next to the sweep
        # report: per-op sparse buckets plus the derived percentiles.
        merged = {"histograms": latency.to_dict()["histograms"],
                  "percentiles": {op: hist.percentiles() for op, hist
                                  in latency_by_class(latency).items()}}
        print(f"wrote {_write_json(outdir / 'metrics.json', merged)}")
        if slo_report is not None:
            print(f"wrote {_write_json(outdir / 'slo.json', slo_report)}")
        path = outdir / "sweep.html"
        path.write_text(render_sweep_report(
            f"Sweep report: {len(specs)} cells",
            results,
            subtitle=f"scale={args.scale}, {setup}",
            slo=slo_report))
        print(f"wrote {path}")
    if slo_report is not None:
        print(format_slo_report(slo_report))
    print(f"{len(results) - len(failed)}/{len(results)} ok, "
          f"{hits} served from cache")
    width = max(len(r.spec.label) for r in results)
    for res in results:
        if res.ok:
            summary = res.summary
            print(f"  {res.spec.label:{width}s}  "
                  f"elapsed {summary['elapsed_us']:12.1f} us  "
                  f"checksum {summary['data_checksum'][:12]}")
        else:
            tail = res.error.strip().splitlines()[-1] if res.error else ""
            print(f"  {res.spec.label:{width}s}  {res.status}: {tail}")
    if slo_report is not None and not slo_report["ok"]:
        return 1
    return 1 if failed else 0


def _scenario(args, **shape):
    """The model-check scenario the scenario flag group describes;
    ``shape`` sets the other :class:`ReplayScenario` fields."""
    from repro.verify.replay import ReplayScenario
    return ReplayScenario(
        program_seed=args.program_seed, cluster_seed=args.cluster_seed,
        plan_seed=args.plan_seed, failures=args.failures, **shape)


def _build_observed_runtime(args):
    """Runtime + (title, subtitle) for ``repro report``: an application
    run, or (with ``--program-seed``) a RandomProgram model-check
    scenario."""
    if args.program_seed is not None:
        from repro.verify.replay import build_runtime
        scenario = _scenario(args, variant=args.variant,
                             threads_per_node=args.threads)
        runtime = build_runtime(scenario)
        title = (f"RandomProgram {args.program_seed}/{args.cluster_seed}"
                 + (f", plan {args.plan_seed} x{args.failures} failure(s)"
                    if args.plan_seed is not None else ""))
        threads = (f", {scenario.threads_per_node} threads per node"
                   if scenario.threads_per_node != 1 else "")
        subtitle = (f"{scenario.variant} protocol{threads}, "
                    "model-check scenario")
    else:
        runtime = build_app(args.app, args.variant, args.threads,
                            args.scale)
        title = f"{args.app} / {args.variant}"
        subtitle = (f"{runtime.config.num_nodes} nodes x {args.threads} "
                    f"thread(s), scale={args.scale}")
    return runtime, title, subtitle


def _cmd_report(args) -> int:
    """Run once with full observability attached and write a Perfetto
    trace plus a self-contained HTML report; with ``--spec``, also
    gate on an SLO spec."""
    import resource
    from itertools import chain
    from time import perf_counter

    from repro.obs import (
        FlightRecorder,
        OpTracer,
        SloSpec,
        StallWatchdog,
        TimeSeriesSampler,
        evaluate_slo,
        format_slo_report,
    )
    from repro.obs.report import render_run_report

    spec = SloSpec.load(args.spec) if args.spec else None
    runtime, title, subtitle = _build_observed_runtime(args)
    started = perf_counter()
    recorder = FlightRecorder(runtime)
    tracer = OpTracer(runtime)
    sampler = TimeSeriesSampler(runtime)
    watchdog = StallWatchdog(runtime, recorder=recorder)
    sampler.start()
    watchdog.start()
    result, error = None, None
    try:
        result = runtime.run(max_sim_us=args.max_sim_us)
    except Exception as exc:  # noqa: BLE001 -- reported in the output
        error = f"{type(exc).__name__}: {exc}"
    finally:
        # Fills the sampler's grid to the run's end and checks the
        # window the run ended in, so a run that ends stalled -- at its
        # cap, or interrupted (Ctrl-C) -- gets its dump on stderr.
        sampler.detach()
        watchdog.detach()
    ran = perf_counter()

    outdir = _outdir(args.output)
    trace_path = outdir / "trace.json"
    # Causal-trace flow events ride the extra-events parameter so the
    # flight recorder's own digest (computed without extras) is
    # untouched; Perfetto draws them as arrows between node processes.
    # They are encoded as the tracer's walk produces them.
    events = recorder.export(
        trace_path,
        counters=chain(sampler.to_chrome_counters(recorder.cluster_pid),
                       tracer.iter_flow_events()))
    metrics_path = _write_json(outdir / "metrics.json",
                               runtime.latency.to_dict())
    slo = None
    if spec is not None:
        # A failed run has no end time: its availability is not judged.
        slo = evaluate_slo(
            spec, runtime.latency,
            elapsed_us=result.elapsed_us if result else None,
            exposed_window_us=result.exposed_window_us if result else 0.0)
        slo_path = _write_json(outdir / "slo.json", slo)
    exported = perf_counter()
    html_path = outdir / "report.html"
    html_path.write_text(render_run_report(
        title, subtitle + (f" -- FAILED: {error}" if error else ""),
        result=result, recorder=recorder, sampler=sampler,
        watchdog=watchdog, trace_file=trace_path.name, tracer=tracer,
        slo=slo))
    rendered = perf_counter()
    print(f"wrote {trace_path} ({events} events; open at "
          "ui.perfetto.dev)")
    print(f"wrote {metrics_path} ({len(tracer)} traced ops)")
    if slo is not None:
        print(f"wrote {slo_path}")
    print(f"wrote {html_path}")
    # The cost of observing, on the host clock and in the process's
    # peak resident memory (ru_maxrss is in KB on Linux); printed only,
    # so the artifacts stay a function of the seeds.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"host time: run {ran - started:.2f} s (observers attached), "
          f"export {exported - ran:.2f} s, render {rendered - exported:.2f} s"
          f"; peak RSS {peak_mb:.1f} MB")
    if sampler.times:
        from repro.metrics import timeseries_panel
        times, rates = sampler.rates()
        print()
        print(timeseries_panel("protocol activity (events/ms)",
                               times, rates, unit="/ms"))
    if error:
        print(f"run failed: {error}")
        if watchdog.dumps:
            print(watchdog.dumps[-1])
        return 1
    if slo is not None:
        print()
        print(format_slo_report(slo))
        if not slo["ok"]:
            # Fail loudly: the worst causal tree of every violated
            # operation class, so the attribution is in the log.
            for op_class in sorted({c["op_class"] for c in slo["checks"]
                                    if not c["ok"]}):
                for op_id in tracer.worst(1, op_class):
                    print()
                    print(f"worst {op_class} exemplar:")
                    print(tracer.render(op_id))
            return 1
    return 0


def _cmd_recover(args) -> int:
    from repro.cluster import Hooks
    from repro.harness.faultplan import FaultPlan
    from repro.metrics import ProtocolTrace

    runtime = build_app(args.app, "ft", scale=args.scale)
    [kill] = FaultPlan.single(args.victim, Hooks.RELEASE_COMMITTED,
                              args.occurrence, 1.0).apply(runtime.cluster)
    timeline = ProtocolTrace(runtime.cluster, events=(
        Hooks.FAILURE_DETECTED, Hooks.RECOVERY_START,
        Hooks.THREAD_RESUMED, Hooks.RECOVERY_DONE))
    result = runtime.run()
    if kill.fired_at is None:
        print(f"{args.app}: node {args.victim} never reached its "
              f"{args.occurrence}th release; no node was killed.")
        return 1
    print(f"{args.app}: node {args.victim} fail-stopped at "
          f"{kill.fired_at:.1f}us, in its {args.occurrence}th release; "
          f"result verified.")
    for t, event, node_id, info in timeline:
        print(f"  {t:12.1f}us  {event:18s} node={node_id} "
              + (f"tid={info['tid']}" if "tid" in info else "")
              + (f"took={info['duration_us']:.1f}us"
                 if "duration_us" in info else ""))
    print(f"recoveries: {result.recoveries}; "
          f"live nodes: {runtime.cluster.live_nodes()}")
    return 0


def _cmd_replay(args) -> int:
    from repro.verify.replay import replay

    scenario = _scenario(args, variant=args.variant,
                         threads_per_node=args.threads)
    print(f"replaying program_seed={scenario.program_seed} "
          f"cluster_seed={scenario.cluster_seed} "
          f"plan_seed={scenario.plan_seed} failures={scenario.failures} "
          f"variant={scenario.variant} "
          f"threads_per_node={scenario.threads_per_node}")
    run, first = replay(scenario)
    if run.outcome == "clean" and not run.findings:
        print("PASS: run completed and all recovery invariants held")
        return 0
    if run.error is not None:
        print(f"run failed: {run.error}")
    for finding in run.findings:
        print(f"  {finding.time_us:12.1f}us  {finding.invariant}: "
              f"{finding.detail}")
    if run.outcome == "hang":
        print(f"HANG: sim-time cap reached with threads "
              f"{run.unfinished} unfinished -- liveness bug, not a state "
              f"mismatch; run under the stall watchdog for wait-for "
              f"edges")
    elif first is None:
        print("bisection: no auditable stop diverges from the oracle "
              "(divergence is transient or end-state only)")
    else:
        print(f"bisection ({first['probes']} re-runs): first auditable "
              f"divergence at t={first['time_us']:.1f}us")
        for ev in first["events"]:
            print(f"  {ev}")
        for finding in first["findings"]:
            print(f"    -> {finding.invariant}: {finding.detail}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant SVM cluster simulator (HPCA 2003 "
                    "reproduction)")

    def flag(*names, **kwargs):
        """A parent parser holding one flag several commands share."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    threads = flag("--threads", type=int, default=1,
                   help="compute threads per node")
    scale = flag("--scale", default="bench",
                 choices=("test", "bench", "large"))
    variant = flag("--variant", choices=VARIANTS, default="ft")

    def scenario(program_seed_default):
        """The model-check scenario flag group, read by ``_scenario``.
        A fresh parser per command: parent parsers share their action
        objects, so one command's default would become every
        command's."""
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument("--program-seed", type=int,
                           default=program_seed_default,
                           help="RandomProgram seed of a model-check "
                                "scenario (report: observe it instead "
                                "of an application)")
        group.add_argument("--cluster-seed", type=int, default=1)
        group.add_argument("--plan-seed", type=int, default=None)
        group.add_argument("--failures", type=int, default=0)
        return group

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and scales"
                   ).set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one application",
                           parents=[variant, threads, scale])
    p_run.add_argument("app", choices=APP_ORDER)
    p_run.add_argument(
        "--profile", type=int, nargs="?", const=25, default=None,
        metavar="N",
        help="run under cProfile and print the top N functions by "
             "cumulative host time (default 25)")
    p_run.set_defaults(fn=_cmd_run)

    sub.add_parser("suite", help="base-vs-extended suite table",
                   parents=[scale]).set_defaults(fn=_cmd_suite)

    p_fig = sub.add_parser("figures", help="regenerate paper figures",
                           parents=[scale])
    p_fig.add_argument("--output", default="results")
    p_fig.set_defaults(fn=_cmd_figures)

    p_sweep = sub.add_parser(
        "sweep", help="parallel, cached experiment matrix (base and "
                      "ft, 1 thread per node)",
        parents=[scale])
    p_sweep.add_argument("--apps", nargs="*", choices=APP_ORDER,
                         metavar="APP",
                         help="subset of applications (default: all)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS "
                              "env var, else os.cpu_count())")
    p_sweep.add_argument("--report", metavar="DIR", default=None,
                         help="also write a sweep-level HTML report "
                              "(orchestrator stats, per-spec timing) "
                              "plus merged metrics JSON into DIR")
    p_sweep.add_argument("--slo", metavar="SPEC", default=None,
                         help="evaluate the merged latency histograms "
                              "against an SLO spec JSON; non-zero exit "
                              "on violation (with --report, also write "
                              "slo.json into DIR)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_report = sub.add_parser(
        "report", help="run with observability on; write Perfetto "
                       "trace + metrics JSON + HTML report",
        parents=[variant, threads, scenario(None)])
    p_report.add_argument("--app", choices=APP_ORDER, default="FFT",
                          help="application to observe (without "
                               "--program-seed only)")
    p_report.add_argument("--scale", default="bench",
                          choices=("test", "bench", "large"),
                          help="application scale (without "
                               "--program-seed only)")
    p_report.add_argument("--max-sim-us", type=float, default=None,
                          help="cap simulated time (deadlock hunts: "
                               "the watchdog sees a stall that never "
                               "ends only once the run stops, at this "
                               "cap or on Ctrl-C)")
    p_report.add_argument("--output", default="results/report",
                          metavar="DIR")
    p_report.add_argument("--spec", default=None, metavar="JSON",
                          help="SLO spec file (e.g. "
                               "results/slo_default.json): write "
                               "slo.json, add the SLO section to the "
                               "report, and exit 1 on a violation")
    p_report.set_defaults(fn=_cmd_report)

    p_rec = sub.add_parser("recover", help="fault-injection demo",
                           parents=[scale])
    p_rec.add_argument("--app", choices=APP_ORDER, default="WaterNsq")
    p_rec.add_argument("--victim", type=int, default=3)
    p_rec.add_argument("--occurrence", type=int, default=4,
                       help="kill at the victim's Nth release")
    p_rec.set_defaults(fn=_cmd_recover)

    sub.add_parser(
        "replay", help="run a model-check scenario under the checker; "
                       "bisect a divergence",
        parents=[variant, threads, scenario(145)]
    ).set_defaults(fn=_cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", None) is None:
        return args.fn(args)
    # Host-side profiling: where does the simulator itself spend time?
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    rc = profiler.runcall(args.fn, args)
    print()
    print(f"-- host profile: top {args.profile} by cumulative time --")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.profile)
    return rc


if __name__ == "__main__":
    sys.exit(main())
