"""Tests for the command-line interface."""

import functools
import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "FFT" in out
    assert "WaterNsq" in out


def test_run_command_test_scale(capsys):
    assert main(["run", "Volrend", "--scale", "test",
                 "--variant", "ft"]) == 0
    out = capsys.readouterr().out
    assert "simulated execution time" in out
    assert "checkpoints" in out


def test_run_command_base_variant(capsys):
    assert main(["run", "Volrend", "--scale", "test",
                 "--variant", "base"]) == 0
    out = capsys.readouterr().out
    assert "checkpoints 0" in out


def test_recover_command(capsys):
    assert main(["recover", "--app", "Volrend", "--scale", "test",
                 "--victim", "2", "--occurrence", "2"]) == 0
    out = capsys.readouterr().out
    assert "recoveries: 1" in out
    assert "recovery_done" in out


def test_recover_command_fails_when_the_kill_never_fires(capsys):
    assert main(["recover", "--app", "Volrend", "--scale", "test",
                 "--victim", "2", "--occurrence", "1000"]) == 1
    out = capsys.readouterr().out
    assert "no node was killed" in out
    assert "fail-stopped" not in out


def test_recover_command_rejects_a_victim_outside_the_cluster(capsys):
    with pytest.raises(ConfigError, match="cannot kill node 99"):
        main(["recover", "--app", "Volrend", "--scale", "test",
              "--victim", "99"])
    assert capsys.readouterr().out == ""


def test_figures_command(tmp_path, capsys):
    assert main(["figures", "--scale", "test",
                 "--output", str(tmp_path)]) == 0
    for name in ("fig7", "fig8", "fig9", "fig10"):
        text = (tmp_path / f"{name}.txt").read_text()
        assert "FFT/0" in text
        assert "FFT/1" in text


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "NotAnApp"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _cli_surface():
    """{subcommand: sorted (flags or dest, default, nargs, choices,
    type) of every argument it accepts}, read from the live parser."""
    import argparse

    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(
            (" ".join(a.option_strings) or a.dest, repr(a.default),
             repr(a.nargs),
             repr(None if a.choices is None else list(a.choices)),
             getattr(a.type, "__name__", repr(a.type)))
            for a in p._actions
            if not isinstance(a, argparse._HelpAction))
        for name, p in sub.choices.items()}


def test_cli_surface_is_pinned():
    """What a user can type -- option strings, defaults, nargs, choices
    and types of all 34 arguments over the 8 subcommands -- as one
    literal. Parent parsers share their action objects, so a
    ``set_defaults`` on one subcommand can silently change another;
    this is the test that sees it."""
    import hashlib
    import json

    surface = _cli_surface()
    assert len(surface) == 8
    assert sum(len(args) for args in surface.values()) == 34
    digest = hashlib.sha256(
        json.dumps(surface, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "23bb59c8d3256562158e5fa18edcabae"
        "53226542f7ae02d97b37722430f511df")


def test_replay_builds_the_variant_and_threads_it_is_given(capsys,
                                                          monkeypatch):
    import repro.verify.replay as replay_mod
    seen = []
    real = replay_mod.replay

    def spy(scenario):
        seen.append(scenario)
        return real(scenario)

    monkeypatch.setattr(replay_mod, "replay", spy)
    assert main(["replay", "--program-seed", "145", "--cluster-seed", "1",
                 "--variant", "base", "--threads", "2"]) == 0
    assert seen == [replay_mod.ReplayScenario(
        program_seed=145, cluster_seed=1, variant="base",
        threads_per_node=2)]
    out = capsys.readouterr().out
    assert "variant=base threads_per_node=2" in out
    # No invariant checker rides a base run: the verdict says what was
    # checked, the run's end and its verified result.
    assert "PASS: run completed and its result was verified" in out
    assert "invariant" not in out


def test_replay_of_an_ft_run_reports_its_invariants(capsys):
    assert main(["replay", "--program-seed", "145", "--cluster-seed", "1",
                 "--plan-seed", "533", "--failures", "2"]) == 0
    assert "PASS: run completed and all recovery invariants held" \
        in capsys.readouterr().out


def test_sweep_flag_without_a_value_means_its_default(tmp_path, capsys,
                                                      monkeypatch):
    """``--apps`` given no value used to build an empty matrix and
    crash in ``max()``. (One application stands in for all six.)"""
    import repro.cli as cli
    monkeypatch.setattr(cli, "APP_ORDER", ("Volrend",))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["sweep", "--scale", "test", "--jobs", "1",
                 "--apps"]) == 0
    out = capsys.readouterr().out
    assert "sweep: 2 cells" in out
    assert "Volrend/base/t1/s2003" in out
    assert "Volrend/ft/t1/s2003" in out


def test_sweep_slo_gates_without_report(tmp_path, capsys, monkeypatch):
    # --slo used to be read only under --report: without it a violated
    # spec exited 0. No page fault takes 1 us or less.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tight.json").write_text(json.dumps({
        "name": "tight",
        "latency_targets_us": {"page_fault": {"p50": 1}}}))
    assert main(["sweep", "--scale", "test", "--apps", "FFT", "--jobs",
                 "1", "--slo", "tight.json"]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    # Without --report nothing is written.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache",
                                                          "tight.json"]


def test_report_checks_the_window_the_run_ends_in(tmp_path, capsys,
                                                  monkeypatch):
    # The run's last hook comes ~1.6 ms before its end, and no quiet
    # window inside the run reaches 1 ms: only the check that detaching
    # the watchdog makes can put a wait-for graph in the report.
    import repro.obs
    monkeypatch.setattr(repro.obs, "StallWatchdog", functools.partial(
        repro.obs.StallWatchdog, horizon_us=1000.0))
    assert main(["report", "--program-seed", "145", "--cluster-seed", "1",
                 "--plan-seed", "533", "--failures", "2",
                 "--output", str(tmp_path)]) == 0
    assert "wait-for graph" in (tmp_path / "report.html").read_text()


def test_report_spec_gates_and_explains(tmp_path, capsys):
    # The flagship scenario against a spec it cannot meet: slo.json and
    # the report's SLO section are written, the verdict and the worst
    # page fault's causal tree are printed, and the exit code is 1.
    spec = tmp_path / "tight.json"
    spec.write_text(json.dumps({
        "name": "tight",
        "latency_targets_us": {"page_fault": {"p50": 1}}}))
    out_dir = tmp_path / "out"
    assert main(["report", "--program-seed", "145", "--cluster-seed", "1",
                 "--spec", str(spec), "--output", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "worst page_fault exemplar:" in out
    slo = json.loads((out_dir / "slo.json").read_text())
    assert slo["spec"] == "tight" and not slo["ok"]
    assert "SLO: tight" in (out_dir / "report.html").read_text()


def test_report_observes_the_scenario_it_is_given(tmp_path, capsys):
    assert main(["report", "--program-seed", "145", "--cluster-seed", "1",
                 "--variant", "base", "--threads", "2",
                 "--output", str(tmp_path)]) == 0
    html = (tmp_path / "report.html").read_text()
    assert "base protocol, 2 threads per node, model-check scenario" \
        in html
    assert "thread 7" in html  # 4 nodes x 2 threads


def test_report_interrupted_hunt_still_prints_its_waitfor_graph(
        tmp_path, capsys, monkeypatch):
    # A stall with no hook after it and no cap is only seen when the
    # run stops; Ctrl-C stops it with KeyboardInterrupt, which the
    # report's error handling does not catch.
    import repro.cli as cli
    build = cli._build_observed_runtime

    def stalled_then_interrupted(args):
        runtime, title, subtitle = build(args)

        def run(max_sim_us=None):
            # The last thread is never spawned: everyone else parks at
            # the first barrier, and the hook stream goes quiet.
            runtime.workload.setup(runtime)
            runtime._create_threads()
            for rec in runtime.threads[:-1]:
                runtime.spawn_thread(rec)
            runtime.engine.run(until=100_000.0)
            raise KeyboardInterrupt
        runtime.run = run
        return runtime, title, subtitle

    monkeypatch.setattr(cli, "_build_observed_runtime",
                        stalled_then_interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["report", "--program-seed", "145", "--cluster-seed", "1",
              "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert "wait-for graph" in err
    assert "barrier" in err
