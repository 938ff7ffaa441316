"""Tests for the command-line interface."""

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


def test_profile_command(capsys):
    assert main(["profile", "Volrend", "--scale", "test"]) == 0
    out = capsys.readouterr().out
    assert "sharing profile" in out
    assert "lock_acquire" in out


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
    and types of all 88 arguments over the 11 subcommands -- as one
    literal. Parent parsers share their action objects, so a
    ``set_defaults`` on one subcommand can silently change another;
    this is the test that sees it."""
    import hashlib
    import json

    surface = _cli_surface()
    assert len(surface) == 11
    assert sum(len(args) for args in surface.values()) == 88
    digest = hashlib.sha256(
        json.dumps(surface, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "7bb7ce98bb2bc3f52cd41b3d6c1c38ae"
        "19a40688b696a3c93a3ba1bdc9a9c564")


def test_sweep_flag_without_a_value_means_its_default(tmp_path, capsys,
                                                      monkeypatch):
    """``--variants`` / ``--threads`` / ``--apps`` given no value used
    to build an empty matrix and crash in ``max()``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["sweep", "--scale", "test", "--jobs", "1", "--apps",
                 "Volrend", "--variants", "--threads"]) == 0
    out = capsys.readouterr().out
    assert "sweep: 2 cells" in out
    assert "Volrend/base/t1/s2003" in out
    assert "Volrend/ft/t1/s2003" in out


def test_report_checks_the_window_the_run_ends_in(tmp_path, capsys):
    # The run's last hook comes ~1.6 ms before its end, and no quiet
    # window inside the run reaches 1 ms: only the check that detaching
    # the watchdog makes can put a wait-for graph in the report.
    assert main(["report", "--program-seed", "145", "--cluster-seed", "1",
                 "--plan-seed", "533", "--failures", "2",
                 "--watchdog-us", "1000", "--output", str(tmp_path)]) == 0
    assert "wait-for graph" in (tmp_path / "report.html").read_text()


@pytest.mark.parametrize("flag", ["--sample-us", "--watchdog-us"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_report_rejects_a_nonpositive_period(tmp_path, flag, value):
    # A sampling period that is not positive never moves the grid past
    # now; a watchdog horizon that is not positive calls every hook a
    # stall. Both are refused before the run starts.
    with pytest.raises(ConfigError, match="must be > 0"):
        main(["report", "--program-seed", "145", "--cluster-seed", "1",
              flag, value, "--output", str(tmp_path)])
    assert not (tmp_path / "report.html").exists()


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
