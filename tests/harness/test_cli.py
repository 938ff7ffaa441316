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
