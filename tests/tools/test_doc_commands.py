"""Every documented ``python -m repro`` command runs.

Scans README.md and ``docs/*.md`` line by line for ``python -m repro``,
joining ``\\`` continuations; the command is the rest of the line, up to
a closing backtick. Lines holding a ``<placeholder>`` are skipped. Each
command must parse under :func:`repro.cli.build_parser`, then run
through :func:`repro.cli.main` at ``--scale test`` (where the command
takes a scale) and exit 0 -- in document order, in a scratch working
directory that holds ``results/slo_default.json``.
"""

import pathlib
import re
import shlex
import shutil

import pytest

from repro.cli import build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[2]
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
COMMAND = re.compile(r"python -m repro\b([^`\n]*)")


def doc_commands(text: str):
    """The argument lists of the ``python -m repro`` lines of one
    Markdown document, in order."""
    for line in text.replace("\\\n", " ").splitlines():
        match = COMMAND.search(line)
        if match and "<" not in match.group(1):
            yield shlex.split(match.group(1))


def at_test_scale(argv):
    """``argv`` with ``--scale test`` when the command takes a scale."""
    if not hasattr(build_parser().parse_args(argv), "scale"):
        return argv
    if "--scale" in argv:
        at = argv.index("--scale") + 1
        return argv[:at] + ["test"] + argv[at + 1:]
    return argv + ["--scale", "test"]


def documented():
    return [(doc, argv) for doc in DOCS
            for argv in doc_commands(doc.read_text())]


def test_every_documented_command_parses():
    assert len(documented()) >= 10
    for doc, argv in documented():
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc.relative_to(REPO)}: repro {shlex.join(argv)}")


@pytest.mark.parametrize(
    "doc", sorted({doc for doc, _ in documented()}),
    ids=lambda doc: str(doc.relative_to(REPO)))
def test_documented_commands_run(doc, tmp_path, monkeypatch, capsys):
    (tmp_path / "results").mkdir()
    shutil.copy(REPO / "results" / "slo_default.json",
                tmp_path / "results")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    for argv in doc_commands(doc.read_text()):
        argv = at_test_scale(argv)
        assert main(argv) == 0, f"repro {shlex.join(argv)}"
        capsys.readouterr()


def test_the_scan_joins_lines_and_skips_placeholders():
    text = ("$ PYTHONPATH=src python -m repro report \\\n"
            "    --failures 2 --output results/report\n"
            "(`python -m repro run WaterNsq --profile 30`) put\n"
            "Run `python -m repro run <app> --variant base` and\n")
    assert list(doc_commands(text)) == [
        ["report", "--failures", "2", "--output", "results/report"],
        ["run", "WaterNsq", "--profile", "30"]]
    assert at_test_scale(["run", "FFT", "--scale", "bench"]) == [
        "run", "FFT", "--scale", "test"]
    assert at_test_scale(["replay", "--plan-seed", "533"]) == [
        "replay", "--plan-seed", "533"]
