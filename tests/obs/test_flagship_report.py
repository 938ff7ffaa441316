"""The flagship ``repro report`` artifacts, pinned byte for byte.

CI's obs job runs this command and checks its four files with
``sha256sum -c tests/obs/flagship_report.sha256``. The recorder and
optrace digests pin what the observers record; this pin also covers
the sampler counters and flow events of ``trace.json``, the latency
book of ``metrics.json``, the SLO verdict and the rendered HTML.
A change that moves any of them on purpose re-pins the file with
``sha256sum trace.json metrics.json slo.json report.html`` run in
the output directory.
"""

import hashlib
import pathlib

from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parents[2]
PIN = pathlib.Path(__file__).with_name("flagship_report.sha256")


def test_flagship_report_artifacts_match_the_pin(tmp_path, capsys):
    assert main(["report", "--program-seed", "145", "--cluster-seed", "1",
                 "--plan-seed", "533", "--failures", "2",
                 "--spec", str(REPO / "results" / "slo_default.json"),
                 "--output", str(tmp_path)]) == 0
    pinned = {}
    for line in PIN.read_text().splitlines():
        digest, name = line.split()
        pinned[name] = digest
    assert sorted(pinned) == ["metrics.json", "report.html", "slo.json",
                              "trace.json"]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in pinned}
    assert got == pinned
