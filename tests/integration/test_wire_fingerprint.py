"""Committed fingerprint of every message the fabric transmits.

``test_golden_fingerprints.py`` pins what a run computes and how long it
takes; this file pins the traffic underneath: the time, kind, source,
destination and wire size of every message handed to
``Network.transmit``, plus the run's event count and simulated end time.
A change to the communication layer (how a request finds its reply, how
a send is posted) that claims to leave simulated behaviour alone must
leave these digests alone.

The six runs cover requests and replies to live peers (queueing locks;
deposits, fetches and 165 answered probes), a model-check run with two
recoveries, probes that get no answer (three failures on five nodes),
requests to a dead node and failures striking during recovery.
Re-record on purpose with::

    PYTHONPATH=src python tests/integration/test_wire_fingerprint.py
"""

import hashlib
import pprint

import pytest

from repro.harness import build_app
from repro.net import Network
from repro.verify.replay import ReplayScenario, build_runtime

CASES = {
    "WaterNsq/base/2/queueing": lambda: build_app(
        "WaterNsq", "base", 2, scale="test", lock_algorithm="queueing"),
    "RadixLocal/ft/2": lambda: build_app(
        "RadixLocal", "ft", 2, scale="test"),
    "replay/145/1/533/2": lambda: build_runtime(
        ReplayScenario(145, 1, 533, 2)),
    "replay/145/1/437/3/5nodes": lambda: build_runtime(
        ReplayScenario(145, 1, 437, 3, num_nodes=5)),
    "replay/145/1/440/1": lambda: build_runtime(
        ReplayScenario(145, 1, 440, 1)),
    "replay/145/1/437/2/during_recovery": lambda: build_runtime(
        ReplayScenario(145, 1, 437, 2, during_recovery_prob=1.0)),
}


def fingerprint(make_runtime):
    digest = hashlib.sha256()
    transmit = Network.transmit

    def recording_transmit(network, msg):
        digest.update(repr((network.engine.now, msg.kind, msg.src,
                            msg.dst, msg.wire_bytes)).encode())
        transmit(network, msg)

    Network.transmit = recording_transmit
    try:
        runtime = make_runtime()
        result = runtime.run()
    finally:
        Network.transmit = transmit
    return {"wire_sha256": digest.hexdigest(),
            "events_executed": runtime.engine.events_executed,
            "elapsed_us": result.elapsed_us}


GOLDEN = {'RadixLocal/ft/2': {'wire_sha256': '94743ba68d262e16387952af4781c213bbf8a306d1e163735678846004842c13',
                     'events_executed': 119535,
                     'elapsed_us': 24567.622907839137},
 'WaterNsq/base/2/queueing': {'wire_sha256': '25faa9efd5395c95a4ca466a2eb4feb1a90d506156cdf1baf56b6c786dcc4eef',
                              'events_executed': 47509,
                              'elapsed_us': 7754.586249999969},
 'replay/145/1/437/2/during_recovery': {'wire_sha256': 'a371379a71a30a79ce3fc9aa4ca3c594f012eed970f944245d35f045c7bc5deb',
                                        'events_executed': 3093,
                                        'elapsed_us': 3939.5128921776195},
 'replay/145/1/437/3/5nodes': {'wire_sha256': '16e8a00138d4c97415e0d346ae73491b5ae3e17d3e99c7f720d3d90287f66216',
                               'events_executed': 5929,
                               'elapsed_us': 3803.005635196474},
 'replay/145/1/440/1': {'wire_sha256': '3a160d28f7816fedf7f4e36b7b88d12e05082c12062a00f8d5457fdebeea0310',
                        'events_executed': 3179,
                        'elapsed_us': 3511.726383341996},
 'replay/145/1/533/2': {'wire_sha256': '3d1b6132094bc14cd26207772c7948847cce332b4148ed4770eb813525aaaf6e',
                        'events_executed': 3443,
                        'elapsed_us': 4212.307520762189}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_wire_fingerprint(case):
    assert fingerprint(CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN = " + pprint.pformat(
        {case: fingerprint(CASES[case]) for case in sorted(CASES)},
        width=76, sort_dicts=False))
