"""Committed golden fingerprints of replica placement after recovery.

The data checksums and trace digests pinned elsewhere would survive a
change that elected different (but equally valid) replacement replicas,
or the same ones under different map epochs. These literals would not:
they hash where every page, lock and checkpoint ward keeps its two
copies once a fault-injection run has finished, together with the home
map's epoch and failed set -- "same elections, same epochs", directly.

A refactor that claims to leave recovery behaviour alone must leave
this file alone. A change that moves placement on purpose re-records
it with::

    PYTHONPATH=src python tests/integration/test_placement_fingerprint.py
"""

import hashlib
import pprint

import pytest

from repro.verify.replay import ReplayScenario, build_runtime

CASES = {
    # The flagship divergence scenario: two chained failures, 4 nodes.
    "145/1/533x2": ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533, failures=2),
    # Three failures on five nodes: down to the two-node floor.
    "145/1/434x3@5": ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=434, failures=3,
        num_nodes=5),
    # The second node dies *during* the first one's recovery, so its
    # wave elects against a batch sibling's map snapshot.
    "145/1/436x2@5/during": ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=436, failures=2,
        num_nodes=5, during_recovery_prob=1.0),
}


def placement(scenario):
    """(epoch, failed nodes, sha256 of every replica pair) at the end
    of the scenario's run."""
    runtime = build_runtime(scenario)
    runtime.run(max_sim_us=200_000.0)
    homes = runtime.homes
    failed = sorted(homes.failed)
    rows = [("page", page, homes.primary_home(page),
             homes.secondary_home(page))
            for page in homes.allocated_pages()]
    rows += [("lock", lock_id, homes.lock_primary(lock_id),
              homes.lock_secondary(lock_id))
             for lock_id in range(homes.num_locks)]
    rows += [("ward", node, node, homes.backup_node(node))
             for node in range(homes.num_nodes) if node not in failed]
    digest = hashlib.sha256(
        repr((homes.epoch, failed, rows)).encode()).hexdigest()
    return homes.epoch, failed, digest


#: Recorded at 9668b89 (the commit before the replica rings).
GOLDEN = {
    "145/1/434x3@5": (
        22, [0, 2, 4],
        "7f8294f50683c812c5100e6975a3ab2c1e13beb94c88823b061dc27fc4f59162"),
    "145/1/436x2@5/during": (
        26, [3, 4],
        "aa528accff6c68c14fc9a255ece4b19b57b373afb3d8250a012ed8b4c3a8af99"),
    "145/1/533x2": (
        10, [0, 3],
        "d96105d595ab2dc31b2c5e4e26bd69758301204fe8a6a4cf050f56e366ee60dd"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_placement_matches_golden(name):
    assert placement(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    pprint.pprint({name: placement(CASES[name]) for name in sorted(CASES)},
                  width=100)
