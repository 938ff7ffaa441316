"""The settings a run can vary, pinned.

Like the CLI-surface pin, this makes a new configuration knob a
deliberate edit here. A value no run varies is an upper-case constant
of ``repro.config``, not a field.
"""

import dataclasses

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError


def _settable(cls, prefix=""):
    """Dotted names of every init field, recursing into the nested
    parameter dataclasses."""
    names = []
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        if dataclasses.is_dataclass(f.default_factory):
            names += _settable(f.default_factory, f"{prefix}{f.name}.")
        else:
            names.append(prefix + f.name)
    return names


def test_cluster_config_has_fourteen_settable_values():
    assert _settable(ClusterConfig) == [
        "num_nodes", "threads_per_node", "shared_pages", "num_locks",
        "seed", "page_size",
        "network.wire_latency_us", "network.bandwidth_bytes_per_us",
        "network.post_queue_depth",
        "protocol.variant", "protocol.lock_algorithm",
        "protocol.serialize_releases", "protocol.checkpointing",
        "protocol.batch_diffs",
    ]


@pytest.mark.parametrize("page_size", [32, 1000])
def test_page_size_is_validated(page_size):
    with pytest.raises(ConfigError, match="page_size"):
        ClusterConfig(page_size=page_size)
