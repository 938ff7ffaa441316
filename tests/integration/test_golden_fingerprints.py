"""Committed golden fingerprints of whole runs, base and FT.

``test_determinism.py`` compares a commit with itself, and the golden
recorder/optrace digests cover FT model-check runs only; nothing pinned
what a *base*-protocol run simulates. These literals do: simulated
time, every aggregate counter, the six-component breakdown and the
final shared-memory contents of four application cells and the
lock-dominated KVStore, under both protocol variants.

A refactor that claims to leave simulated behaviour alone must leave
this file alone. A change that moves simulated results on purpose
re-records it with::

    PYTHONPATH=src python tests/integration/test_golden_fingerprints.py
"""

import hashlib
import pprint
from dataclasses import asdict

import pytest

from repro.apps import KVStore
from repro.config import ClusterConfig, MemoryParams, ProtocolParams
from repro.harness import SvmRuntime
from repro.harness.experiments import evaluation_config, workload_factories


def _app_runtime(app, variant, threads_per_node):
    config = evaluation_config(variant, threads_per_node, seed=2003)
    return SvmRuntime(config, workload_factories("test")[app]())


def _kv_runtime(variant):
    config = ClusterConfig(
        num_nodes=4, threads_per_node=2, shared_pages=64, num_locks=64,
        num_barriers=8, seed=3, memory=MemoryParams(page_size=512),
        protocol=ProtocolParams(variant=variant))
    return SvmRuntime(config, KVStore(buckets=16, txns_per_thread=8))


CASES = {
    "LU/base/1": lambda: _app_runtime("LU", "base", 1),
    "LU/base/2": lambda: _app_runtime("LU", "base", 2),
    "RadixLocal/base/1": lambda: _app_runtime("RadixLocal", "base", 1),
    "FFT/ft/1": lambda: _app_runtime("FFT", "ft", 1),
    "WaterNsq/ft/1": lambda: _app_runtime("WaterNsq", "ft", 1),
    "WaterNsq/ft/2": lambda: _app_runtime("WaterNsq", "ft", 2),
    "KVStore/base/2": lambda: _kv_runtime("base"),
    "KVStore/ft/2": lambda: _kv_runtime("ft"),
}


def fingerprint(runtime):
    result = runtime.run(verify=True)
    data = hashlib.sha256()
    segments = runtime.cluster.address_space.segments()
    for name in sorted(segments):
        segment = segments[name]
        data.update(name.encode())
        data.update(runtime.debug_read(segment.base_addr,
                                       segment.size_bytes))
    return {
        "elapsed_us": result.elapsed_us,
        "counters": asdict(result.counters.total),
        "six_component": result.breakdown.six_component(),
        "data_sha256": data.hexdigest(),
    }


#: Recorded at d0fd4a6 (the commit before the FT agent was un-forked).
GOLDEN = {'FFT/ft/1': {'elapsed_us': 5825.867249999958,
              'counters': {'releases': 0,
                           'acquires': 0,
                           'barriers': 40,
                           'lock_acquires': 0,
                           'lock_retries': 0,
                           'page_faults': 832,
                           'read_faults': 672,
                           'write_faults': 160,
                           'remote_page_fetches': 672,
                           'local_page_fetches': 32,
                           'twins_created': 160,
                           'pages_diffed': 160,
                           'home_pages_diffed': 160,
                           'diff_bytes_sent': 168904,
                           'diff_messages': 320,
                           'invalidations': 1280,
                           'write_notices': 1276,
                           'checkpoints': 47,
                           'checkpoint_bytes': 6698,
                           'page_lock_stalls': 0,
                           'release_serialization_stalls': 0,
                           'intervals_trimmed': 47},
              'six_component': {'compute': 742.3999999999977,
                                'data_wait': 3796.1184999999705,
                                'synchronization': 670.8828749999952,
                                'diffs': 307.28831249999644,
                                'protocol': 140.0,
                                'checkpointing': 118.4575624999996},
              'data_sha256': '697d4c9de1fb22ccf53581691bd81664400c950c66c4b4d8cdf9e49061c1b1f8'},
 'KVStore/base/2': {'elapsed_us': 3890.9593726389835,
                    'counters': {'releases': 128,
                                 'acquires': 128,
                                 'barriers': 4,
                                 'lock_acquires': 128,
                                 'lock_retries': 192,
                                 'page_faults': 96,
                                 'read_faults': 37,
                                 'write_faults': 59,
                                 'remote_page_fetches': 26,
                                 'local_page_fetches': 11,
                                 'twins_created': 43,
                                 'pages_diffed': 43,
                                 'home_pages_diffed': 0,
                                 'diff_bytes_sent': 1968,
                                 'diff_messages': 43,
                                 'invalidations': 186,
                                 'write_notices': 186,
                                 'checkpoints': 0,
                                 'checkpoint_bytes': 0,
                                 'page_lock_stalls': 0,
                                 'release_serialization_stalls': 0,
                                 'intervals_trimmed': 62},
                    'six_component': {'compute': 64.0,
                                      'data_wait': 163.5101464540989,
                                      'synchronization': 3358.5726548406083,
                                      'diffs': 21.392500000000084,
                                      'protocol': 255.4390713442765,
                                      'checkpointing': 0.0},
                    'data_sha256': 'bbb94b69692e4833c36c49e23f123617c60d249fff42cb5b5e2f663b838647c1'},
 'KVStore/ft/2': {'elapsed_us': 7693.741517754016,
                  'counters': {'releases': 128,
                               'acquires': 128,
                               'barriers': 4,
                               'lock_acquires': 128,
                               'lock_retries': 319,
                               'page_faults': 109,
                               'read_faults': 45,
                               'write_faults': 64,
                               'remote_page_fetches': 32,
                               'local_page_fetches': 13,
                               'twins_created': 64,
                               'pages_diffed': 64,
                               'home_pages_diffed': 16,
                               'diff_bytes_sent': 5356,
                               'diff_messages': 128,
                               'invalidations': 201,
                               'write_notices': 201,
                               'checkpoints': 270,
                               'checkpoint_bytes': 25252,
                               'page_lock_stalls': 4,
                               'release_serialization_stalls': 10,
                               'intervals_trimmed': 67},
                  'six_component': {'compute': 64.0,
                                    'data_wait': 229.72739346657195,
                                    'synchronization': 6318.7628950823,
                                    'diffs': 221.93175706722326,
                                    'protocol': 307.524099196444,
                                    'checkpointing': 512.4853729414765},
                  'data_sha256': 'bbb94b69692e4833c36c49e23f123617c60d249fff42cb5b5e2f663b838647c1'},
 'LU/base/1': {'elapsed_us': 4601.929999999989,
               'counters': {'releases': 0,
                            'acquires': 0,
                            'barriers': 96,
                            'lock_acquires': 0,
                            'lock_retries': 0,
                            'page_faults': 312,
                            'read_faults': 192,
                            'write_faults': 120,
                            'remote_page_fetches': 192,
                            'local_page_fetches': 0,
                            'twins_created': 0,
                            'pages_diffed': 0,
                            'home_pages_diffed': 0,
                            'diff_bytes_sent': 0,
                            'diff_messages': 0,
                            'invalidations': 1137,
                            'write_notices': 1132,
                            'checkpoints': 0,
                            'checkpoint_bytes': 0,
                            'page_lock_stalls': 0,
                            'release_serialization_stalls': 0,
                            'intervals_trimmed': 33},
               'six_component': {'compute': 723.6266666666668,
                                 'data_wait': 1161.8624999999913,
                                 'synchronization': 2557.01083333333,
                                 'diffs': 0.0,
                                 'protocol': 110.99999999999996,
                                 'checkpointing': 0.0},
               'data_sha256': 'fec436377b682cc39cf00b5ff9e451494723b21d6856d6798aced88b70f8c290'},
 'LU/base/2': {'elapsed_us': 4059.459999999994,
               'counters': {'releases': 0,
                            'acquires': 0,
                            'barriers': 96,
                            'lock_acquires': 0,
                            'lock_retries': 0,
                            'page_faults': 312,
                            'read_faults': 192,
                            'write_faults': 120,
                            'remote_page_fetches': 192,
                            'local_page_fetches': 0,
                            'twins_created': 0,
                            'pages_diffed': 0,
                            'home_pages_diffed': 0,
                            'diff_bytes_sent': 0,
                            'diff_messages': 0,
                            'invalidations': 1136,
                            'write_notices': 1131,
                            'checkpoints': 0,
                            'checkpoint_bytes': 0,
                            'page_lock_stalls': 0,
                            'release_serialization_stalls': 0,
                            'intervals_trimmed': 33},
               'six_component': {'compute': 361.8133333333334,
                                 'data_wait': 991.4856249999975,
                                 'synchronization': 2602.2310416666633,
                                 'diffs': 0.0,
                                 'protocol': 55.49999999999992,
                                 'checkpointing': 0.0},
               'data_sha256': 'fec436377b682cc39cf00b5ff9e451494723b21d6856d6798aced88b70f8c290'},
 'RadixLocal/base/1': {'elapsed_us': 16531.369337885324,
                       'counters': {'releases': 256,
                                    'acquires': 256,
                                    'barriers': 48,
                                    'lock_acquires': 256,
                                    'lock_retries': 188,
                                    'page_faults': 736,
                                    'read_faults': 274,
                                    'write_faults': 462,
                                    'remote_page_fetches': 461,
                                    'local_page_fetches': 31,
                                    'twins_created': 406,
                                    'pages_diffed': 406,
                                    'home_pages_diffed': 0,
                                    'diff_bytes_sent': 15506,
                                    'diff_messages': 406,
                                    'invalidations': 3283,
                                    'write_notices': 3283,
                                    'checkpoints': 0,
                                    'checkpoint_bytes': 0,
                                    'page_lock_stalls': 0,
                                    'release_serialization_stalls': 0,
                                    'intervals_trimmed': 295},
                       'six_component': {'compute': 768.0,
                                         'data_wait': 2401.870187994377,
                                         'synchronization': 9857.796770861172,
                                         'diffs': 201.98500000002844,
                                         'protocol': 3248.647379029745,
                                         'checkpointing': 0.0},
                       'data_sha256': '5d57039f01ed4ae66c93d603a60aefdcdb1cef66436b88913aaa9ad96a810cba'},
 'WaterNsq/ft/1': {'elapsed_us': 7801.935999999969,
                   'counters': {'releases': 116,
                                'acquires': 116,
                                'barriers': 24,
                                'lock_acquires': 116,
                                'lock_retries': 0,
                                'page_faults': 297,
                                'read_faults': 146,
                                'write_faults': 151,
                                'remote_page_fetches': 118,
                                'local_page_fetches': 28,
                                'twins_created': 151,
                                'pages_diffed': 151,
                                'home_pages_diffed': 29,
                                'diff_bytes_sent': 13336,
                                'diff_messages': 302,
                                'invalidations': 1195,
                                'write_notices': 1192,
                                'checkpoints': 147,
                                'checkpoint_bytes': 19162,
                                'page_lock_stalls': 0,
                                'release_serialization_stalls': 0,
                                'intervals_trimmed': 139},
                   'six_component': {'compute': 450.0,
                                     'data_wait': 696.1634062499965,
                                     'synchronization': 4640.054968749973,
                                     'diffs': 538.9935624999995,
                                     'protocol': 1018.4362187499999,
                                     'checkpointing': 415.73909375000136},
                   'data_sha256': '18642abcb81b8a228bd5f5bd864afcb7768e37c5fe07a40676aaf9d1bcf5aba3'},
 'WaterNsq/ft/2': {'elapsed_us': 11306.587478760173,
                   'counters': {'releases': 280,
                                'acquires': 280,
                                'barriers': 24,
                                'lock_acquires': 280,
                                'lock_retries': 175,
                                'page_faults': 610,
                                'read_faults': 288,
                                'write_faults': 322,
                                'remote_page_fetches': 254,
                                'local_page_fetches': 37,
                                'twins_created': 322,
                                'pages_diffed': 322,
                                'home_pages_diffed': 47,
                                'diff_bytes_sent': 26350,
                                'diff_messages': 644,
                                'invalidations': 2514,
                                'write_notices': 2511,
                                'checkpoints': 622,
                                'checkpoint_bytes': 81892,
                                'page_lock_stalls': 81,
                                'release_serialization_stalls': 9,
                                'intervals_trimmed': 303},
                   'six_component': {'compute': 225.0,
                                     'data_wait': 1155.9716285379236,
                                     'synchronization': 6561.679756538097,
                                     'diffs': 649.4576857834146,
                                     'protocol': 2053.660588540441,
                                     'checkpointing': 616.2690693603005},
                   'data_sha256': '13755ecc90e43693aa4c5b43382fb278311828570f3a8cf294cab22a0f0a4ef0'}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_fingerprint(case):
    assert fingerprint(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN = " + pprint.pformat(
        {case: fingerprint(CASES[case]()) for case in sorted(CASES)},
        width=76, sort_dicts=False))
