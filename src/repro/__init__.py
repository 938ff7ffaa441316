"""repro: fault-tolerant shared virtual memory via dynamic data
replication -- an executable reproduction of Christodoulopoulou, Azimi
& Bilas, HPCA 2003.

Top-level convenience re-exports; see the subpackages for detail:

* :mod:`repro.sim` -- deterministic discrete-event kernel
* :mod:`repro.net` -- Myrinet/VMMC communication model
* :mod:`repro.cluster` -- SMP nodes and fail-stop injection
* :mod:`repro.memory` -- pages, twins, diffs, page tables
* :mod:`repro.protocol` -- the base and fault-tolerant SVM protocols
* :mod:`repro.apps` -- SPLASH-2-style workloads
* :mod:`repro.metrics` -- execution-time breakdowns
* :mod:`repro.harness` -- runtime and paper experiments
"""

from repro.config import ClusterConfig, NetworkParams, ProtocolParams
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "ProtocolParams",
    "NetworkParams",
    "ReproError",
    "__version__",
]
