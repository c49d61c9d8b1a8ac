"""DARTH-PUM: a hybrid analog-digital processing-using-memory architecture.

A simulation-based reproduction of "DARTH-PUM: A Hybrid Processing-Using-
Memory Architecture" (ASPLOS 2026).  The package is organised as:

* :mod:`repro.reram`     -- ReRAM device and non-ideality models
* :mod:`repro.digital`   -- RACER-style digital (Boolean) PUM substrate
* :mod:`repro.analog`    -- analog crossbar MVM substrate with periphery
* :mod:`repro.core`      -- hybrid compute tiles, chip, area/energy models
* :mod:`repro.plan`      -- the ExecutionPlan IR, planner, and backend registry
* :mod:`repro.isa`       -- the hybrid ISA, assembler, and program executor
* :mod:`repro.runtime`   -- the Table 1 programmer-facing library
* :mod:`repro.workloads` -- AES, ResNet-20, and LLM-encoder workloads
* :mod:`repro.baselines` -- comparison architecture performance models
* :mod:`repro.eval`      -- the figure/table regeneration harness
"""

from .core.chip import DarthPumChip
from .core.config import ChipConfig, HctConfig
from .core.hct import HybridComputeTile
from .metrics import CostLedger
from .plan import (
    BACKENDS,
    BackendRegistry,
    ExecutionBackend,
    MvmPlan,
    Planner,
    ShardedPlan,
    resolve_backend,
)
from .runtime.faults import FaultInjector, FaultSchedule
from .runtime.integrity import DeviceHealth, IntegrityChecker
from .runtime.pool import DevicePool, PredictedFinishTimePolicy, RebuildReport
from .runtime.queueing import IndexedRequestQueue
from .runtime.scheduling import (
    Autotuner,
    CostAwarePolicy,
    SchedulingPolicy,
    SloClass,
    StaticBatchingPolicy,
)
from .runtime.server import PumServer, ThreadedServerDriver
from .runtime.session import DarthPumDevice

__version__ = "1.7.0"

__all__ = [
    "BACKENDS",
    "Autotuner",
    "BackendRegistry",
    "ChipConfig",
    "CostAwarePolicy",
    "CostLedger",
    "DarthPumChip",
    "DarthPumDevice",
    "DeviceHealth",
    "DevicePool",
    "ExecutionBackend",
    "FaultInjector",
    "FaultSchedule",
    "HctConfig",
    "HybridComputeTile",
    "IndexedRequestQueue",
    "IntegrityChecker",
    "MvmPlan",
    "Planner",
    "PredictedFinishTimePolicy",
    "PumServer",
    "RebuildReport",
    "SchedulingPolicy",
    "ShardedPlan",
    "SloClass",
    "StaticBatchingPolicy",
    "ThreadedServerDriver",
    "__version__",
    "resolve_backend",
]
