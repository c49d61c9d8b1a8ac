"""Plan/compile/execute: the ExecutionPlan IR and its backend registry.

``repro.plan`` separates *planning* (deriving the bit-sliced MVM schedule
of an allocation: shard topology, step order, reduction layout, analytic
costs) from *execution* (interpreting that schedule).  The
:class:`Planner` compiles one cacheable :class:`MvmPlan` per
``(allocation, input_bits)``; the :class:`BackendRegistry` holds the
interpreters (:class:`ReferenceExecutor`, :class:`VectorizedExecutor`,
and the cost-only :class:`CostModelExecutor`), selected with ``backend=``
at every layer from :class:`~repro.core.hct.HybridComputeTile` up through
:class:`~repro.runtime.server.PumServer`.  :class:`DevicePlan` stacks the
tile plans of one device-level matrix so the proven-exact path is one
contraction whatever the tile count, and :class:`ShardedPlan` extends the
compiled form across a device pool so serving does zero per-request
planning.

``python -m repro.plan`` (or ``make plan-dump``) pretty-prints a sample
plan.
"""

from .backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    BackendRegistry,
    CostModelExecutor,
    ExecutionBackend,
    ReferenceExecutor,
    VectorizedExecutor,
    default_backend,
    resolve_backend,
)
from .ir import (
    DevicePlan,
    HctBatchMvmResult,
    HctMvmResult,
    MvmPlan,
    PlanCostModel,
    PlanHandle,
    PlanStep,
    ReductionStep,
    ShardTask,
    ShardedPlan,
)
from .planner import Planner

__all__ = [
    "BACKENDS",
    "BackendRegistry",
    "CostModelExecutor",
    "DEFAULT_BACKEND",
    "DevicePlan",
    "ExecutionBackend",
    "HctBatchMvmResult",
    "HctMvmResult",
    "MvmPlan",
    "PlanCostModel",
    "PlanHandle",
    "PlanStep",
    "Planner",
    "ReductionStep",
    "ReferenceExecutor",
    "ShardTask",
    "ShardedPlan",
    "VectorizedExecutor",
    "default_backend",
    "resolve_backend",
]
