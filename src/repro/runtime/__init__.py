"""Runtime library: the Table 1 programmer-facing API, pool, and server."""

from .allocator import MatrixPlacement, TilePlan, plan_matrix, precision_to_bits_per_cell
from .apps import (
    AesSession,
    CnnSession,
    LlmSession,
    serve_aes_mixcolumns,
    serve_cnn_conv,
    serve_llm_projection,
)
from .faults import FaultEvent, FaultInjector, FaultSchedule
from .integrity import DeviceHealth, IntegrityChecker, band_check_vector
from .pool import DevicePool, PooledAllocation, RebuildReport
from .queueing import IndexedRequestQueue
from .scheduling import (
    SLO_CLASSES,
    CostAwarePolicy,
    SchedulingPolicy,
    SloClass,
    StaticBatchingPolicy,
    resolve_slo,
)
from .server import (
    PumServer,
    Response,
    ServerFuture,
    ServingStats,
    ThreadedServerDriver,
)
from .session import DarthPumDevice, MatrixAllocation

__all__ = [
    "AesSession",
    "CnnSession",
    "CostAwarePolicy",
    "DarthPumDevice",
    "DeviceHealth",
    "DevicePool",
    "IntegrityChecker",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "IndexedRequestQueue",
    "LlmSession",
    "MatrixAllocation",
    "MatrixPlacement",
    "PooledAllocation",
    "PumServer",
    "RebuildReport",
    "Response",
    "SLO_CLASSES",
    "SchedulingPolicy",
    "ServerFuture",
    "ServingStats",
    "SloClass",
    "StaticBatchingPolicy",
    "ThreadedServerDriver",
    "TilePlan",
    "band_check_vector",
    "plan_matrix",
    "precision_to_bits_per_cell",
    "resolve_slo",
    "serve_aes_mixcolumns",
    "serve_cnn_conv",
    "serve_llm_projection",
]
