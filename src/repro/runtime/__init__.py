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
from .pool import (
    CacheAffinityPolicy,
    DevicePool,
    LeastLoadedPolicy,
    PlacementPolicy,
    PooledAllocation,
    RebuildReport,
    RoundRobinPolicy,
    make_placement_policy,
)
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
    "CacheAffinityPolicy",
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
    "LeastLoadedPolicy",
    "LlmSession",
    "MatrixAllocation",
    "MatrixPlacement",
    "PlacementPolicy",
    "PooledAllocation",
    "PumServer",
    "RebuildReport",
    "Response",
    "RoundRobinPolicy",
    "SLO_CLASSES",
    "SchedulingPolicy",
    "ServerFuture",
    "ServingStats",
    "SloClass",
    "StaticBatchingPolicy",
    "ThreadedServerDriver",
    "TilePlan",
    "band_check_vector",
    "make_placement_policy",
    "plan_matrix",
    "precision_to_bits_per_cell",
    "resolve_slo",
    "serve_aes_mixcolumns",
    "serve_cnn_conv",
    "serve_llm_projection",
]
