"""Scale-out cluster tier: multi-process workers behind an asyncio gateway.

The single-server stack (:class:`~repro.runtime.server.PumServer` over a
:class:`~repro.runtime.pool.DevicePool`) drives its devices from one
thread: every Python slice of the pipeline -- planning glue, noise
modelling, batch assembly -- is serialized on one GIL.
This package scales past that by running each server shard in its own
OS process:

* :mod:`transport <repro.runtime.cluster.transport>` -- shared-memory
  SPSC ring buffers with CRC-protected frames (zero-copy payloads, torn
  -write detection) plus the heartbeat board;
* :mod:`messages <repro.runtime.cluster.messages>` -- the framed wire
  protocol (tiny JSON headers, raw ndarray payloads, never pickle);
* :mod:`worker <repro.runtime.cluster.worker>` -- the per-process
  command loop owning chips and a ``PumServer`` shard;
* :mod:`gateway <repro.runtime.cluster.gateway>` -- the asyncio front
  door: rendezvous placement, cost-aware replica routing, bounded
  inflight windows, heartbeat health checks, retry-on-replica failover,
  graceful drain/restart, per-batch timeouts with hedged re-dispatch,
  per-worker circuit breakers (the :class:`CircuitBreaker` state
  machine), and supervised auto-restart;
* :mod:`faults <repro.runtime.cluster.faults>` -- the chaos layer: the
  ring tier of :mod:`repro.runtime.faults` (seeded drop/dup/delay/corrupt
  on the ring's producer seam).

Import this package explicitly (``from repro.runtime.cluster import
ClusterGateway``); ``repro.runtime`` does not re-export it, so the
single-process stack never pays the multiprocessing import.
"""

from .faults import TransportFaultInjector, TransportFaultSpec
from .gateway import CircuitBreaker, ClusterGateway, ClusterResponse, GatewayStats
from .messages import STATUS_CODES, STATUS_NAMES, decode_message, encode_message
from .transport import HeartbeatBoard, ShmRing
from .worker import build_worker_server, worker_main

__all__ = [
    "CircuitBreaker",
    "ClusterGateway",
    "ClusterResponse",
    "GatewayStats",
    "HeartbeatBoard",
    "STATUS_CODES",
    "STATUS_NAMES",
    "ShmRing",
    "TransportFaultInjector",
    "TransportFaultSpec",
    "build_worker_server",
    "decode_message",
    "encode_message",
    "worker_main",
]
