"""Asyncio cluster gateway: placement, routing, health, and backpressure.

The gateway is the single front door of a scale-out serving cluster.  It
owns the worker processes (each a :mod:`worker
<repro.runtime.cluster.worker>` running its own
:class:`~repro.runtime.server.PumServer` shard), the shared-memory rings
connecting them, and the client-facing ``submit`` / ``submit_batch``
API, which hands back :class:`asyncio.Future` objects resolved, a wave at
a time, as RESULTS frames arrive: every reply ring has a doorbell the
event loop watches (``loop.add_reader``), so a reply costs one wakeup and
nothing in the gateway runs on a poll timer.

Design points, mirroring the single-server stack one tier up:

* **Consistent placement.**  A matrix is placed at registration time by
  rendezvous (highest-random-weight) hashing of its content digest --
  the same sha256 fingerprint the server's registration memo uses -- so
  placement is deterministic, re-registration of identical bytes is a
  no-op, and adding workers moves the minimum number of matrices.  With
  ``replication=R`` the top-R workers each hold a full copy.
* **Cost-aware routing, stated once.**  Each worker's REGISTERED reply
  carries a serialized :class:`~repro.plan.ir.PlanHandle`; the gateway
  scores replicas by predicted outstanding cycles (the cluster analogue
  of the pool's predicted-finish-time policy).  Every routing decision --
  a new batch, a retry after a worker failure, a hedge after a timeout --
  walks the one order :meth:`ClusterGateway._replicas` produces (breaker
  admits, not yet tried, cheapest) and differs only in which replicas it
  filters out.
* **Backpressure.**  Every worker has a bounded inflight window
  (vectors in flight, not bytes); a batch that fits no live replica's
  window -- or no ring -- is shed *to the caller* as
  :class:`~repro.errors.AdmissionError` rather than queued without
  bound, exactly like the server's ``admission="reject"`` mode.
* **Health.**  Workers beat a shared heartbeat board; a health task
  marks a worker whose process died or whose beats froze not ``alive``,
  which is what takes it out of routing until a restart (a slow one is
  fenced by its circuit breaker instead).  The
  :class:`~repro.runtime.integrity.DeviceHealth` EWMA the pool uses per
  chip is kept per worker as telemetry only -- ``health_score`` and
  ``quarantined`` in :meth:`ClusterGateway.worker_status` -- and decides
  nothing here.  A failed worker's inflight batches are retried on
  surviving replicas when placement allows, and resolved
  ``status="failed"`` (never lost) when it does not.
* **Drain/restart.**  ``drain_worker`` fences routing and waits for the
  window to empty; ``restart_worker`` respawns the process on fresh
  rings and replays matrix registrations, so rolling restarts lose no
  futures.
* **Control round trips.**  READY, REGISTERED, DRAIN, STRAGGLE and STOP
  are all one :meth:`ClusterGateway._call`: expect the reply, push the
  frame, wait ``CONTROL_TIMEOUT``.  A full ring or a silent worker is a
  :class:`~repro.errors.ClusterError`, never a bare timeout.
* **Gray failures.**  With ``batch_timeout`` set, a watchdog expires
  batches whose worker is alive-but-slow and hedges them onto another
  replica (exponential backoff, deterministic jitter); per-worker
  circuit breakers (closed -> open -> half-open) fence repeat
  offenders; duplicate SUBMITs are suppressed
  worker-side and late/duplicate RESULTS are ignored gateway-side, so
  nothing ever resolves twice.  With ``auto_restart=True`` a supervisor
  task respawns dead workers inside a bounded restart budget.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import (
    AdmissionError,
    BatchTimeoutError,
    CircuitOpenError,
    ClusterError,
    TransportError,
    WorkerFailedError,
)
from ...plan.ir import PlanHandle
from ..integrity import DeviceHealth
from ..server import integer_vectors, matrix_fingerprint
from .faults import CircuitBreaker, TransportFaultSpec
from .messages import (
    K_ACK,
    K_DRAIN,
    K_ERROR,
    K_READY,
    K_REGISTER,
    K_REGISTERED,
    K_RESULTS,
    K_STOP,
    K_STRAGGLE,
    K_SUBMIT,
    STATUS_NAMES,
    decode_message,
    encode_message,
)
from .transport import Doorbell, HeartbeatBoard, ShmRing
from .worker import worker_main

__all__ = ["ClusterGateway", "ClusterResponse", "GatewayStats"]

#: Fixed transport and timing constants of the gateway.
#: Byte capacity of every request/reply ring.
RING_CAPACITY = 1 << 22
#: A worker whose heartbeat slot stays frozen this long is treated as dead.
LIVENESS_TIMEOUT = 5.0
#: Bound on every control round trip (ready, registered, drain, stop).
CONTROL_TIMEOUT = 60.0
#: Relative spread of the deterministic jitter on hedge deadlines.
HEDGE_JITTER = 0.1
#: Cap on a circuit breaker's doubling cooldown, in seconds.
BREAKER_MAX_COOLDOWN = 30.0
#: How worker processes are started: fork where the platform has it.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


@dataclass(eq=False, slots=True)
class ClusterResponse:
    """Terminal state of one gateway request (the cluster's Response)."""

    request_id: int
    name: str
    status: str
    result: Optional[np.ndarray]
    latency_ticks: int = 0
    energy_pj: float = 0.0
    worker_id: int = -1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request completed successfully."""
        return self.status == "completed"


@dataclass
class GatewayStats:
    """Aggregate gateway telemetry (all counters lifetime)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    batches: int = 0
    retried_batches: int = 0
    worker_failures: int = 0
    restarts: int = 0
    registration_reuses: int = 0
    transport_errors: int = 0
    batch_timeouts: int = 0
    hedged_batches: int = 0
    duplicate_replies: int = 0
    circuit_opens: int = 0
    supervised_restarts: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy as a plain dict."""
        return asdict(self)


@dataclass
class _PendingBatch:
    """One batch in flight to a worker (kept until its RESULTS arrive)."""

    batch_id: int
    name: str
    input_bits: int
    vectors: np.ndarray
    futures: List[asyncio.Future]
    request_ids: Sequence[int]
    worker_id: int
    cost: float
    attempted: set = field(default_factory=set)
    #: Dispatch attempts consumed (original send counts as the first).
    attempts: int = 0
    #: Monotonic deadline of the current attempt; None without a
    #: per-batch timeout configured.
    deadline: Optional[float] = None
    #: Monotonic give-up point while parked with no routable target.
    park_deadline: Optional[float] = None


@dataclass
class _MatrixRecord:
    """Everything needed to route for -- and re-register -- one matrix."""

    fingerprint: Tuple
    matrix: np.ndarray
    element_size: int
    precision: int
    input_bits: int
    placement: List[int]


class _Worker:
    """Gateway-side handle of one worker process and its transport."""

    def __init__(self, worker_id: int, breaker: CircuitBreaker) -> None:
        self.worker_id = worker_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.requests: Optional[ShmRing] = None
        self.replies: Optional[ShmRing] = None
        self.health = DeviceHealth()
        self.breaker = breaker
        self.alive = False
        self.draining = False
        self.restarting = False
        self.inflight = 0
        #: Set while ``inflight`` is zero (what :meth:`drain_worker` awaits).
        self.drained = asyncio.Event()
        self.drained.set()
        self.outstanding_cycles = 0.0
        self.pending: Dict[int, _PendingBatch] = {}
        self.plan_handles: Dict[str, PlanHandle] = {}
        self.last_beats = 0
        self.last_progress = 0.0
        #: Monotonic timestamps of supervised restarts (budget window).
        self.restart_times: List[float] = []

    @property
    def routable(self) -> bool:
        """Whether new traffic may be placed on this worker."""
        return self.alive and not self.draining

    def close_rings(self) -> None:
        """Stop watching the reply bell, then detach from (and unlink) both
        rings of the current process, bells included."""
        if self.replies is not None:
            asyncio.get_running_loop().remove_reader(self.replies.bell)
        for ring in (self.requests, self.replies):
            if ring is not None:
                ring.close()
        self.requests = self.replies = None


class ClusterGateway:
    """Front door of a multi-process serving cluster.

    Async context manager::

        async with ClusterGateway(num_workers=4) as gateway:
            await gateway.register_matrix("w", matrix)
            futures = await gateway.submit_batch("w", vectors)
            responses = await asyncio.gather(*futures)

    Construction only records configuration; :meth:`start` (or entering
    the context) creates the shared-memory transport, spawns the worker
    processes, watches their reply doorbells and launches the health-monitor
    task.

    The keywords configure, in order: the worker fleet and the server each
    worker builds (``num_workers`` .. ``queue_capacity``), admission
    (``inflight_window``), liveness (``heartbeat_interval``,
    ``stop_timeout``), hedging (``batch_timeout``, ``hedge_backoff``,
    ``max_attempts``), circuit breakers (``breaker_threshold``,
    ``breaker_cooldown``), supervised restart (``auto_restart``,
    ``restart_budget``, ``restart_window``) and fault injection
    (``transport_faults``).  Ring size, liveness and control
    timeouts, hedge jitter, the breaker cooldown cap and the process start
    method are the module constants above, not options; neither are each
    worker pool's execution backend, placement policy and ABFT mode, which
    are what :func:`~repro.runtime.cluster.worker.build_worker_server`
    defaults to (library default, ``"cache_affinity"``, ``"off"``).
    """

    def __init__(
        self,
        num_workers: int = 2,
        devices_per_worker: int = 1,
        replication: int = 1,
        chip: Optional[str] = "small",
        num_hcts: int = 3,
        noise: Optional[str] = None,
        max_batch: Optional[int] = None,
        max_wait_ticks: Optional[int] = None,
        queue_capacity: int = 4096,
        inflight_window: int = 1024,
        heartbeat_interval: float = 0.05,
        stop_timeout: float = 5.0,
        batch_timeout: Optional[float] = None,
        hedge_backoff: float = 2.0,
        max_attempts: int = 4,
        breaker_threshold: int = 2,
        breaker_cooldown: float = 0.5,
        auto_restart: bool = False,
        restart_budget: int = 3,
        restart_window: float = 30.0,
        transport_faults: Optional[TransportFaultSpec] = None,
    ) -> None:
        if num_workers < 1:
            raise ClusterError(
                f"a cluster needs at least one worker (got {num_workers})"
            )
        if not 1 <= replication <= num_workers:
            raise ClusterError(
                f"replication {replication} must be within [1, num_workers="
                f"{num_workers}]"
            )
        if inflight_window < 1:
            raise ClusterError("inflight_window must be >= 1")
        if batch_timeout is not None and batch_timeout <= 0:
            raise ClusterError("batch_timeout must be positive (or None)")
        if max_attempts < 1:
            raise ClusterError("max_attempts must be >= 1")
        if hedge_backoff < 1.0:
            raise ClusterError("hedge_backoff must be >= 1.0")
        if stop_timeout <= 0:
            raise ClusterError("stop_timeout must be positive")
        if restart_budget < 1 or restart_window <= 0:
            raise ClusterError(
                "supervision needs restart_budget >= 1 and restart_window > 0"
            )
        self.num_workers = num_workers
        self.replication = replication
        self.inflight_window = inflight_window
        self.heartbeat_interval = heartbeat_interval
        self.stop_timeout = stop_timeout
        self.batch_timeout = batch_timeout
        self.hedge_backoff = hedge_backoff
        self.max_attempts = max_attempts
        self._breaker_args = dict(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            max_cooldown=BREAKER_MAX_COOLDOWN,
        )
        self.auto_restart = auto_restart
        self.restart_budget = restart_budget
        self.restart_window = restart_window
        self.transport_faults = transport_faults
        self._spec_base = {
            "num_devices": devices_per_worker,
            "chip": chip,
            "num_hcts": num_hcts,
            "noise": noise,
            "max_batch": max_batch,
            "max_wait_ticks": max_wait_ticks,
            "queue_capacity": queue_capacity,
        }
        self._ctx = multiprocessing.get_context(START_METHOD)
        self.stats = GatewayStats()
        self._workers = [
            _Worker(index, CircuitBreaker(**self._breaker_args))
            for index in range(num_workers)
        ]
        self._matrices: Dict[str, _MatrixRecord] = {}
        self._control: Dict[Tuple, asyncio.Future] = {}
        self._board: Optional[HeartbeatBoard] = None
        #: Background tasks: health, then watchdog and supervisor when
        #: configured.  Replies need none -- see :meth:`_on_bell`.
        self._tasks: List[asyncio.Task] = []
        #: Admitted batches with no routable target right now; the
        #: watchdog re-tries them until a replica heals or they expire.
        self._parked: List[_PendingBatch] = []
        self._next_request = 0
        self._next_batch = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    async def start(self) -> "ClusterGateway":
        """Create the transport, spawn every worker, and await readiness."""
        if self._started:
            return self
        self._started = True
        self._board = HeartbeatBoard(num_slots=self.num_workers, create=True)
        try:
            await asyncio.gather(*map(self._spawn, self._workers))
        except ClusterError:
            await self.close()
            raise
        now = time.monotonic()
        for worker in self._workers:
            worker.alive = True
            worker.last_progress = now
        # Only now: a supervisor already running would take a worker still
        # on its way to READY for a dead one and spend its restart budget.
        loops = [self._health()]
        if self.batch_timeout is not None:
            loops.append(self._watchdog())
        if self.auto_restart:
            loops.append(self._supervise())
        self._tasks = [asyncio.create_task(loop) for loop in loops]
        return self

    async def _spawn(self, worker: _Worker) -> None:
        """Create fresh rings for ``worker``, launch its process, await READY."""
        worker.requests = ShmRing(RING_CAPACITY, create=True, bell=Doorbell())
        worker.replies = ShmRing(RING_CAPACITY, create=True, bell=Doorbell())
        asyncio.get_running_loop().add_reader(worker.replies.bell, self._on_bell, worker)
        spec = dict(self._spec_base)
        spec.update(
            worker_id=worker.worker_id,
            request_ring=worker.requests.name,
            response_ring=worker.replies.name,
            request_bell=worker.requests.bell,
            response_bell=worker.replies.bell,
            board=self._board.name,
            # An idle worker beats this often: as often as health looks, and
            # never so rarely that a long check period reads as a frozen slot.
            heartbeat_interval=min(self.heartbeat_interval, LIVENESS_TIMEOUT / 4),
        )
        if self.transport_faults is not None:
            # Request-direction faults are injected here (this process is
            # the request ring's producer); the spec rides along so the
            # worker arms the reply direction on its side of the channel.
            if "request" in self.transport_faults.directions:
                self.transport_faults.injector_for(
                    worker.worker_id, "request"
                ).attach(worker.requests)
            spec["transport_faults"] = self.transport_faults
        worker.process = self._ctx.Process(
            target=worker_main, args=(spec,), daemon=True,
            name=f"pum-worker-{worker.worker_id}",
        )
        worker.process.start()
        await self._call(worker, ("ready", worker.worker_id), None, "READY")

    async def close(self) -> None:
        """Stop every worker and release the shared-memory transport."""
        if self._closed:
            return
        self._closed = True
        for task in self._tasks:
            task.cancel()
        for worker in self._workers:
            if worker.alive and worker.requests is not None:
                worker.requests.push(encode_message(K_STOP, {}))
        deadline = time.monotonic() + self.stop_timeout
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            while process.is_alive() and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if not process.is_alive():
                # Its sentinel pipe goes now, not when a collector gets here.
                process.close()
                worker.process = None
        # Await the tasks so their frames are torn down before the segments
        # close -- whatever one of them died of: rings, bells and the board
        # below are released regardless.
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for batch in self._parked:
            self._resolve_batch_failed(
                batch, "gateway closed with requests parked"
            )
        self._parked.clear()
        for worker in self._workers:
            for batch in worker.pending.values():
                self._resolve_batch_failed(
                    batch, "gateway closed with requests in flight"
                )
            worker.pending.clear()
            worker.close_rings()
            worker.alive = False
        if self._board is not None:
            self._board.close()
        for future in self._control.values():
            if not future.done():
                future.cancel()
        self._control.clear()

    async def __aenter__(self) -> "ClusterGateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Placement and registration                                           #
    # ------------------------------------------------------------------ #
    def _rendezvous(self, digest: str) -> List[int]:
        """Highest-random-weight placement of a digest over all workers."""
        scored = sorted(
            range(self.num_workers),
            key=lambda worker_id: hashlib.sha256(
                f"{digest}:{worker_id}".encode()
            ).hexdigest(),
            reverse=True,
        )
        return scored[: self.replication]

    async def register_matrix(
        self,
        name: str,
        matrix: np.ndarray,
        element_size: int = 8,
        precision: int = 0,
        input_bits: int = 8,
    ) -> List[int]:
        """Place ``matrix`` under ``name``; returns the holding worker ids.

        Re-registering byte-identical content under the same name is a
        no-op (``registration_reuses``), mirroring the server-level memo:
        the workers' programmed shards and plan caches stay untouched.
        """
        self._require_running()
        fingerprint = matrix_fingerprint(matrix, element_size, precision)
        record = self._matrices.get(name)
        if record is not None and record.fingerprint == fingerprint \
                and record.input_bits == input_bits:
            self.stats.registration_reuses += 1
            return list(record.placement)
        canonical = np.ascontiguousarray(np.asarray(matrix).astype(np.int64))
        placement = self._rendezvous(fingerprint[0])
        record = _MatrixRecord(
            fingerprint=fingerprint, matrix=canonical,
            element_size=element_size, precision=precision,
            input_bits=input_bits, placement=placement,
        )
        await asyncio.gather(*[
            self._register_on(self._workers[worker_id], record, name)
            for worker_id in placement
        ])
        self._matrices[name] = record
        return list(placement)

    async def _register_on(self, worker: _Worker, record: _MatrixRecord,
                           name: str) -> None:
        """Push one REGISTER and await the worker's REGISTERED reply."""
        frame = encode_message(K_REGISTER, {
            "name": name,
            "element_size": record.element_size,
            "precision": record.precision,
            "input_bits": record.input_bits,
        }, [record.matrix])
        worker.plan_handles[name] = await self._call(
            worker, ("registered", worker.worker_id, name), frame,
            f"registration of {name!r}",
        )

    def plan_handle(self, name: str) -> PlanHandle:
        """The serialized-across-the-wire cost handle of ``name``."""
        record = self._record(name)
        for worker_id in record.placement:
            handle = self._workers[worker_id].plan_handles.get(name)
            if handle is not None:
                return handle
        raise ClusterError(f"no plan handle recorded for {name!r}")

    def placement_of(self, name: str) -> List[int]:
        """Worker ids holding ``name`` (rendezvous order)."""
        return list(self._record(name).placement)

    def _record(self, name: str) -> _MatrixRecord:
        record = self._matrices.get(name)
        if record is None:
            raise AdmissionError(f"no matrix registered under {name!r}")
        return record

    # ------------------------------------------------------------------ #
    # Submission                                                           #
    # ------------------------------------------------------------------ #
    async def submit(self, name: str, vector: np.ndarray,
                     input_bits: int = 8) -> asyncio.Future:
        """Admit one vector; returns the future of its ClusterResponse."""
        futures = await self.submit_batch(
            name, np.asarray(vector).reshape(1, -1), input_bits=input_bits
        )
        return futures[0]

    async def submit_batch(self, name: str, vectors: np.ndarray,
                           input_bits: int = 8) -> List[asyncio.Future]:
        """Admit ``(n, rows)`` vectors; returns one future per row.

        The batch is routed whole to the cheapest live replica of
        ``name`` (by predicted outstanding cycles) whose inflight window
        has room; when every replica is saturated -- window full or ring
        full -- the batch is shed to the caller as
        :class:`AdmissionError`, never queued without bound.
        """
        self._require_running()
        record = self._record(name)
        # Checked here: the cast would truncate floats before the worker's
        # server (which refuses them) could see the dtype.
        vectors = np.ascontiguousarray(integer_vectors(vectors), dtype=np.int64)
        if vectors.ndim != 2:
            raise AdmissionError(
                f"submit_batch expects a 2-D (n, rows) array, got shape "
                f"{vectors.shape}"
            )
        n = vectors.shape[0]
        if n == 0:
            return []
        if n > self.inflight_window:
            self.stats.shed += n
            raise AdmissionError(
                f"batch of {n} exceeds the per-worker inflight window "
                f"({self.inflight_window})"
            )
        replicas = self._replicas(name)
        if not replicas:
            self.stats.shed += n
            raise AdmissionError(
                f"no live replica of {name!r} "
                f"(placement {record.placement})"
            )
        admitted = [worker for worker in replicas if worker.breaker.allows()]
        if not admitted:
            # Replicas are alive but circuit-broken: backpressure, not
            # death -- a distinct signal so callers can tell "back off"
            # from "gone", while `except AdmissionError` still catches it.
            self.stats.shed += n
            raise CircuitOpenError(
                worker_ids=[worker.worker_id for worker in replicas]
            )
        batch = self._make_batch(name, vectors, input_bits)
        for worker in admitted:
            if worker.inflight + n > self.inflight_window:
                continue
            if self._dispatch(worker, batch):
                return batch.futures
        # Saturated everywhere: shed to the caller.
        for future in batch.futures:
            future.cancel()
        self.stats.shed += n
        raise AdmissionError(
            f"every replica of {name!r} is saturated "
            f"(inflight window {self.inflight_window})"
        )

    def _replicas(self, name: str,
                  attempted: Collection[int] = ()) -> List[_Worker]:
        """The routable holders of ``name``, best first: the one routing order.

        Placement order, stable-sorted by rank: replicas the breaker admits
        come before ones it refuses; among the admitted, ones this batch has
        not been sent to yet (``attempted``) come first; predicted
        outstanding cycles decide the rest.  Callers only filter:
        :meth:`submit_batch` keeps the admitted whose window fits,
        :meth:`_retry` the untried, :meth:`_hedge` everyone.
        """
        def rank(worker: _Worker) -> Tuple[bool, bool, float]:
            admits = worker.breaker.allows()
            return (not admits, admits and worker.worker_id in attempted,
                    worker.outstanding_cycles)

        holders = [self._workers[worker_id]
                   for worker_id in self._record(name).placement]
        return sorted(
            (worker for worker in holders if worker.routable), key=rank
        )

    def _make_batch(self, name: str, vectors: np.ndarray,
                    input_bits: int) -> _PendingBatch:
        loop = asyncio.get_running_loop()
        n = vectors.shape[0]
        request_ids = range(self._next_request, self._next_request + n)
        self._next_request += n
        batch_id = self._next_batch
        self._next_batch += 1
        return _PendingBatch(
            batch_id=batch_id, name=name, input_bits=input_bits,
            vectors=vectors,
            futures=[asyncio.Future(loop=loop) for _ in request_ids],
            request_ids=request_ids, worker_id=-1,
            cost=self.plan_handle(name).predicted_cycles(n),
        )

    def _dispatch(self, worker: _Worker, batch: _PendingBatch) -> bool:
        """Push ``batch`` onto ``worker``'s request ring; False when full."""
        frame = encode_message(K_SUBMIT, {
            "batch": batch.batch_id,
            "name": batch.name,
            "input_bits": batch.input_bits,
        }, [batch.vectors])
        if worker.requests is None or not worker.requests.push(frame):
            return False
        n = batch.vectors.shape[0]
        batch.worker_id = worker.worker_id
        batch.attempted.add(worker.worker_id)
        batch.attempts += 1
        batch.deadline = self._attempt_deadline(batch)
        worker.pending[batch.batch_id] = batch
        worker.breaker.record_dispatch()
        worker.inflight += n
        worker.drained.clear()
        worker.outstanding_cycles += batch.cost
        self.stats.submitted += n
        self.stats.batches += 1
        return True

    def _attempt_deadline(self, batch: _PendingBatch) -> Optional[float]:
        """Deadline of the batch's current attempt, or None when untimed.

        Each attempt gets exponentially more headroom (``hedge_backoff``)
        so a hedge storm cannot outrun a merely-busy cluster, plus a
        seeded jitter -- a hash of ``(batch_id, attempt)`` scaled into
        ``[0, 1)`` -- that de-synchronizes expiries without sacrificing
        reproducibility.
        """
        if self.batch_timeout is None:
            return None
        timeout = self.batch_timeout * self.hedge_backoff ** (batch.attempts - 1)
        spread = zlib.crc32(
            struct.pack("<qq", batch.batch_id, batch.attempts)
        ) / 2**32
        return time.monotonic() + timeout * (1.0 + HEDGE_JITTER * spread)

    # ------------------------------------------------------------------ #
    # Replies                                                              #
    # ------------------------------------------------------------------ #
    def _on_bell(self, worker: _Worker) -> None:
        """Reader callback of ``worker``'s reply bell: resolve every reply
        its ring holds.

        Clear the bell, *then* drain until the ring is empty -- the
        consumer's half of :class:`~repro.runtime.cluster.transport.Doorbell`'s
        no-lost-wakeup order.  Nothing a frame holds may escape (the loop
        would carry on, but the frames behind it would wait for the next
        ring): a frame that fails its CRC, its codec or its handler is
        counted, reported to the loop's exception handler when it is not a
        transport fault, and stepped past.
        """
        ring = worker.replies
        ring.bell.clear()
        while True:
            try:
                payload = ring.peek()
                if payload is None:
                    # The frame views die with this call, so a ring closed
                    # later (restart_worker) has no exported pointers left.
                    return
                self._on_reply(worker, *decode_message(payload))
            except Exception as exc:
                self.stats.transport_errors += 1
                if not isinstance(exc, TransportError):
                    asyncio.get_running_loop().call_exception_handler({
                        "message": f"unhandled reply from worker {worker.worker_id}",
                        "exception": exc,
                    })
            ring.advance()

    def _on_reply(self, worker: _Worker, kind: int, header: Dict[str, Any],
                  arrays: Sequence[np.ndarray]) -> None:
        if kind == K_RESULTS:
            self._on_results(worker, header, arrays)
        elif kind == K_REGISTERED:
            handle = PlanHandle.from_bytes(bytes.fromhex(header["handle"]))
            self._resolve(
                ("registered", worker.worker_id, header["name"]), handle
            )
        elif kind == K_READY:
            self._resolve(("ready", worker.worker_id), header)
        elif kind == K_ACK:
            if header.get("drain"):
                stats = dict(header.get("stats", {}))
                stats["duplicates_suppressed"] = header.get(
                    "duplicates_suppressed", 0
                )
                self._resolve(("drain", worker.worker_id), stats)
            elif header.get("straggle"):
                self._resolve(("straggle", worker.worker_id), header)
            elif "stopped" in header:
                self._resolve(("stop", worker.worker_id), True)
        elif kind == K_ERROR:
            batch_id = header.get("batch")
            batch = worker.pending.pop(batch_id, None) \
                if batch_id is not None else None
            if batch is not None:
                self._release_window(worker, batch)
                self._resolve_batch_failed(
                    batch, header.get("error", "worker error")
                )
                return
            # A failed registration must fail its awaiter, not time out.
            name = header.get("name")
            pending = self._control.pop(
                ("registered", worker.worker_id, name), None
            ) if name else None
            if pending is not None and not pending.done():
                pending.set_exception(ClusterError(
                    header.get("error", f"registration of {name!r} failed")
                ))
            else:
                self.stats.transport_errors += 1

    def _on_results(self, worker: _Worker, header: Dict[str, Any],
                    arrays: Sequence[np.ndarray]) -> None:
        batch = worker.pending.pop(header.get("batch"), None)
        if batch is None:
            # Reply idempotency: a duplicated frame, or a late reply of a
            # batch already hedged/retried elsewhere.  The first reply to
            # land resolved the futures; this one is counted and ignored,
            # so nothing ever resolves twice.
            self.stats.duplicate_replies += 1
            return
        self._release_window(worker, batch)
        n = len(batch.futures)
        errors = header.get("errors") or {}
        shapes = [array.shape for array in arrays]
        if [shape[:1] for shape in shapes] != [(n,)] * 4 \
                or list(map(len, shapes)) != [1, 2, 1, 1] \
                or not isinstance(errors, dict):
            # CRC-valid, but not a RESULTS frame for this batch: fail the
            # batch before any future is touched, not the reader.
            self.stats.transport_errors += 1
            self._resolve_batch_failed(batch, (
                f"malformed RESULTS frame from worker {worker.worker_id}: "
                f"arrays {shapes} for {n} requests"
            ))
            return
        statuses, results, latency, energy = arrays
        # The views die with the frame; one copy of the result matrix
        # outlives it and every result row is a view of that copy.
        results = np.array(results)
        if errors or statuses.any():
            names = [STATUS_NAMES.get(code, "failed") for code in statuses.tolist()]
            results = [row if status == "completed" else None
                       for row, status in zip(results, names)]
            texts = [errors.get(str(index)) for index in range(n)]
        else:
            # The steady state: nothing to decode per row.
            names, texts = ("completed",) * n, (None,) * n
        name, worker_id = batch.name, worker.worker_id
        for future, request_id, status, result, ticks, energy_pj, error in zip(
                batch.futures, batch.request_ids, names, results,
                latency.tolist(), energy.tolist(), texts):
            if not future.done():
                future.set_result(ClusterResponse(
                    request_id, name, status, result, ticks, energy_pj,
                    worker_id, error,
                ))
        completed, shed = names.count("completed"), names.count("shed")
        self.stats.completed += completed
        self.stats.shed += shed
        self.stats.failed += n - completed - shed
        worker.health.record_ok()
        worker.breaker.record_success()

    def _release_window(self, worker: _Worker, batch: _PendingBatch) -> None:
        worker.inflight = max(0, worker.inflight - batch.vectors.shape[0])
        if not worker.inflight:
            worker.drained.set()
        worker.outstanding_cycles = max(
            0.0, worker.outstanding_cycles - batch.cost
        )

    def _resolve_batch_failed(self, batch: _PendingBatch,
                              error: str) -> None:
        for index, future in enumerate(batch.futures):
            if future.done():
                continue
            future.set_result(ClusterResponse(
                request_id=batch.request_ids[index], name=batch.name,
                status="failed", result=None,
                worker_id=batch.worker_id, error=error,
            ))
            self.stats.failed += 1

    # ------------------------------------------------------------------ #
    # Health monitoring and failover                                       #
    # ------------------------------------------------------------------ #
    async def _health(self) -> None:
        """Watch heartbeats; fail workers that die or stop beating."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.monotonic()
            for worker in self._workers:
                if not worker.alive or self._board is None:
                    continue
                beats, _ = self._board.read(worker.worker_id)
                if beats != worker.last_beats:
                    worker.last_beats = beats
                    worker.last_progress = now
                    continue
                if worker.process is not None and not worker.process.is_alive():
                    self._fail_worker(worker, "dead")
                elif now - worker.last_progress > LIVENESS_TIMEOUT:
                    self._fail_worker(worker, "stale")

    async def _supervise(self) -> None:
        """Auto-restart dead workers within a bounded budget per window.

        The budget (``restart_budget`` restarts per ``restart_window``
        seconds, per worker) is what separates supervision from a
        crash loop: a worker that dies faster than it heals stays down
        until its window rolls over, and routing treats it like any
        other dead replica meanwhile.
        """
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            for worker in self._workers:
                if worker.alive or worker.restarting or self._closed:
                    continue
                if worker.process is None:
                    continue
                now = time.monotonic()
                worker.restart_times = [
                    stamp for stamp in worker.restart_times
                    if now - stamp < self.restart_window
                ]
                if len(worker.restart_times) >= self.restart_budget:
                    continue
                worker.restart_times.append(now)
                try:
                    await self.restart_worker(worker.worker_id,
                                              graceful=False)
                    self.stats.supervised_restarts += 1
                except ClusterError:
                    # The respawn itself failed; the budget entry stands,
                    # so a worker whose environment is broken cannot spin.
                    continue

    def _fail_worker(self, worker: _Worker, kind: str) -> None:
        """Mark ``worker`` dead and re-home or fail its inflight batches."""
        if not worker.alive:
            return
        worker.alive = False
        self.stats.worker_failures += 1
        if worker.health.record_failure():
            worker.health.quarantined = True
        if worker.breaker.record_failure():
            self.stats.circuit_opens += 1
        if worker.process is not None and worker.process.is_alive():
            worker.process.terminate()
        self._rehome(worker, str(WorkerFailedError(worker.worker_id, kind)))

    def _rehome(self, worker: _Worker, error: str) -> None:
        """Retry everything in flight on ``worker`` elsewhere, or fail it
        with ``error``; the worker's window is empty afterwards."""
        stranded = list(worker.pending.values())
        worker.pending.clear()
        worker.inflight = 0
        worker.drained.set()
        worker.outstanding_cycles = 0.0
        for batch in stranded:
            batch.attempted.add(worker.worker_id)
            if not self._retry(batch):
                self._resolve_batch_failed(batch, error)

    def _retry(self, batch: _PendingBatch) -> bool:
        """Re-dispatch a stranded batch on a surviving replica.

        Retries deliberately bypass the inflight window -- shedding an
        *already admitted* request would lose its future; the window
        throttles new admissions only.  They bypass the breaker too (an
        admitted future must not be lost to backpressure), but
        :meth:`_replicas` ranks replicas whose breaker is closed ahead of
        ones under suspicion.
        """
        for worker in self._replicas(batch.name, batch.attempted):
            if worker.worker_id not in batch.attempted \
                    and self._dispatch(worker, batch):
                self.stats.retried_batches += 1
                return True
        return False

    # ------------------------------------------------------------------ #
    # Straggler mitigation: per-batch timeouts and hedged re-dispatch      #
    # ------------------------------------------------------------------ #
    async def _watchdog(self) -> None:
        """Expire overdue batches and hedge them onto another replica.

        This is the *gray*-failure detector, complementary to
        :meth:`_health`: the health task catches workers that die or stop
        beating, the watchdog catches workers that keep beating but stop
        finishing -- a straggler looks perfectly alive to liveness.
        """
        interval = max(self.batch_timeout / 4, 0.005)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for worker in self._workers:
                overdue = [
                    batch for batch in worker.pending.values()
                    if batch.deadline is not None and now > batch.deadline
                ]
                for batch in overdue:
                    worker.pending.pop(batch.batch_id, None)
                    self._release_window(worker, batch)
                    self.stats.batch_timeouts += 1
                    if worker.breaker.record_failure():
                        self.stats.circuit_opens += 1
                    # Feed the EWMA score but never flag quarantine from
                    # here: the flag reports a worker that is out until a
                    # restart, which is the right response to a dead worker
                    # (the _health task's call) but not to a slow one -- the
                    # breaker fences stragglers *with* a half-open way
                    # back in once they catch up.
                    worker.health.record_failure()
                    self._hedge(batch)
            self._retry_parked(now)

    def _hedge(self, batch: _PendingBatch) -> None:
        """Re-dispatch a timed-out batch; park it when nowhere is routable.

        Every routable replica is a candidate, in :meth:`_replicas` order:
        untried ones with a closed breaker first, and in the end even the
        one that just timed out (at R=1 that is the only copy; the worker's
        duplicate suppression replays the original reply if the first
        attempt did finish meanwhile, so re-sending is always safe).
        """
        if batch.attempts >= self.max_attempts:
            self._resolve_batch_failed(batch, str(BatchTimeoutError(
                batch.worker_id, batch.batch_id, attempts=batch.attempts,
            )))
            return
        for worker in self._replicas(batch.name, batch.attempted):
            if self._dispatch(worker, batch):
                self.stats.hedged_batches += 1
                self.stats.retried_batches += 1
                return
        if batch.park_deadline is None:
            batch.park_deadline = time.monotonic() + \
                self.batch_timeout * self.max_attempts
        self._parked.append(batch)

    def _retry_parked(self, now: float) -> None:
        """Give parked batches another routing attempt (or expire them)."""
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for batch in parked:
            if batch.park_deadline is not None and now > batch.park_deadline:
                self._resolve_batch_failed(batch, str(BatchTimeoutError(
                    batch.worker_id, batch.batch_id, attempts=batch.attempts,
                    message=(
                        f"batch {batch.batch_id} expired after "
                        f"{batch.attempts} attempt(s) with no routable "
                        f"replica of {batch.name!r}"
                    ),
                )))
                continue
            self._hedge(batch)

    # ------------------------------------------------------------------ #
    # Drain and restart                                                    #
    # ------------------------------------------------------------------ #
    async def drain_worker(self, worker_id: int) -> Dict[str, float]:
        """Fence ``worker_id`` from new traffic and flush it.

        Returns the worker server's own :meth:`ServingStats.snapshot`
        once every inflight request has resolved -- nothing is dropped.
        """
        self._require_running()
        worker = self._workers[worker_id]
        worker.draining = True
        try:
            # Set by whatever empties the window: the last RESULTS, a timeout,
            # or the worker's failure (which re-homes what it held).
            await asyncio.wait_for(worker.drained.wait(), CONTROL_TIMEOUT)
        except asyncio.TimeoutError:
            raise ClusterError(
                f"worker {worker_id} failed to drain within "
                f"{CONTROL_TIMEOUT}s ({worker.inflight} inflight)"
            ) from None
        if not worker.alive:
            return {}
        return await self._call(
            worker, ("drain", worker_id), encode_message(K_DRAIN, {}), "DRAIN"
        )

    async def induce_straggler(self, worker_id: int, batches: int = 1,
                               seconds: float = 0.5) -> Dict[str, Any]:
        """Chaos control: make ``worker_id`` sleep before its next batches.

        The worker keeps heartbeating through the sleep, so liveness
        stays green and only the per-batch ``batch_timeout`` (and the
        hedging behind it) can route around the slowness -- an on-demand
        gray failure for tests and chaos drills.  Returns the worker's
        acknowledgement header.
        """
        self._require_running()
        frame = encode_message(K_STRAGGLE, {
            "batches": int(batches), "seconds": float(seconds),
        })
        return await self._call(
            self._workers[worker_id], ("straggle", worker_id), frame,
            "STRAGGLE",
        )

    async def restart_worker(self, worker_id: int,
                             graceful: bool = True) -> None:
        """Replace ``worker_id``'s process (drain first when graceful).

        The replacement comes up on fresh rings (a crashed worker may
        have left torn frames behind), has every matrix placed on it
        re-registered, and rejoins routing with reset health -- the
        cluster analogue of :meth:`DevicePool.restore_device`.
        """
        self._require_running()
        worker = self._workers[worker_id]
        worker.restarting = True
        try:
            if graceful and worker.alive:
                await self.drain_worker(worker_id)
                try:
                    await self._call(worker, ("stop", worker_id),
                                     encode_message(K_STOP, {}), "STOP")
                except ClusterError:
                    pass  # unheard or unanswered: terminated just below
                worker.alive = False
            if worker.process is not None and worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=self.stop_timeout)
            self._rehome(worker, f"worker {worker_id} restarted")
            worker.close_rings()
            await self._spawn(worker)
            worker.health.reset()
            worker.breaker = CircuitBreaker(**self._breaker_args)
            worker.alive = True
            worker.draining = False
            worker.last_beats = 0
            worker.last_progress = time.monotonic()
            self.stats.restarts += 1
            for name, record in self._matrices.items():
                if worker_id in record.placement:
                    await self._register_on(worker, record, name)
        finally:
            worker.restarting = False

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    def worker_status(self) -> List[Dict[str, Any]]:
        """Per-worker liveness/health/load summary."""
        return [
            {
                "worker": worker.worker_id,
                "alive": worker.alive,
                "draining": worker.draining,
                "quarantined": worker.health.quarantined,
                "health_score": worker.health.score,
                "breaker": worker.breaker.state,
                "breaker_failures": worker.breaker.consecutive_failures,
                "inflight": worker.inflight,
                "outstanding_cycles": worker.outstanding_cycles,
                "matrices": sorted(worker.plan_handles),
            }
            for worker in self._workers
        ]

    # ------------------------------------------------------------------ #
    # Internals                                                            #
    # ------------------------------------------------------------------ #
    def _require_running(self) -> None:
        if not self._started or self._closed:
            raise ClusterError(
                "gateway is not running (use 'async with ClusterGateway(...)'"
                " or call start() first)"
            )

    async def _call(self, worker: _Worker, key: Tuple,
                    frame: Optional[Sequence], what: str) -> Any:
        """One control round trip: the reply :meth:`_on_reply` files under
        ``key``.

        Pushes ``frame`` onto the worker's request ring (``None`` after a
        spawn: the process start was the request) and waits at most
        ``CONTROL_TIMEOUT`` for the answer.  A full ring and a silent worker
        both raise :class:`ClusterError` naming the worker and ``what``, and
        neither leaves the expectation behind.
        """
        pending = asyncio.get_running_loop().create_future()
        self._control[key] = pending
        if frame is not None and (
                worker.requests is None or not worker.requests.push(frame)):
            del self._control[key]
            raise ClusterError(
                f"worker {worker.worker_id} request ring is full ({what})"
            )
        try:
            return await asyncio.wait_for(pending, timeout=CONTROL_TIMEOUT)
        except asyncio.TimeoutError:
            self._control.pop(key, None)
            raise ClusterError(
                f"worker {worker.worker_id} did not answer {what} within "
                f"{CONTROL_TIMEOUT}s"
            ) from None

    def _resolve(self, key: Tuple, value: Any) -> None:
        future = self._control.pop(key, None)
        if future is not None and not future.done():
            future.set_result(value)
