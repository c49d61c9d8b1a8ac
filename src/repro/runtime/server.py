"""Dynamic-batching request scheduler and serving front-end (PumServer).

The batched engine (PR 1) made one *caller-assembled* batch cheap; serving
heavy traffic requires the opposite direction: millions of independent
single-vector requests arriving one by one must be *coalesced* into batches
before they reach the chips.  :class:`PumServer` is that layer:

* callers register named matrices (placed on a :class:`~repro.runtime.pool.DevicePool`
  by its pluggable placement policy) and ``submit()`` single-vector MVM
  requests that return :class:`ServerFuture` handles; bulk producers use
  ``submit_batch()``, which validates a whole ``(n, rows)`` array in one
  NumPy pass.  Either way the unit the server admits, queues and dispatches
  is the *wave* (:class:`~repro.runtime.queueing.Wave`): one record holding
  the array, the shared priority / deadline / arrival tick and the wave's
  :class:`WaveFutures` -- a request is a row of it.  Resolution is per *run*
  too: a dispatched batch (or a shed, a rejection, a failure) leaves one
  record per run of rows on the wave's futures, and a row's
  :class:`ServerFuture` or :class:`Response` is built when somebody asks for
  that row -- a caller who wants arrays (:meth:`WaveFutures.columns`) never
  pays for either;
* an indexed queue of wave runs (:mod:`~repro.runtime.queueing`) feeds a
  deterministic simulated-clock scheduler loop: every :meth:`PumServer.tick`
  coalesces compatible requests (same matrix, same input precision) into
  ``exec_mvm_batch`` calls.  *When* a group dispatches is decided by the
  :class:`~repro.runtime.scheduling.SchedulingPolicy` handed to
  ``PumServer(scheduling=...)`` -- the default
  :class:`~repro.runtime.scheduling.StaticBatchingPolicy` is the classic
  knob pair (dispatch once a batch fills (``max_batch``) or the oldest
  request has waited ``max_wait_ticks``), while
  :class:`~repro.runtime.scheduling.CostAwarePolicy` consults the cached
  plan cost models (:meth:`PumServer.predicted_batch_cycles`) and each
  group's tightest deadline slack.  Requests may carry an SLO class
  (``submit(slo="interactive")``) instead of hand-computed deadlines.
  The tick loop is O(ready work): readiness, deadline shedding, and
  dispatch never scan requests outside the group being dispatched
  (``queue_scans()`` proves it stays flat);
* dispatched batches are assembled without copying the big tensors: a
  batch that is one run of a ``submit_batch`` wave *is* a slice of the
  caller's array, and everything else is gathered, a run at a time, into a
  reusable per-``(allocation, input_bits)`` batch arena;
* admission control rejects -- or sheds lower-priority queued work for --
  new requests when the queue is full, and requests whose deadline passed
  are shed instead of executed;
* per-request and aggregate telemetry (queue depth, batch-fill histogram,
  latency percentiles in ticks, energy per request from the pool's
  :class:`~repro.metrics.CostLedger`) accumulates in :class:`ServingStats`.

The scheduler clock is a plain integer tick counter advanced only by
``tick()`` -- tests and benchmarks are exactly reproducible.  For wall-clock
deployments :class:`ThreadedServerDriver` pumps the same ``tick()`` from a
background thread; correctness never depends on real time.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import (
    AdmissionError,
    DeviceFailedError,
    IntegrityError,
    QuantizationError,
    ReproError,
    SchedulerError,
)
from ..metrics import percentile_sorted
from ..plan.backends import ExecutionBackend
from ..plan.ir import PlanHandle
from .pool import DevicePool, PooledAllocation, RebuildReport
from .queueing import GroupKey, IndexedRequestQueue, Request, Run, Wave
from .scheduling import SchedulingPolicy, SloClass, StaticBatchingPolicy, resolve_slo

__all__ = [
    "PumServer",
    "Request",
    "Response",
    "ServerFuture",
    "ServingStats",
    "ThreadedServerDriver",
    "WaveFutures",
    "integer_vectors",
    "matrix_fingerprint",
]

#: Response status values.
STATUS_COMPLETED = "completed"
STATUS_REJECTED = "rejected"
STATUS_SHED = "shed"
STATUS_FAILED = "failed"
#: The statuses as the ``uint8`` codes of :meth:`WaveFutures.columns` -- and
#: of the cluster's RESULTS frame, which ships that column as it is, so the
#: numbering is wire format.  A row nobody has resolved yet reads
#: :data:`PENDING_CODE`.
STATUS_CODES = {STATUS_COMPLETED: 0, STATUS_FAILED: 1, STATUS_SHED: 2, STATUS_REJECTED: 3}
PENDING_CODE = 255

#: Entries retained by each sliding telemetry window (see ServingStats).
TELEMETRY_WINDOW = 4096

#: What happens to a newcomer when the queue is at capacity: ``"reject"``
#: turns it away; ``"shed_lowest"`` evicts the lowest-priority queued
#: request instead when the newcomer outranks it.
ADMISSION_MODES = ("reject", "shed_lowest")


def matrix_fingerprint(
    matrix: np.ndarray, element_size: int, precision: int
) -> Tuple[str, Tuple[int, ...], int, int]:
    """Content fingerprint deciding whether a re-registration is a no-op."""
    canonical = np.ascontiguousarray(np.asarray(matrix).astype(np.int64))
    digest = hashlib.sha256(canonical.tobytes()).hexdigest()
    return (digest, canonical.shape, element_size, precision)


def integer_vectors(vectors: np.ndarray) -> np.ndarray:
    """``np.asarray(vectors)``, refusing what an int64 cast would truncate.

    Request vectors must arrive with an integer (or bool) dtype: a float,
    NaN or string array raises :class:`~repro.errors.QuantizationError`, as
    ``set_matrix`` refuses a float matrix.
    """
    source = np.asarray(vectors)
    if source.dtype.kind not in "iub":
        raise QuantizationError(
            f"request vectors must be integers (got dtype {source.dtype}); "
            "quantise floats first"
        )
    return source


@dataclass(eq=False, slots=True)
class Response:
    """Terminal outcome of a request (completed, rejected, or shed)."""

    request_id: int
    name: str
    status: str
    result: Optional[np.ndarray]
    arrival_tick: int
    completion_tick: int
    batch_size: int = 0
    energy_pj: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request produced a result."""
        return self.status == STATUS_COMPLETED

    @property
    def latency_ticks(self) -> int:
        """Scheduler ticks between admission and resolution."""
        return self.completion_tick - self.arrival_tick


class ServerFuture:
    """One row of a wave's :class:`WaveFutures`: ``(wave, row)``, nothing else.

    Built when a caller indexes or iterates what ``submit_batch`` returned
    (``submit`` returns row 0 of a one-row wave), not at admission; two
    views of one row are equal and hash alike.  The view keeps the wave's
    futures alive, never the other way round.
    """

    __slots__ = ("request_id", "_wave", "_row")

    def __init__(self, wave: "WaveFutures", row: int) -> None:
        self.request_id = wave.base_id + row
        self._wave = wave
        self._row = row

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ServerFuture) and other._wave is self._wave
                and other._row == self._row)

    def __hash__(self) -> int:
        return hash(self.request_id)

    def done(self) -> bool:
        """Whether the request has reached a terminal state."""
        return self._wave._owners[self._row] is not None

    def result(self, timeout: Optional[float] = None) -> Response:
        """Block until resolved and return the :class:`Response` -- the same
        object on every call, and the one ``tick()`` handed out."""
        wave, row = self._wave, self._row
        if wave._owners[row] is None and not wave._wait(row, timeout):
            raise SchedulerError(
                f"request {self.request_id} not resolved within {timeout}s"
            )
        return wave._response(row)


class _LazyRows(Sequence):
    """List manners for a sequence whose items are built when asked for."""

    __slots__ = ()

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, (list, _LazyRows)) and len(self) == len(other)
                and list(self) == list(other))

    def __add__(self, other) -> list:
        return list(self) + list(other)

    def __radd__(self, other) -> list:
        return list(other) + list(self)


class WaveFutures(_LazyRows):
    """The futures of one wave, and where its rows' outcomes are recorded.

    What ``submit_batch`` returns: a sequence of ``len(vectors)``
    :class:`ServerFuture` views, each built when it is indexed (negative
    indices and slices work) or iterated.  The scheduler resolves a wave a
    *run* at a time -- :meth:`resolve` stores one record ``(start, stop,
    status, result block or None, completion tick, batch size, energy per
    request, error)`` for rows ``start:stop``, the block being a view of the
    batch's result array -- and a row's :class:`Response` is built from its
    record the first time someone asks, then remembered (a response holds no
    reference back, so that is not a cycle).  :meth:`columns` reads the
    records into arrays without building either object.

    The object knows the wave's ids, name and arrival tick but not the wave:
    it keeps neither the queue's :class:`~repro.runtime.queueing.Wave` nor
    the caller's input array alive, and nothing it holds points back at it,
    so dropping the last reference frees it without the cyclic collector.

    Blocking is lazy and per wave: the first ``result()`` that has to wait
    creates one :class:`threading.Condition`, and every waiter of the wave
    waits on it for its own predicate, "my row has a record" (rows of one
    wave resolve in different ticks).  No interleaving strands a waiter: the
    resolver stores the record *before* it reads the condition slot, and a
    waiter publishes the condition *before* it checks for its record under
    the condition's lock.  So a resolver that saw no condition stored its
    record before the waiter's check; one that saw it notifies under the
    lock, which it gets either before the waiter's check or after the
    waiter is inside ``wait()``.
    """

    __slots__ = ("base_id", "name", "arrival_tick", "_owners", "_records",
                 "_responses", "_condition", "__weakref__")

    #: Guards lazy condition creation when several threads wait on one wave.
    _condition_init_lock = threading.Lock()

    def __init__(self, base_id: int, name: str, arrival_tick: int, count: int) -> None:
        self.base_id = base_id
        self.name = name
        self.arrival_tick = arrival_tick
        #: Per row, the record that resolved it (``None`` while pending).
        #: Readers take no lock: a run enters with one slice assignment.
        self._owners: List[Optional[tuple]] = [None] * count
        #: One record per resolved run, in resolution order.
        self._records: List[tuple] = []
        self._responses: Dict[int, Response] = {}
        self._condition: Optional[threading.Condition] = None

    def __len__(self) -> int:
        return len(self._owners)

    def __getitem__(self, index):
        count = len(self._owners)
        if isinstance(index, slice):
            return [ServerFuture(self, row) for row in range(count)[index]]
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("future index out of range")
        return ServerFuture(self, index)

    def __iter__(self) -> Iterator[ServerFuture]:
        return (ServerFuture(self, row) for row in range(len(self._owners)))

    def resolve(self, start: int, stop: int, status: str,
                block: Optional[np.ndarray], tick: int, batch_size: int,
                energy_pj: float, error: Optional[str] = None) -> "ResolvedRun":
        """Record the outcome of rows ``start:stop`` (``block[i]`` is row
        ``start + i``'s result), wake the wave's waiters and return the run
        as ``tick()`` reports it.  A row resolves exactly once: a run that
        covers a resolved row raises."""
        rows = stop - start
        if self._owners[start:stop].count(None) != rows:
            raise SchedulerError(
                f"rows {start}:{stop} of wave {self.base_id} ({self.name!r}) "
                "cover a row that is already resolved"
            )
        record = (start, stop, status, block, tick, batch_size, energy_pj, error)
        self._owners[start:stop] = [record] * rows
        self._records.append(record)
        condition = self._condition
        if condition is not None:
            with condition:
                condition.notify_all()
        return self, start, stop

    def _response(self, row: int) -> Response:
        """Resolved row ``row``'s response, built on the first ask."""
        response = self._responses.get(row)
        if response is None:
            start, _, status, block, tick, batch_size, energy_pj, error = \
                self._owners[row]
            # ``setdefault``: of two threads asking at once, one object wins.
            response = self._responses.setdefault(row, Response(
                self.base_id + row, self.name, status,
                None if block is None else block[row - start],
                self.arrival_tick, tick, batch_size, energy_pj, error,
            ))
        return response

    def _wait(self, row: int, timeout: Optional[float]) -> bool:
        """Block until ``row`` has a record; ``False`` on timeout."""
        with WaveFutures._condition_init_lock:  # waiting is the slow path
            if self._condition is None:
                self._condition = threading.Condition()
        with self._condition:
            return self._condition.wait_for(
                lambda: self._owners[row] is not None, timeout
            )

    def columns(self) -> tuple:
        """The wave as arrays, one fill per run record and no per-row object.

        ``(statuses, results, latency_ticks, energy_pj, errors)``: the
        ``uint8`` :data:`STATUS_CODES` of every row (:data:`PENDING_CODE`
        where nothing resolved the row yet), the ``(n, cols)`` int64 result
        block (zeros on rows without a result), ticks from admission to
        resolution, energy charged per row, and the error text of the failed
        rows by row index.  What iterating the futures and reading each
        ``result()`` would give, without building either.
        """
        n, records = len(self._owners), self._records
        statuses = np.full(n, PENDING_CODE, dtype=np.uint8)
        latency = np.zeros(n, dtype=np.int64)
        energy = np.zeros(n, dtype=np.float64)
        cols = max((record[3].shape[1] for record in records
                    if record[3] is not None), default=0)
        results = np.zeros((n, cols), dtype=np.int64)
        errors: Dict[int, str] = {}
        for start, stop, status, block, tick, _, energy_pj, error in records:
            statuses[start:stop] = STATUS_CODES[status]
            latency[start:stop] = tick - self.arrival_tick
            energy[start:stop] = energy_pj
            if block is not None:
                results[start:stop, : block.shape[1]] = block
            elif error:
                errors.update(dict.fromkeys(range(start, stop), error))
        return statuses, results, latency, energy, errors


#: Rows ``start:stop`` of a wave's futures, resolved.
ResolvedRun = Tuple[WaveFutures, int, int]


class ResolvedRuns(_LazyRows):
    """What ``tick()`` / ``run_until_idle()`` resolved, in dispatch order.

    A sequence of :class:`Response` that holds the resolved *runs*:
    ``len()`` adds run lengths, and the responses -- the very objects the
    rows' futures return -- are built when it is iterated, indexed or
    compared (``server.tick() == []`` is how to ask for an idle tick).
    """

    __slots__ = ("_runs",)

    def __init__(self, runs: List[ResolvedRun]) -> None:
        self._runs = runs

    def __len__(self) -> int:
        return sum(stop - start for _, start, stop in self._runs)

    def __iter__(self) -> Iterator[Response]:
        for futures, start, stop in self._runs:
            yield from map(futures._response, range(start, stop))


@dataclass(eq=False, slots=True)
class _Registration:
    """Everything the server keeps about one registered name.

    Replacing or releasing the name drops the record, and with it every
    buffer and memo that described the old allocation.
    """

    allocation: PooledAllocation
    fingerprint: Tuple[str, Tuple[int, ...], int, int]
    #: Reusable batch-assembly buffers, keyed by input_bits.
    arenas: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Predicted batch cost memos, keyed (input_bits, batch); cleared when
    #: a rebuild changes the placement.
    cycles: Dict[Tuple[int, int], float] = field(default_factory=dict)
    energy_pj: Dict[Tuple[int, int], float] = field(default_factory=dict)


@dataclass
class ServingStats:
    """Aggregate serving telemetry (all times in scheduler ticks).

    The counters and the batch-fill histogram are exact over the server's
    lifetime; the queue-depth, latency, and energy series are bounded
    sliding windows of the most recent :data:`TELEMETRY_WINDOW` entries so
    a long-running deployment cannot grow memory without bound (the
    percentiles are therefore over recent traffic).
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    shed: int = 0
    failed: int = 0
    batches: int = 0
    #: Batches whose input block was sliced straight out of a bulk-admission
    #: source array (no copy at all).
    zero_copy_batches: int = 0
    #: Batches gathered row-by-row into the reusable batch arena.
    gathered_batches: int = 0
    #: Degraded-mode telemetry (replication / fault handling, see
    #: :class:`~repro.runtime.pool.DevicePool`): shard executions served by
    #: a non-primary replica, shard executions re-dispatched after an
    #: in-call device failure, devices newly marked failed, and batches
    #: during which any of those happened.
    replica_hits: int = 0
    replica_retries: int = 0
    device_failures: int = 0
    degraded_batches: int = 0
    #: Integrity-tier telemetry (ABFT verification, see
    #: :mod:`~repro.runtime.integrity`): checksum checks run, checks that
    #: caught a corrupted partial, bands re-executed on a replica after a
    #: detection, and allocations rebuilt onto healthy devices.
    integrity_checks: int = 0
    corruptions_detected: int = 0
    reexecutions: int = 0
    rebuilds: int = 0
    peak_queue_depth: int = 0
    queue_depth_samples: Deque[int] = field(
        default_factory=lambda: deque(maxlen=TELEMETRY_WINDOW)
    )
    batch_fill: Dict[int, int] = field(default_factory=dict)
    latencies: Deque[int] = field(
        default_factory=lambda: deque(maxlen=TELEMETRY_WINDOW)
    )
    energy_per_request_pj: Deque[float] = field(
        default_factory=lambda: deque(maxlen=TELEMETRY_WINDOW)
    )
    #: Cached ascending copy of ``latencies`` (see ``latency_percentile``).
    _sorted_latencies: List[float] = field(
        default_factory=list, init=False, repr=False
    )
    #: Value of ``completed`` when the cache was last rebuilt (-1 = never).
    _sorted_revision: int = field(default=-1, init=False, repr=False)
    #: Guards the sliding windows against a reader racing the tick loop
    #: (see :meth:`snapshot`).  Re-entrant so ``snapshot`` can call the
    #: locked ``latency_percentile`` while holding it.
    _stats_lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False, compare=False
    )

    def observe_queue_depth(self, depth: int) -> None:
        """Sample the queue depth at a tick boundary."""
        with self._stats_lock:
            self.queue_depth_samples.append(depth)
            self.peak_queue_depth = max(self.peak_queue_depth, depth)

    def record_batch(self, size: int, latencies: List[int], energy_pj: float) -> None:
        """Account one dispatched batch."""
        with self._stats_lock:
            self.batches += 1
            self.completed += size
            self.batch_fill[size] = self.batch_fill.get(size, 0) + 1
            self.latencies.extend(latencies)
            per_request = energy_pj / size if size else 0.0
            self.energy_per_request_pj.extend([per_request] * size)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in ticks (0.0 when nothing completed yet).

        The sliding window is only re-sorted when a batch has completed
        since the last call (``completed`` is the cache revision), so the
        p50/p95/p99 triple a dashboard reads every tick costs one sort per
        dispatch rather than one sort per query.
        """
        with self._stats_lock:
            if not self.latencies:
                return 0.0
            if self._sorted_revision != self.completed:
                self._sorted_latencies = sorted(self.latencies)
                self._sorted_revision = self.completed
            return percentile_sorted(self._sorted_latencies, q)

    def snapshot(self) -> Dict[str, float]:
        """Consistent point-in-time :meth:`summary` (thread-safe).

        A dashboard (or the cluster gateway's health loop) reading stats
        while a :class:`ThreadedServerDriver` is mid-tick must not observe
        a half-updated window -- e.g. ``completed`` already bumped but the
        batch's latencies not yet appended, which skews the percentile
        against the counter it is paired with.  ``snapshot`` takes the
        stats lock, so it always sees whole batches; the mutators
        (``record_batch`` / ``observe_queue_depth``) take the same lock.
        """
        with self._stats_lock:
            return self.summary()

    @property
    def mean_batch_fill(self) -> float:
        """Average requests per dispatched batch."""
        if not self.batches:
            return 0.0
        return self.completed / self.batches

    @property
    def mean_energy_per_request_pj(self) -> float:
        """Average chip energy charged per completed request."""
        if not self.energy_per_request_pj:
            return 0.0
        return sum(self.energy_per_request_pj) / len(self.energy_per_request_pj)

    def summary(self) -> Dict[str, float]:
        """One flat dict for dashboards / benchmark artifacts."""
        return {
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "rejected": float(self.rejected),
            "shed": float(self.shed),
            "failed": float(self.failed),
            "batches": float(self.batches),
            "zero_copy_batches": float(self.zero_copy_batches),
            "gathered_batches": float(self.gathered_batches),
            "replica_hits": float(self.replica_hits),
            "replica_retries": float(self.replica_retries),
            "device_failures": float(self.device_failures),
            "degraded_batches": float(self.degraded_batches),
            "integrity_checks": float(self.integrity_checks),
            "corruptions_detected": float(self.corruptions_detected),
            "reexecutions": float(self.reexecutions),
            "rebuilds": float(self.rebuilds),
            "mean_batch_fill": self.mean_batch_fill,
            "max_queue_depth": float(self.peak_queue_depth),
            "p50_latency_ticks": self.latency_percentile(50),
            "p95_latency_ticks": self.latency_percentile(95),
            "p99_latency_ticks": self.latency_percentile(99),
            "mean_energy_per_request_pj": self.mean_energy_per_request_pj,
        }


def coalesce(runs: List[Run]) -> List[Run]:
    """Merge neighbouring runs that continue one wave.

    The indexed queue hands back whole runs, but a wave admitted row by row
    at capacity -- or taken from a row-granular queue, like the test
    suite's flat-list oracle -- arrives as adjacent pieces; merged, one wave
    is one slice again.
    """
    merged = [runs[0]]
    for run in runs[1:]:
        wave, start, stop = merged[-1]
        if run[0] is wave and run[1] == stop:
            merged[-1] = (wave, start, run[2])
        else:
            merged.append(run)
    return merged


class PumServer:
    """Serving front-end: single-vector requests in, coalesced batches out.

    >>> import numpy as np
    >>> from repro.runtime.scheduling import StaticBatchingPolicy
    >>> from repro.runtime.server import PumServer
    >>> server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 2))
    >>> _ = server.register_matrix("proj", np.eye(8, dtype=np.int64))
    >>> futures = [server.submit("proj", np.full(8, i, dtype=np.int64),
    ...                          input_bits=3) for i in range(4)]
    >>> responses = server.run_until_idle()
    >>> sorted(r.request_id for r in responses)
    [0, 1, 2, 3]
    >>> futures[2].result().result
    array([2, 2, 2, 2, 2, 2, 2, 2])
    >>> server.stats.batch_fill
    {4: 1}
    """

    def __init__(
        self,
        pool: Optional[DevicePool] = None,
        num_devices: int = 2,
        policy: str = "cache_affinity",
        queue_capacity: int = 64,
        admission: str = "reject",
        backend: Union[None, str, ExecutionBackend] = None,
        replication: int = 1,
        scheduling: Optional[SchedulingPolicy] = None,
        verify: Optional[str] = None,
        auto_rebuild: bool = False,
    ) -> None:
        if queue_capacity < 1:
            raise SchedulerError("queue_capacity must be >= 1")
        if admission not in ADMISSION_MODES:
            raise SchedulerError(
                f"unknown admission mode {admission!r}; "
                f"expected one of {ADMISSION_MODES}"
            )
        if scheduling is not None and not isinstance(scheduling, SchedulingPolicy):
            raise SchedulerError(
                f"scheduling must be a SchedulingPolicy instance or None "
                f"(got {scheduling!r})"
            )
        self.pool = pool if pool is not None else DevicePool(
            num_devices=num_devices, policy=policy, backend=backend,
            replication=replication,
            verify=verify if verify is not None else "off",
        )
        if pool is not None and verify is not None:
            # An explicit server-level verify mode wins over the pool's.
            self.pool.verify = verify
        #: When True, a batch that exhausts every replica of a band
        #: triggers :meth:`DevicePool.rebuild` on the affected allocation
        #: and retries once before failing its riders.
        self.auto_rebuild = bool(auto_rebuild)
        #: Execution backend for batches dispatched by this server; ``None``
        #: defers to the pool's default.  Kept server-side so two servers
        #: sharing one pool can run different backends without mutating the
        #: shared pool.
        self.backend = backend
        #: When each group dispatches, and how large a batch may grow: the
        #: live knobs are ``scheduling.max_batch`` / ``.max_wait_ticks``
        #: (an :class:`~repro.runtime.scheduling.Autotuner` moves them).
        self.scheduling = (
            scheduling if scheduling is not None else StaticBatchingPolicy()
        )
        #: Bound on queued requests; admission control engages beyond it.
        self.queue_capacity = queue_capacity
        #: Admission mode at capacity (one of :data:`ADMISSION_MODES`).
        self.admission = admission
        #: Pending-request store, O(ready work) per tick.
        self.request_queue = IndexedRequestQueue()
        self.now = 0
        self.stats = ServingStats()
        #: Re-registrations skipped because the matrix was byte-identical.
        self.registration_reuses = 0
        self._lock = threading.RLock()
        self._registrations: Dict[str, _Registration] = {}
        self._next_request = 0
        #: ``pool.total_energy_pj()`` as read after the last batch of the
        #: running tick -- which, the lock being held, is the reading before
        #: the next one.  ``None`` at the start of a tick and after a failure.
        self._energy_mark: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Matrix registry                                                      #
    # ------------------------------------------------------------------ #
    def register_matrix(
        self,
        name: str,
        matrix: np.ndarray,
        element_size: int = 8,
        precision: int = 0,
        input_bits: int = 8,
    ) -> PooledAllocation:
        """Place ``matrix`` on the pool under ``name`` (replacing any old one).

        Programming multi-bit analog devices is slow and energetic, so a
        re-registration whose matrix bytes and quantisation config match the
        live allocation is a no-op: the existing shards -- and with them the
        devices' shard kernel and plan caches -- are reused untouched
        (``registration_reuses`` counts these).  Otherwise re-registration
        passes the previous shards' devices as the affinity hint, so the
        cache-affinity policy keeps updated matrices on chips whose ReRAM
        arrays already hold the stale version.

        Registration is also when the *planning* happens: the pool fills
        the shard table and compiles the tile-level plans at ``input_bits``
        (the precision requests against this matrix are expected to use)
        ahead of time, so ``planner_builds()`` stays flat while serving.
        The tensors the vectorized engine contracts -- the shard kernels and
        the ``DevicePlan`` that stacks them -- are built by the first call
        against the allocation, not here (docs/architecture.md, *Write
        path*).
        """
        with self._lock:
            fingerprint = matrix_fingerprint(matrix, element_size, precision)
            previous = self._registrations.get(name)
            if previous is not None and previous.fingerprint == fingerprint:
                self.registration_reuses += 1
                self.pool.compile(previous.allocation, input_bits=input_bits)
                return previous.allocation
            affinity: Tuple[int, ...] = ()
            if previous is not None:
                del self._registrations[name]
                affinity = tuple(previous.allocation.devices_used)
                self.pool.release(previous.allocation)
            allocation = self.pool.set_matrix(
                matrix, element_size=element_size, precision=precision,
                affinity=affinity,
            )
            self.pool.compile(allocation, input_bits=input_bits)
            self._registrations[name] = _Registration(allocation, fingerprint)
            return allocation

    def planner_builds(self) -> int:
        """Execution plans compiled across the pool (registration-time only)."""
        return self.pool.planner_builds()

    def queue_scans(self) -> int:
        """Full-queue scans the scheduler has performed.

        Stays flat (zero on the tick loop) no matter how deep the queue
        gets; only admission shedding at capacity scans.
        """
        return self.request_queue.scans

    @property
    def matrix_names(self) -> Tuple[str, ...]:
        """Names of the matrices currently registered."""
        with self._lock:
            return tuple(self._registrations)

    def _registration(self, name: str) -> _Registration:
        with self._lock:
            record = self._registrations.get(name)
            if record is None:
                raise AdmissionError(f"no matrix registered under {name!r}")
            return record

    def allocation_for(self, name: str) -> PooledAllocation:
        """The live pooled allocation registered under ``name``."""
        return self._registration(name).allocation

    # ------------------------------------------------------------------ #
    # Predicted-cost oracle                                                #
    # ------------------------------------------------------------------ #
    def predicted_batch_cycles(
        self, name: str, input_bits: int, batch: int
    ) -> float:
        """Predicted cycles of dispatching ``batch`` requests of ``name``.

        Closed-form evaluation of the cached plan cost models
        (:meth:`~repro.plan.ir.MvmPlan.predicted_cycles`) -- no execution,
        no planning (registration compiled the plans), and each
        ``(matrix, input_bits, batch)`` triple is memoised so the
        scheduling hot path costs one dict probe.
        """
        record = self._registration(name)
        key = (int(input_bits), int(batch))
        cached = record.cycles.get(key)
        if cached is None:
            cached = self.pool.predicted_batch_cycles(
                record.allocation, batch, input_bits=input_bits
            )
            record.cycles[key] = cached
        return cached

    def predicted_batch_energy_pj(
        self, name: str, input_bits: int, batch: int
    ) -> float:
        """Predicted analog-phase energy (pJ) of one ``batch`` dispatch."""
        record = self._registration(name)
        key = (int(input_bits), int(batch))
        cached = record.energy_pj.get(key)
        if cached is None:
            cached = self.pool.predicted_batch_energy_pj(
                record.allocation, batch, input_bits=input_bits
            )
            record.energy_pj[key] = cached
        return cached

    def plan_handle(self, name: str, input_bits: int = 8) -> PlanHandle:
        """Process-portable cost surrogate of the matrix under ``name``.

        Evaluates the pool's cached cost models into a
        :class:`~repro.plan.ir.PlanHandle` -- what a cluster worker ships
        back to the gateway at registration so cross-process routing can
        price dispatches without serializing live plans.
        """
        return self.pool.plan_handle(self.allocation_for(name), input_bits)

    # ------------------------------------------------------------------ #
    # Admission                                                            #
    # ------------------------------------------------------------------ #
    def _admissible(
        self, name: str, vectors: np.ndarray, input_bits: int, ndim: int
    ) -> np.ndarray:
        """The request front door shared by ``submit`` and ``submit_batch``.

        Shape, then dtype, then value range, each failing the caller
        synchronously with :class:`~repro.errors.QuantizationError` before
        a request id is consumed -- so a bad vector never poisons the batch
        it would later ride in, and a float is refused (as ``set_matrix``
        refuses a float matrix) instead of being truncated.  Returns the
        vectors as one contiguous int64 array: the caller's own when it
        already is one.
        """
        rows = self._registration(name).allocation.shape[0]
        source = np.asarray(vectors)
        if source.ndim != ndim or source.shape[-1] != rows:
            expected = (
                f"submit expects a ({rows},) vector" if ndim == 1
                else f"submit_batch expects an (n, {rows}) array"
            )
            raise QuantizationError(
                f"{expected} for matrix {name!r} (got shape {source.shape})"
            )
        source = integer_vectors(source)
        if source.size:
            lo, hi = int(source.min()), int(source.max())
            if lo < 0 or hi >= 1 << input_bits:
                raise QuantizationError(
                    f"request vector values must be in [0, 2**{input_bits}) "
                    f"(got range [{lo}, {hi}])"
                )
        return np.ascontiguousarray(source, dtype=np.int64)

    def submit(
        self,
        name: str,
        vector: np.ndarray,
        input_bits: int = 8,
        priority: int = 0,
        deadline: Optional[int] = None,
        slo: Union[None, str, SloClass] = None,
    ) -> ServerFuture:
        """Admit one single-vector MVM request and return its future.

        ``priority`` orders requests within a batch window (higher first);
        ``deadline`` is an absolute tick after which the request is shed
        rather than executed.  ``slo`` names a service-level class
        (``"interactive"`` / ``"standard"`` / ``"batch"``, or any
        :class:`~repro.runtime.scheduling.SloClass`) that fills in the
        deadline and priority the caller did not pass explicitly.  When the
        queue is at capacity the admission mode decides between rejecting
        the newcomer and shedding the lowest-priority queued request.
        A vector is a wave of one: the future is row 0 of its
        :class:`WaveFutures`, through the code ``submit_batch`` runs.
        """
        return self._admit(name, vector, input_bits, priority, deadline, slo, bulk=False)[0]

    def submit_batch(
        self,
        name: str,
        vectors: np.ndarray,
        input_bits: int = 8,
        priority: int = 0,
        deadline: Optional[int] = None,
        slo: Union[None, str, SloClass] = None,
    ) -> WaveFutures:
        """Admit a whole ``(n, rows)`` array of single-vector requests at once.

        The bulk-ingress fast path: one shape/dtype/range validation pass
        over the entire array (instead of one per vector) and one wave
        record for all of it -- the (single, contiguous) int64 copy of the
        caller's array (the caller's own array when it already is one) and
        what its rows share -- which is what lets the dispatcher later slice
        whole batches out of it without copying.
        Admission control is applied in row order, exactly as ``n``
        individual ``submit()`` calls would: the rows that fit are a prefix
        of the wave, and each row after it sheds a lower-priority victim or
        resolves its future as rejected while the rest of the batch proceeds.
        Returns the wave's :class:`WaveFutures`: a sequence with one
        :class:`ServerFuture` per row, in row order (``len``, indexing,
        slicing, iteration, ``+`` with a list), each built when it is asked
        for; ``futures.columns()`` hands the whole wave back as arrays.
        Holding it keeps the recorded result blocks alive, not ``vectors``.

        An empty batch returns an empty sequence (it equals ``[]``); a
        non-integer array, or one containing any value outside
        ``[0, 2**input_bits)``, is rejected as a whole with
        :class:`~repro.errors.QuantizationError` before any request is
        created -- the same check ``submit()`` applies.

        >>> import numpy as np
        >>> from repro.runtime.server import PumServer
        >>> server = PumServer(num_devices=1)
        >>> _ = server.register_matrix("proj", np.eye(4, dtype=np.int64))
        >>> rows = np.arange(8, dtype=np.int64).reshape(4, 2).repeat(2, axis=1) % 4
        >>> futures = server.submit_batch("proj", rows, input_bits=2)
        >>> _ = server.run_until_idle()
        >>> np.array_equal(np.stack([f.result().result for f in futures]), rows)
        True
        """
        return self._admit(name, vectors, input_bits, priority, deadline, slo, bulk=True)

    def _admit(
        self, name: str, vectors: np.ndarray, input_bits: int, priority: int,
        deadline: Optional[int], slo: Union[None, str, SloClass], bulk: bool,
    ) -> WaveFutures:
        """The one way in: validate ``vectors`` (a ``submit`` vector is a
        wave of one), queue them as one wave (ids ``_next_request`` onwards)
        under admission control and return its futures; rows that do not get
        in are resolved here."""
        with self._lock:
            if slo is not None:
                # Explicit arguments win: an SLO class only fills in a
                # deadline the caller did not pass and a priority the caller
                # left at the default 0.
                slo = resolve_slo(slo)
                if deadline is None:
                    deadline = slo.deadline_for(self.now)
                if priority == 0:
                    priority = slo.shed_priority
            source = self._admissible(name, vectors, input_bits, ndim=2 if bulk else 1)
            if not bulk:
                source = source[np.newaxis]
            count = len(source)
            futures = WaveFutures(self._next_request, name, self.now, count)
            wave = Wave(futures.base_id, name, input_bits, priority, deadline,
                        self.now, source, futures, bulk)
            self._next_request += count
            self.stats.submitted += count
            queue = self.request_queue
            free = self.queue_capacity - len(queue)
            admitted = count if count <= free else max(free, 0)
            if admitted:
                queue.push(wave, 0, admitted)
            # At capacity, row by row: shed a queued victim the row
            # outranks, or turn the row away -- and with it every row after
            # it, since a rejection leaves the queue as it found it.
            while admitted < count and self.admission == "shed_lowest":
                victim = queue.victim(self.scheduling.victim_order(self))
                if victim is None or victim.priority >= wave.priority:
                    break
                self.stats.shed += 1
                self._terminate(queue.discard(victim.request_id), STATUS_SHED)
                queue.push(wave, admitted, admitted + 1)
                admitted += 1
            if admitted < count:
                self.stats.rejected += count - admitted
                self._terminate((wave, admitted, count), STATUS_REJECTED)
            return futures

    def _terminate(
        self, run: Run, status: str, batch_size: int = 0,
        error: Optional[str] = None,
    ) -> ResolvedRun:
        """Resolve every row of ``run`` without a result: one record."""
        wave, start, stop = run
        return wave.futures.resolve(start, stop, status, None, self.now,
                                    batch_size, 0.0, error)

    # ------------------------------------------------------------------ #
    # Scheduler loop                                                       #
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Requests currently queued."""
        with self._lock:
            return len(self.request_queue)

    def tick(self) -> ResolvedRuns:
        """Advance the simulated clock one tick and dispatch what is due.

        Returns the responses resolved during this tick (completed batches
        plus deadline sheds), in dispatch order, as a :class:`ResolvedRuns`:
        ``len()`` and truth cost nothing, and a :class:`Response` is built
        when the sequence is iterated, indexed or compared.
        """
        with self._lock:
            self.now += 1
            self._energy_mark = None
            self.scheduling.on_tick(self)
            self.stats.observe_queue_depth(len(self.request_queue))
            resolved: List[ResolvedRun] = []
            for run in self.request_queue.pop_expired(self.now):
                # Past its absolute deadline: shed instead of executed.
                self.stats.shed += run[2] - run[1]
                resolved.append(self._terminate(run, STATUS_SHED))
            for key in self.scheduling.ready_groups(
                self, self.request_queue, self.now
            ):
                resolved += self._dispatch_group(key)
            return ResolvedRuns(resolved)

    def run_until_idle(self, max_ticks: int = 100_000) -> ResolvedRuns:
        """Tick until the queue drains; returns every response resolved (one
        :class:`ResolvedRuns` over all the ticks, as lazy as ``tick()``'s)."""
        responses = ResolvedRuns([])
        for _ in range(max_ticks):
            if not self.pending:
                return responses
            responses._runs += self.tick()._runs
        if self.pending:
            raise SchedulerError(
                f"queue failed to drain within {max_ticks} ticks "
                f"({self.pending} requests pending)"
            )
        return responses

    def _dispatch_group(self, key: GroupKey) -> List[ResolvedRun]:
        """Drain one compatible group into >= 1 ``exec_mvm_batch`` calls."""
        name, input_bits = key
        responses: List[ResolvedRun] = []
        scheduling = self.scheduling
        while True:
            if not self.request_queue.group_pending(key):
                return responses
            # One policy decision per candidate batch (for the static
            # policy the oldest member's wait is read once per pass).
            if not scheduling.dispatch_now(self, self.request_queue, key, self.now):
                return responses
            runs = self.request_queue.take(key, scheduling.max_batch)
            responses += self._execute_batch(name, input_bits, runs)

    def _assemble_batch(
        self,
        record: _Registration,
        input_bits: int,
        runs: List[Run],
    ) -> np.ndarray:
        """The ``(batch, rows)`` input block of one dispatch, copy-free.

        A batch that is one run of a ``submit_batch`` wave (the steady state
        of bulk traffic: same priority, arrival order) is a direct slice of
        the caller's array -- zero copies, zero allocations.  Anything else
        is gathered, one block per run, into a reusable
        per-``(name, input_bits)`` arena, so mixed traffic costs copies but
        still no per-batch allocation of the block.
        """
        wave, start, stop = runs[0]
        if len(runs) == 1 and wave.bulk:
            self.stats.zero_copy_batches += 1
            return wave.source[start:stop]
        max_batch = self.scheduling.max_batch
        arena = record.arenas.get(input_bits)
        if arena is None or arena.shape[0] < max_batch:
            arena = np.empty(
                (max_batch, record.allocation.shape[0]), dtype=np.int64
            )
            record.arenas[input_bits] = arena
        filled = 0
        for wave, start, stop in runs:
            arena[filled: filled + stop - start] = wave.source[start:stop]
            filled += stop - start
        self.stats.gathered_batches += 1
        return arena[:filled]

    def _note_degraded(self, before: Tuple[int, ...]) -> None:
        """Fold the pool's resilience counter deltas into the serving stats.

        ``before`` is the :meth:`DevicePool.resilience_snapshot` taken when
        the dispatch started.  Bracketing per dispatch (like the energy
        reading) keeps the stats correct even when several servers share
        one pool: each server only accounts the degradation its own batches
        experienced.  Plain integrity checks do not flag a batch degraded
        -- only failover events and detections do, so a fault-free
        ``verify="full"`` run keeps ``degraded_batches == 0``.
        """
        after = self.pool.resilience_snapshot()
        if after == before:
            return
        hits, retries, failures, checks, corruptions, reexecutions = (
            now - prior for now, prior in zip(after, before)
        )
        self.stats.integrity_checks += checks
        if hits or retries or failures or corruptions or reexecutions:
            self.stats.replica_hits += hits
            self.stats.replica_retries += retries
            self.stats.device_failures += failures
            self.stats.corruptions_detected += corruptions
            self.stats.reexecutions += reexecutions
            self.stats.degraded_batches += 1

    def device_health(self, detail: bool = False) -> List:
        """Per-device health of the underlying pool.

        ``detail=False``: one bool per device (True = dispatchable).
        ``detail=True``: one dict per device with the integrity tier's
        EWMA score, lifetime corruption/failure counts, and quarantine
        flag (see :meth:`DevicePool.device_health`).
        """
        return self.pool.device_health(detail=detail)

    def rebuild(self, name: str) -> RebuildReport:
        """Rebuild the allocation registered under ``name`` (see pool docs).

        Reprograms row-band copies lost to failed devices onto healthy
        ones and invalidates the predicted-cost memos the placement change
        stales.  Returns the pool's :class:`~repro.runtime.pool.RebuildReport`.
        """
        with self._lock:
            return self._rebuild(self._registration(name))

    def _rebuild(self, record: _Registration) -> RebuildReport:
        report = self.pool.rebuild(record.allocation)
        if report.changed:
            self.stats.rebuilds += 1
            record.cycles.clear()
            record.energy_pj.clear()
        return report

    @staticmethod
    def _band_exhausted(exc: ReproError) -> bool:
        """Whether ``exc`` means a band ran out of replicas (rebuildable)."""
        return (
            isinstance(exc, (DeviceFailedError, IntegrityError))
            and getattr(exc, "kind", None) == "exhausted"
        )

    def _execute_batch(
        self, name: str, input_bits: int, runs: List[Run]
    ) -> List[ResolvedRun]:
        """One taken batch -> one pool call -> one record per run, each a
        block of the result array stored on its wave's futures."""
        record = self._registrations[name]
        if len(runs) > 1:
            runs = coalesce(runs)
        pool = self.pool
        # Breakdown-free reading, equal bit for bit to
        # ``total_ledger().energy_pj``.
        energy_before = self._energy_mark
        if energy_before is None:
            energy_before = pool.total_energy_pj()
        before = pool.resilience_snapshot()
        try:
            vectors = self._assemble_batch(record, input_bits, runs)
            try:
                results = pool.exec_mvm_batch(
                    record.allocation, vectors, input_bits=input_bits,
                    backend=self.backend,
                )
            except ReproError as exc:
                if not (self.auto_rebuild and self._band_exhausted(exc)):
                    raise
                results = self._rebuild_and_retry(record, vectors, input_bits)
                if results is None:
                    raise
        except Exception as exc:
            # Whatever went wrong, the riders left the queue with ``take``
            # and must not be stranded: resolve every one as failed.  A
            # library error stops there, so a failing batch never wedges
            # the scheduler (or a driver thread); anything else is a bug
            # and goes on to the caller.
            self._energy_mark = None
            self._note_degraded(before)
            size = sum(stop - start for _, start, stop in runs)
            self.stats.failed += size
            error = f"{type(exc).__name__}: {exc}"
            resolved = [
                self._terminate(run, STATUS_FAILED, size, error) for run in runs
            ]
            if isinstance(exc, ReproError):
                return resolved
            raise
        self._note_degraded(before)
        self._energy_mark = pool.total_energy_pj()
        energy_pj = self._energy_mark - energy_before
        size = len(vectors)
        per_request = energy_pj / size

        # Per run: one record (its block a view of ``results``, as a
        # response's row is a view of the block) and one latency extension.
        now, offset = self.now, 0
        resolved: List[ResolvedRun] = []
        latencies: List[int] = []
        for wave, start, stop in runs:
            rows = stop - start
            resolved.append(wave.futures.resolve(
                start, stop, STATUS_COMPLETED, results[offset: offset + rows],
                now, size, per_request,
            ))
            latencies += [now - wave.arrival_tick] * rows
            offset += rows
        self.stats.record_batch(size, latencies, energy_pj)
        return resolved

    def _rebuild_and_retry(
        self,
        record: _Registration,
        vectors: np.ndarray,
        input_bits: int,
    ) -> Optional[np.ndarray]:
        """Auto-rebuild path: repair the allocation and retry the batch once.

        Returns the retried batch's results, or ``None`` when the rebuild
        found nowhere to place a lost band (or the retry failed again) --
        the caller then fails the batch with the *original* error.
        """
        try:
            if not self._rebuild(record).changed:
                return None
            return self.pool.exec_mvm_batch(
                record.allocation, vectors, input_bits=input_bits,
                backend=self.backend,
            )
        except ReproError:
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PumServer(matrices={len(self._registrations)}, pending={self.pending}, "
            f"tick={self.now}, pool={self.pool!r})"
        )


class ThreadedServerDriver:
    """Pump :meth:`PumServer.tick` from a daemon thread (wall-clock serving).

    The simulated tick stays the unit of scheduling time; the driver merely
    maps it onto real time at ``tick_interval`` seconds per tick, so a
    threaded deployment exhibits the same batching behaviour the
    deterministic tests pin down.  Use as a context manager::

        with ThreadedServerDriver(server, tick_interval=1e-4):
            future = server.submit("proj", vector)
            response = future.result(timeout=1.0)
    """

    def __init__(self, server: PumServer, tick_interval: float = 1e-4) -> None:
        if tick_interval < 0:
            raise SchedulerError("tick_interval must be >= 0")
        self.server = server
        self.tick_interval = tick_interval
        #: The exception that ended the tick loop, if one escaped ``tick()``;
        #: re-raised (once) by :meth:`stop`.
        self.error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ThreadedServerDriver":
        """Start the tick loop (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="pum-server-driver")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the tick loop and join the thread.

        Re-raises what killed the loop, if anything did: ``tick()`` fails a
        batch's riders and carries on after a library error, so an exception
        that reaches the driver is a bug, and later ``result()`` calls would
        otherwise just time out with nobody pumping.
        """
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        error, self.error = self.error, None
        if error is not None:
            raise error

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                self.server.tick()
                if self.tick_interval:
                    time.sleep(self.tick_interval)
        except Exception as exc:
            self.error = exc

    def __enter__(self) -> "ThreadedServerDriver":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
