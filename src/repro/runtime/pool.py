"""Multi-device serving pool: shard matrices and requests over many chips.

One :class:`~repro.runtime.session.DarthPumDevice` exposes one chip.  A
serving deployment runs many chips side by side, so the pool scales the
Table 1 calls across ``N`` devices the same way multi-node machines scale by
sharding work across identical compute tiles:

* ``set_matrix`` places each matrix on the device with the most free HCTs
  (:func:`most_free_device`); a matrix too large for any single chip is
  *row-sharded* across several devices, each holding a contiguous band of
  rows.
* ``exec_mvm_batch`` checks its one ``(allocation, inputs)`` and hands it
  to the pool's one band loop (``_dispatch``; ``exec_mvm`` is a batch of
  one): every
  row band runs on the device holding its first healthy copy (each band's
  partial result is a full-width ``(batch, cols)`` contribution) and the
  partials are summed in band order -- the same map-reduce a multi-chip
  interconnect performs.  Several matrices are several calls:
  ``[pool.exec_mvm_batch(a, v) for a, v in requests]``.
* every :class:`PooledAllocation` *is* its shard table -- a
  :class:`~repro.plan.ir.ShardedPlan` mapping band position to that band's
  copies in replica order -- filled once by ``set_matrix`` (``compile``
  additionally warms the tile-level :class:`~repro.plan.ir.MvmPlan`
  caches), so the per-request fan-out does zero planning.
* with ``replication=R`` every row band is programmed on ``R`` *distinct*
  devices; dispatch prefers the primary copy, and a shard whose device
  fails mid-call (:class:`~repro.errors.DeviceFailedError`, typically from
  the :class:`~repro.runtime.faults.FaultInjector`) is retried on a replica
  instead of failing its riders.  Replicas hold identical blocks, partials
  are merged in band order either way, so degraded results are bit-identical
  to fault-free ones.
* ``total_ledger`` aggregates the cost ledgers of every device and chip so
  throughput/energy accounting stays a one-liner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analog.bitslicing import single_vector
from ..analog.numbers import DifferentialPairs
from ..core.config import ChipConfig
from ..errors import (
    AllocationError,
    ConfigurationError,
    DeviceFailedError,
    IntegrityError,
    NoDevicesError,
    RebuildError,
    ReplicationError,
)
from ..metrics import CostLedger, merge_ledgers
from ..plan.backends import GATE_LEVEL, ExecutionBackend, resolve_backend
from ..plan.ir import PlanHandle, ShardTask, ShardedPlan
from ..reram import NoiseConfig
from .allocator import plan_matrix
from .integrity import VERIFY_FULL, VERIFY_MODES, VERIFY_OFF, DeviceHealth, IntegrityChecker
from .session import DarthPumDevice, integer_matrix, integer_vectors

__all__ = [
    "DevicePool",
    "PooledAllocation",
    "RebuildReport",
]

#: Sort key of a dispatch wave (stable: bands keep their order per device).
_DEVICE_INDEX = attrgetter("device_index")


@dataclass
class PooledAllocation(ShardedPlan):
    """A matrix stored across one or more devices of a :class:`DevicePool`.

    Mirrors :class:`~repro.runtime.session.MatrixAllocation` one level up.
    It is the pool's one record per matrix: the inherited shard table
    (``bands[position]`` = that row band's :class:`~repro.plan.ir.ShardTask`
    copies in replica order, each carrying its device-level allocation)
    plus what :meth:`DevicePool.rebuild` needs to reprogram a lost band.
    """

    #: The pool's private int64 copy of the source matrix, retained so
    #: :meth:`DevicePool.rebuild` can reprogram lost row bands (and
    #: ``update_matrix`` rewrites it with the copies).
    matrix: Optional[np.ndarray] = None
    #: Quantisation config the matrix was stored with (rebuild reuses it).
    element_size: int = 8
    precision: int = 0


@dataclass(frozen=True)
class RebuildReport:
    """Outcome of one :meth:`DevicePool.rebuild` pass over an allocation."""

    allocation_id: int
    #: Band positions that received at least one reprogrammed copy.
    bands_rebuilt: Tuple[int, ...]
    #: New copies programmed onto healthy devices, in placement order.
    copies_programmed: Tuple[ShardTask, ...]
    #: Copies on failed devices that were dropped from the allocation.
    copies_dropped: Tuple[ShardTask, ...]
    #: Minimum live copies per band after the rebuild (the restored R,
    #: possibly lower than the pool's target when capacity ran short).
    replication: int

    @property
    def changed(self) -> bool:
        """Whether the rebuild modified the allocation at all."""
        return bool(self.copies_programmed or self.copies_dropped)


def most_free_device(free: Sequence[int], needed: int) -> Optional[int]:
    """The pool's one placement rule: of the devices where a band of
    ``needed`` HCTs fits (``free[index] >= needed``), the one with the most
    free HCTs, the lowest index on a tie; ``None`` when none fits."""
    best = None
    for index, room in enumerate(free):
        if room >= needed and (best is None or room > free[best]):
            best = index
    return best


class DevicePool:
    """Shards matrices and MVM traffic across ``N`` DARTH-PUM chips.

    >>> import numpy as np
    >>> from repro.runtime.pool import DevicePool
    >>> pool = DevicePool(num_devices=2)
    >>> matrix = np.eye(8, dtype=np.int64)
    >>> allocation = pool.set_matrix(matrix, element_size=4, precision=0)
    >>> vectors = np.arange(16, dtype=np.int64).reshape(2, 8) % 4
    >>> out = pool.exec_mvm_batch(allocation, vectors, input_bits=2)
    >>> np.array_equal(out, vectors @ matrix)
    True
    >>> pool.set_matrix(np.eye(8, dtype=np.int64)).devices_used  # most free
    [1]

    Parameters
    ----------
    num_devices:
        Number of chips in the pool.
    config:
        Optional :class:`~repro.core.config.ChipConfig` shared by every
        device (defaults to the iso-area chip).
    noise:
        Optional noise configuration shared by every device.
    replication:
        Copies stored of each row band (default 1 = no replication).  With
        ``replication=R`` every band of every matrix is programmed on ``R``
        distinct devices; dispatch prefers the primary copy and fails over
        to replicas when a device dies mid-call.  Must not exceed
        ``num_devices`` (:class:`~repro.errors.ReplicationError`).
    verify:
        ABFT output verification mode (see :mod:`repro.runtime.integrity`).
        ``"off"`` (default) skips all checks; ``"audit"`` checks every
        fan-out partial against its band's column-sum checksum and counts
        mismatches (``corruptions_detected``) but still serves the result;
        ``"full"`` additionally treats a mismatch as retryable -- the band
        re-executes on a replica within the same call, and only when every
        copy fails does the call raise
        :class:`~repro.errors.IntegrityError` (``kind="exhausted"``).
        Checks are exact on an allocation whose every copy answers exactly
        (:func:`~repro.analog.kernels.answers_exactly`) and
        tolerance-banded otherwise.  Verification assumes value-producing
        backends; a cost-only backend (``backend="estimate"``) returns
        placeholder values that cannot pass a checksum.
    """

    def __init__(
        self,
        num_devices: int = 2,
        config: Optional[ChipConfig] = None,
        noise: Optional[NoiseConfig] = None,
        replication: int = 1,
        verify: str = "off",
    ) -> None:
        if num_devices < 1:
            raise NoDevicesError(
                f"a device pool needs at least one device (got {num_devices})"
            )
        self.replication = int(replication)
        if self.replication < 1:
            raise ReplicationError(
                self.replication, num_devices,
                f"replication factor must be >= 1 (got {replication})",
            )
        if self.replication > num_devices:
            raise ReplicationError(self.replication, num_devices)
        self.devices: List[DarthPumDevice] = [
            DarthPumDevice(config=config, noise=noise) for _ in range(num_devices)
        ]
        #: The backend of every device MVM that names none: the library
        #: default, vectorized unless ``REPRO_BACKEND`` names another -- read
        #: once, here (setting it later does not reach this pool).  A call's
        #: ``backend=`` overrides it.
        self._executor = resolve_backend(None)
        self._allocations: Dict[int, PooledAllocation] = {}
        self._next_allocation = 0
        # Health tracking and degraded-mode telemetry.  A device lands in
        # ``_failed_devices`` when a call on it raises DeviceFailedError;
        # dispatch then prefers its bands' replicas until ``restore_device``
        # (typically via FaultInjector.heal) re-admits it.
        self._failed_devices: set = set()
        self.replica_retries = 0
        self.replica_hits = 0
        self.device_failures = 0
        #: Optional :class:`~repro.runtime.faults.FaultInjector`, consulted
        #: around every device execution when set (see ``attach``).
        self.fault_injector = None
        # Integrity tier: ABFT checksum verification plus per-device EWMA
        # health scores feeding the corruption quarantine.
        self.verify = verify
        self.integrity = IntegrityChecker()
        self._health: List[DeviceHealth] = [
            DeviceHealth() for _ in range(num_devices)
        ]
        self.integrity_checks = 0
        self.corruptions_detected = 0
        self.integrity_reexecutions = 0
        self.quarantines = 0
        self.rebuilds = 0
        self.bands_rebuilt = 0

    @property
    def verify(self) -> str:
        """Active ABFT verification mode (``"off"``/``"audit"``/``"full"``)."""
        return self._verify

    @verify.setter
    def verify(self, mode: str) -> None:
        if mode not in VERIFY_MODES:
            raise ConfigurationError(
                f"unknown verify mode {mode!r}; expected one of {VERIFY_MODES}"
            )
        self._verify = mode

    # ------------------------------------------------------------------ #
    # Scheduling                                                           #
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        """Number of chips in the pool."""
        return len(self.devices)

    def free_hcts(self, device_index: int) -> int:
        """Free HCTs on one device."""
        chip = self.devices[device_index].chip
        return chip.num_hcts - chip.allocated_hcts

    def _hcts_for(self, shape: Tuple[int, int], element_size: int, precision: int) -> int:
        """HCTs a matrix of ``shape`` needs on one device of this pool."""
        hct_config = self.devices[0].chip.config.hct
        return plan_matrix(shape, element_size, precision, hct_config).hcts_needed

    # ------------------------------------------------------------------ #
    # Table 1 calls, pool-wide                                             #
    # ------------------------------------------------------------------ #
    def set_matrix(
        self,
        matrix: np.ndarray,
        element_size: int = 8,
        precision: int = 0,
    ) -> PooledAllocation:
        """Store ``matrix``, sharding it across devices when necessary.

        The matrix is first offered whole to the device with the most free
        HCTs; when no single device can hold it, it is split into the
        smallest number of contiguous row bands such that every band fits
        some device (bands are sized evenly, so the last band may be smaller
        when the row count does not divide), each band placed in turn on
        the device then most free.
        """
        if not self.devices:
            raise NoDevicesError(
                "DevicePool.set_matrix called with zero devices configured; "
                "construct the pool with num_devices >= 1"
            )
        matrix = integer_matrix(matrix)
        rows, cols = matrix.shape

        # Each shard copy occupies at least one HCT, so the total free
        # capacity (divided by the copies each band needs) bounds the number
        # of bands worth attempting (keeps the failure path linear instead
        # of O(rows^2)).
        total_free = sum(self.free_hcts(index) for index in range(self.num_devices))
        max_shards = min(rows, total_free // self.replication)
        plan: Optional[List[List[ShardTask]]] = None
        for num_shards in range(1, max_shards + 1):
            plan = self._plan_shards(matrix.shape, element_size, precision, num_shards)
            if plan is not None:
                break
        if plan is None:
            raise AllocationError(
                f"matrix of shape {matrix.shape} does not fit this pool even "
                "when sharded one row band per device"
            )

        # The pool's own copy: a caller reusing its buffer must not change
        # what a rebuild programs (``np.ascontiguousarray`` would keep a
        # C-contiguous int64 array itself).
        source = np.array(matrix, dtype=np.int64, order="C")
        allocation = PooledAllocation(
            allocation_id=self._next_allocation, shape=(rows, cols),
            matrix=source, element_size=element_size, precision=precision,
        )
        for copies in plan:
            allocation.bands.append(tuple(
                self._program_copy(allocation, matrix, task) for task in copies
            ))
        self._register_checksums(allocation)
        self._allocations[allocation.allocation_id] = allocation
        self._next_allocation += 1
        return allocation

    def update_matrix(self, allocation: PooledAllocation, matrix: np.ndarray) -> None:
        """Store ``matrix``, of ``allocation``'s shape, where the old one is.

        Every copy of every band is reprogrammed in place
        (:meth:`~repro.runtime.session.DarthPumDevice.update_matrix`): the
        shard table, the devices' HCTs and arrays, and the compiled plans
        stay (shard kernels and device plans refreshed where they lie).
        The retained source and the ABFT checksums follow the new
        values, and whether they are compared exactly is decided again.
        The matrix is never moved: a release and a :meth:`set_matrix`
        might have put it elsewhere (once other matrices came and went),
        this keeps its devices, noise streams and ledgers.
        A matrix of another shape, or one the encoder refuses, raises
        :class:`~repro.errors.QuantizationError`, and a copy on a failed
        device :class:`~repro.errors.DeviceFailedError` (release the
        allocation and ``set_matrix`` instead), all before any copy is
        written.  The pool takes one private copy of ``matrix`` (int64 for
        every int64 caller; a uint64 one is checked before it is cast, so
        no value wraps) and checks it once: every copy of every band
        programs that copy through its device's and its ACEs' write bodies,
        which check nothing again, so no write of the caller's can land
        between the check and the arrays.
        """
        source = DifferentialPairs(allocation.element_size).check(
            np.array(integer_matrix(matrix, allocation.shape), order="C"))
        failed = self._failed_devices.intersection(allocation.devices_used)
        if failed:
            raise DeviceFailedError(min(failed), message="a copy is on a failed device")
        for task in allocation.all_tasks:
            device = self.devices[task.device_index]
            device._rewrite(task.device_allocation, source[task.row_start: task.row_end],
                            device._tiles(task.device_allocation))
        allocation.matrix = source.astype(np.int64, copy=False)
        self._register_checksums(allocation)

    def _register_checksums(self, allocation: PooledAllocation) -> None:
        """Register ``allocation``'s ABFT checksums, compared exactly when
        every block of every copy of every band answers exactly -- a stuck-at
        map is drawn per array, so a copy on other arrays can stick where
        this one does not.
        Each ACE decided its blocks at their last write
        (:func:`~repro.analog.kernels.answers_exactly`; no shard kernel is
        built), and every pool write -- ``set_matrix``, ``update_matrix``,
        ``rebuild`` -- registers again."""
        exact = True
        for copies in allocation.bands:
            for task in copies:
                for _, hct, handle in self.devices[task.device_index]._tiles(
                        task.device_allocation):
                    exact = exact and hct.ace.answers_exactly(handle)
        self.integrity.register(
            allocation.allocation_id, allocation.matrix,
            [(copies[0].row_start, copies[0].row_end) for copies in allocation.bands],
            exact,
        )

    def _plan_shards(
        self,
        shape: Tuple[int, int],
        element_size: int,
        precision: int,
        num_shards: int,
    ) -> Optional[List[List[ShardTask]]]:
        """Try to place ``num_shards`` even row bands; None when infeasible.

        Returns the shard table to be: per band its copies in replica order,
        each a :class:`~repro.plan.ir.ShardTask` naming its device and rows
        but programmed nowhere yet (``device_allocation`` is ``None``).
        With ``replication=R`` each band is placed on ``R`` distinct devices
        (see :meth:`_choose_devices`).
        """
        rows, cols = shape
        band = -(-rows // num_shards)
        free = [self.free_hcts(index) for index in range(self.num_devices)]
        bands: List[List[ShardTask]] = []
        start = 0
        while start < rows:
            end = min(rows, start + band)
            needed = self._hcts_for((end - start, cols), element_size, precision)
            devices = self._choose_devices(free, needed, self.replication)
            if len(devices) < self.replication:
                return None
            bands.append([
                ShardTask(len(bands), device_index, start, end, None, replica)
                for replica, device_index in enumerate(devices)
            ])
            start = end
        return bands

    def _choose_devices(
        self,
        free: List[int],
        needed: int,
        copies: int,
        barred=(),
    ) -> List[int]:
        """The devices for ``copies`` more copies of one band.

        The pool's one placement step (``set_matrix`` plans with it,
        ``rebuild`` replaces lost copies with it): each copy goes to
        :func:`most_free_device` of a trial free list in which the
        ``barred`` devices -- during a rebuild the band's surviving holders
        and every failed device -- and the ones chosen so far are masked
        out, so the replicas of one band land on distinct devices (that is
        the whole point of a replica).  Each chosen device is charged
        ``needed`` in ``free``; fewer than ``copies`` devices come back when
        no more room is found.
        """
        chosen: List[int] = []
        while len(chosen) < copies:
            trial = list(free)
            for index in (*barred, *chosen):
                if 0 <= index < len(trial):
                    trial[index] = -1
            device_index = most_free_device(trial, needed)
            if device_index is None:
                break
            free[device_index] -= needed
            chosen.append(device_index)
        return chosen

    def _program_copy(
        self, allocation: PooledAllocation, source: np.ndarray, task: ShardTask
    ) -> ShardTask:
        """``task`` with its rows of ``source`` programmed on its device."""
        return replace(
            task,
            device_allocation=self.devices[task.device_index].set_matrix(
                source[task.row_start: task.row_end, :],
                element_size=allocation.element_size,
                precision=allocation.precision,
            ),
        )

    # ------------------------------------------------------------------ #
    # Plan compilation                                                     #
    # ------------------------------------------------------------------ #
    def compile(
        self, allocation: PooledAllocation, input_bits: int = 8
    ) -> ShardedPlan:
        """Compile the full execution plan of ``allocation`` ahead of time.

        Warms every tile-level :class:`~repro.plan.ir.MvmPlan` cache at
        ``input_bits``, so the serving hot path performs zero planning --
        ``PumServer.register_matrix`` calls this once per registration.
        Returns the allocation's shard table.
        """
        if input_bits not in allocation.prepared_input_bits:
            # Warm replicas too: a failover must not pay a planning stall in
            # the middle of a degraded batch.
            for task in allocation.all_tasks:
                self.devices[task.device_index].compile(
                    task.device_allocation, input_bits=input_bits
                )
            allocation.prepared_input_bits.add(input_bits)
        return allocation

    def planner_builds(self) -> int:
        """Execution plans compiled across every device in the pool."""
        return sum(device.planner_builds() for device in self.devices)

    # ------------------------------------------------------------------ #
    # Predicted-cost oracle                                                #
    # ------------------------------------------------------------------ #
    def predicted_batch_cycles(
        self, allocation: PooledAllocation, batch: int, input_bits: int = 8
    ) -> float:
        """Predicted cycles of one ``batch`` dispatch against ``allocation``.

        Closed-form evaluation of the cached tile-level plan cost models:
        a device's shards execute serially on that device, devices run
        concurrently, so the prediction is the *max over devices* of each
        device's summed shard cost -- the critical path of the fan-out.
        No device work, no planning (plans were compiled at registration).
        """
        per_device: Dict[int, float] = {}
        for task in allocation.tasks:
            per_device[task.device_index] = per_device.get(
                task.device_index, 0.0
            ) + self.devices[task.device_index].predicted_mvm_cycles(
                task.device_allocation, batch, input_bits=input_bits
            )
        return max(per_device.values())

    def plan_handle(
        self, allocation: PooledAllocation, input_bits: int = 8
    ) -> PlanHandle:
        """Process-portable cost surrogate of one pooled allocation.

        Cycles only: the fan-out critical path (max over devices, like
        :meth:`predicted_batch_cycles`) sampled at two batch sizes from the
        tile plans' :meth:`~repro.plan.ir.PlanCostModel.predict`.  Cheap (no
        execution, and no shard kernel is built) and safe to ship across a
        process boundary -- the cluster tier's registration ack carries it
        so the gateway can route by predicted finish time without ever
        serializing a live plan.
        """
        return PlanHandle.from_cost_samples(
            allocation.shape, input_bits,
            self.predicted_batch_cycles(allocation, 1, input_bits=input_bits),
            self.predicted_batch_cycles(allocation, 17, input_bits=input_bits),
        )

    # ------------------------------------------------------------------ #
    # Device health and replica failover                                   #
    # ------------------------------------------------------------------ #
    def mark_device_failed(self, device_index: int) -> None:
        """Record that ``device_index`` failed; dispatch avoids it until restored."""
        if device_index not in self._failed_devices:
            self._failed_devices.add(device_index)
            self.device_failures += 1

    def restore_device(self, device_index: int) -> None:
        """Re-admit a previously failed device to shard dispatch.

        Also clears the device's quarantine flag and resets its EWMA health
        score: restoration is the *only* way a quarantined device rejoins
        dispatch (the score would otherwise keep it out forever).
        """
        self._failed_devices.discard(device_index)
        self._health[device_index].reset()

    @property
    def failed_devices(self) -> List[int]:
        """Devices currently marked failed, sorted."""
        return sorted(self._failed_devices)

    def device_health(self, detail: bool = False) -> List:
        """Per-device health of the pool.

        With ``detail=False`` (default): one bool per device, True =
        healthy / dispatchable.  With ``detail=True``: one dict per device
        carrying the dispatchability flag plus the integrity tier's state
        (EWMA ``score``, lifetime ``corruptions``/``failures``, and whether
        the device is currently ``quarantined`` by the corruption
        quarantine).
        """
        healthy = [
            index not in self._failed_devices for index in range(self.num_devices)
        ]
        if not detail:
            return healthy
        return [
            {
                "healthy": healthy[index],
                "score": health.score,
                "corruptions": health.corruptions,
                "failures": health.failures,
                "quarantined": health.quarantined,
            }
            for index, health in enumerate(self._health)
        ]

    def resilience_snapshot(self) -> Tuple[int, int, int, int, int, int]:
        """The resilience counters a server brackets around one dispatch."""
        return (
            self.replica_hits, self.replica_retries, self.device_failures,
            self.integrity_checks, self.corruptions_detected,
            self.integrity_reexecutions,
        )

    def _health_event(self, device_index: int, corruption: bool) -> None:
        """Account one bad event; quarantine the device past the threshold."""
        health = self._health[device_index]
        crossed = (
            health.record_corruption() if corruption
            else health.record_failure()
        )
        if crossed and not health.quarantined:
            health.quarantined = True
            self.quarantines += 1
            self.mark_device_failed(device_index)

    def _finish_call(self, allocation: PooledAllocation, task: ShardTask,
                     vectors, partial):
        """Post-process one successful device call: ABFT check + health decay.

        ``vectors`` is the input slice the shard consumed.  In ``"full"``
        mode a failed check raises :class:`~repro.errors.IntegrityError` so
        the band loop re-executes the band on a replica; ``"audit"`` counts
        the detection but serves the result as-is.  An uneventful call
        decays the device's health score.
        """
        if self._verify != VERIFY_OFF:
            ok = self.integrity.verify(
                allocation.allocation_id, task.position, vectors, partial
            )
            if ok is not None:
                self.integrity_checks += 1
                if not ok:
                    self.corruptions_detected += 1
                    self._health_event(task.device_index, corruption=True)
                    if self._verify == VERIFY_FULL:
                        raise IntegrityError(task.device_index, task.position)
                    return partial
        health = self._health[task.device_index]
        if health.score:
            health.record_ok()
        return partial

    def _select_task(self, copies: Sequence[ShardTask], tried) -> Optional[ShardTask]:
        """Pick which of one band's ``copies`` to dispatch.

        Prefers the first *healthy* copy in replica order (primary first);
        when every copy's device is marked failed, falls back to the first
        untried one anyway -- a marked device may have recovered, and trying
        it beats failing the band outright.  Returns ``None`` only when
        every copy has already been tried this call (truly exhausted).
        """
        fallback: Optional[ShardTask] = None
        for task in copies:
            if task.device_index in tried:
                continue
            if fallback is None:
                fallback = task
            if task.device_index not in self._failed_devices:
                return task
        return fallback

    def _dispatch(self, allocation: PooledAllocation, inputs: np.ndarray,
                  input_bits: int, backend):
        """The pool's one band loop: fan ``inputs`` out, fail over, reduce.

        Every band of ``allocation`` selects a copy (first healthy one in
        replica order) and the selected copies run device by device, in
        band order on each device, on the calling thread.  Each copy's
        device runs ``sub``, the slice of the admitted block ``inputs`` its
        rows consume, through
        :meth:`~repro.runtime.session.DarthPumDevice.exec_admitted` (its
        ``exec_mvm_batch`` past the checks ``inputs`` passed here), between
        the fault injector's hooks (when one is attached) -- or through an
        ``exec_mvm_batch`` replaced on the device instance (a tracing shim,
        a test's stand-in), which then gets the call.  A copy whose device raises
        :class:`~repro.errors.DeviceFailedError`, or whose partial fails
        the ABFT check under ``verify="full"``, is noted against its
        device's health and re-dispatched on the band's next untried copy
        in a further wave (rarely more than one) that starts only once every
        copy of this one has run, so sibling bands are unaffected; failed
        copies are examined in the order they ran, and a band with no copy
        left raises the same error with ``kind="exhausted"``.  Partials are
        summed in band order whichever copies served them, so degraded
        results are bit-identical to fault-free ones; a single-band result
        is the device's own array.
        """
        wave: List[ShardTask] = []
        for copies in allocation.bands:
            task = self._select_task(copies, ())
            if task.replica != 0:
                self.replica_hits += 1
            wave.append(task)
        partials: List[Optional[np.ndarray]] = [None] * len(wave)
        tried: Dict[int, set] = {}
        while wave:
            # On the calling thread: device calls are interpreter-bound, so
            # worker threads would only add their wake-ups under the GIL.
            # The sort is stable: ascending device, then the order selected.
            failures = []
            for task in sorted(wave, key=_DEVICE_INDEX):
                sub = inputs[:, task.row_start: task.row_end]
                device = self.devices[task.device_index]
                injector = self.fault_injector
                try:
                    if injector is not None:
                        injector.before_call(task.device_index)
                    run = device.exec_mvm_batch
                    if getattr(run, "__self__", None) is device:  # the class's own
                        run = device.exec_admitted
                    partial = run(task.device_allocation, sub, input_bits=input_bits,
                                  backend=backend)
                    if injector is not None:
                        partial = injector.after_call(task.device_index, partial)
                    partials[task.position] = self._finish_call(
                        allocation, task, sub, partial
                    )
                except (DeviceFailedError, IntegrityError) as error:
                    failures.append((task, error))
            wave = []
            for failed, error in failures:
                corrupted = isinstance(error, IntegrityError)
                if not corrupted:
                    # A dead device did not answer at all: mark it failed
                    # now.  A corrupting one is alive and may serve other
                    # bands correctly, so only its EWMA score moved (in
                    # ``_finish_call``); the quarantine pulls it from
                    # dispatch once corruption proves persistent.
                    self.mark_device_failed(failed.device_index)
                    self._health_event(failed.device_index, corruption=False)
                attempted = tried.setdefault(failed.position, set())
                attempted.add(failed.device_index)
                retry = self._select_task(allocation.bands[failed.position], attempted)
                if retry is None:
                    detail = (
                        f"every replica of band {failed.position} of "
                        f"allocation {allocation.allocation_id} has failed "
                        f"(tried devices {sorted(attempted)})"
                    )
                    if corrupted:
                        raise IntegrityError(
                            failed.device_index, failed.position,
                            "exhausted", detail,
                        ) from error
                    raise DeviceFailedError(
                        failed.device_index, "exhausted", detail
                    ) from error
                if corrupted:
                    self.integrity_reexecutions += 1
                else:
                    self.replica_retries += 1
                wave.append(retry)

        total = partials[0]
        if len(partials) > 1:
            total = total.copy()
            for partial in partials[1:]:
                total += partial
        return total

    def exec_mvm(
        self,
        allocation: PooledAllocation,
        vector: np.ndarray,
        input_bits: int = 8,
    ) -> np.ndarray:
        """Map-reduce a single MVM over the allocation's shards: a batch of
        one on :data:`~repro.plan.backends.GATE_LEVEL`; returns its row."""
        vector = single_vector(vector, allocation.shape[0])
        return self.exec_mvm_batch(allocation, vector[None], input_bits, backend=GATE_LEVEL)[0]

    def close(self) -> None:
        """Nothing to release: the pool owns no threads or handles.

        Part of the serving API (servers, benchmarks and ``with`` blocks
        close their pool); safe to call repeatedly, the pool stays usable.
        """

    def exec_mvm_batch(
        self,
        allocation: PooledAllocation,
        vectors: np.ndarray,
        input_bits: int = 8,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> np.ndarray:
        """Map-reduce a batch of MVMs over the allocation's shards.

        Every shard's device executes its row band for the whole batch in
        one :meth:`~repro.runtime.session.DarthPumDevice.exec_admitted`
        pass (the device call past the dtype and shape checks, which run
        once, here), fanning out over the allocation's shard table (zero
        per-request planning).  The full-width partial results are summed in
        shard order.  In the common single-shard serving case the device
        result *is* the pool result: no zero tensor, no partial-sum add.
        """
        backend = backend if backend is not None else self._executor
        vectors = integer_vectors(vectors, allocation.shape[0])
        return self._dispatch(allocation, vectors, input_bits, backend)

    def release(self, allocation: PooledAllocation) -> None:
        """Free every shard (and the compiled plans) of a pooled allocation."""
        for task in allocation.all_tasks:
            self.devices[task.device_index].release(task.device_allocation)
        self._allocations.pop(allocation.allocation_id, None)
        self.integrity.forget(allocation.allocation_id)

    # ------------------------------------------------------------------ #
    # Live shard rebuild                                                   #
    # ------------------------------------------------------------------ #
    def rebuild(self, allocation: PooledAllocation) -> RebuildReport:
        """Reprogram ``allocation``'s lost row bands onto healthy devices.

        For every band, copies living on failed devices are dropped and
        replaced (up to the pool's replication target) by fresh copies
        programmed from the retained source matrix onto healthy devices
        with free HCTs -- the analog-fabric equivalent of re-replicating a
        lost storage shard.  The new copies replace the band's entry in
        the allocation's shard table in place, and their tile-level plans
        are compiled at every precision the allocation was already
        prepared for, so post-rebuild dispatch pays no planning stall, and
        whether its checksums are compared exactly is decided again over
        the copies it now has.

        A band that cannot reach the replication target but keeps at least
        one live copy is left degraded (requests still succeed); a band
        with *zero* live copies that cannot be placed anywhere raises
        :class:`~repro.errors.RebuildError` (any copies programmed earlier
        in the same pass are rolled back).  Healthy allocations return an
        unchanged no-op report.
        """
        if allocation.matrix is None:
            raise RebuildError(
                allocation.allocation_id, -1,
                f"allocation {allocation.allocation_id} retained no source "
                f"matrix; it cannot be rebuilt",
            )
        programmed: List[ShardTask] = []
        dropped: List[ShardTask] = []
        rebuilt_positions: List[int] = []
        new_bands: Dict[int, Tuple[ShardTask, ...]] = {}
        free = [self.free_hcts(index) for index in range(self.num_devices)]
        min_copies = self.replication
        try:
            for position, copies in enumerate(allocation.bands):
                healthy = [
                    task for task in copies
                    if task.device_index not in self._failed_devices
                ]
                lost = [
                    task for task in copies
                    if task.device_index in self._failed_devices
                ]
                row_start, row_end = copies[0].row_start, copies[0].row_end
                needed = self._hcts_for(
                    (row_end - row_start, allocation.shape[1]),
                    allocation.element_size, allocation.precision,
                )
                devices = self._choose_devices(
                    free, needed, self.replication - len(healthy),
                    {task.device_index for task in healthy} | self._failed_devices,
                )
                fresh: List[ShardTask] = []
                for replica, chosen in enumerate(devices, len(healthy)):
                    fresh.append(self._program_copy(
                        allocation, allocation.matrix,
                        ShardTask(position, chosen, row_start, row_end, None, replica),
                    ))
                    programmed.append(fresh[-1])
                if not healthy and not fresh:
                    raise RebuildError(allocation.allocation_id, position)
                if fresh:
                    rebuilt_positions.append(position)
                if fresh or lost:
                    dropped.extend(lost)
                    new_bands[position] = tuple(
                        replace(task, replica=replica)
                        for replica, task in enumerate(healthy)
                    ) + tuple(fresh)
                min_copies = min(min_copies, len(healthy) + len(fresh))
        except Exception as exc:
            for task in programmed:
                self.devices[task.device_index].release(task.device_allocation)
            if isinstance(exc, (KeyError, IndexError)):
                # Normalize: a placement or bookkeeping bug during
                # the no-capacity walk must surface as the documented
                # RebuildError, not leak a bare KeyError/IndexError to the
                # caller (who is often the auto-rebuild retry path matching
                # on ReproError).
                raise RebuildError(
                    allocation.allocation_id, -1,
                    f"rebuild of allocation {allocation.allocation_id} failed "
                    f"while placing replacement copies: {type(exc).__name__}: {exc}",
                ) from exc
            raise

        report = RebuildReport(
            allocation_id=allocation.allocation_id,
            bands_rebuilt=tuple(rebuilt_positions),
            copies_programmed=tuple(programmed),
            copies_dropped=tuple(dropped),
            replication=min_copies,
        )
        if not report.changed:
            return report

        # Commit: swap the changed bands, release the lost device-side
        # allocations, and warm the new copies' tile plans at every
        # already-prepared precision.
        for position, band in new_bands.items():
            allocation.bands[position] = band
        for task in dropped:
            self.devices[task.device_index].release(task.device_allocation)
        for input_bits in sorted(allocation.prepared_input_bits):
            for task in programmed:
                self.devices[task.device_index].compile(
                    task.device_allocation, input_bits=input_bits
                )
        if rebuilt_positions:
            self.rebuilds += 1
            self.bands_rebuilt += len(rebuilt_positions)
        self._register_checksums(allocation)
        return report

    # ------------------------------------------------------------------ #
    # Introspection / accounting                                           #
    # ------------------------------------------------------------------ #
    @property
    def allocations(self) -> List[PooledAllocation]:
        """All live pooled allocations."""
        return list(self._allocations.values())

    def utilization(self) -> List[float]:
        """Fraction of HCTs allocated on each device."""
        return [device.chip.utilization() for device in self.devices]

    def total_ledger(self) -> CostLedger:
        """Aggregated cost ledger across every chip in the pool.

        Only the chip/tile ledgers are merged.  Each device's runtime ledger
        (``device.ledger``) is charged, per completed MVM call, exactly the
        integer energy that call charged its tiles -- so its ``runtime.mvm_batch``
        entries are copies of tile charges (merging them would double-count
        every MVM), and :meth:`mvm_energy_units` reads a call's energy from
        them alone.  A call that fails part-way charges the runtime ledger
        nothing, so the mirror covers completed calls only.
        """
        return merge_ledgers([device.chip.total_ledger() for device in self.devices])

    def mvm_energy_units(self) -> int:
        """The MVM energy the devices' completed calls charged, in ledger
        units: one int per device, however many tiles the chips hold (the
        serving scheduler reads it around every dispatched batch).
        Programming is not in it."""
        total = 0
        for device in self.devices:
            # A runtime ledger is charged eagerly, never a replay target, so
            # its stored units are current: read them past the settle check.
            total += device.ledger._energy_units
        return total

    def expected_mvm(self, allocation: PooledAllocation, vectors: np.ndarray) -> np.ndarray:
        """Reference result reassembled from the shards' stored matrices."""
        vectors = np.asarray(vectors, dtype=np.int64)
        matrix = np.concatenate(
            [task.device_allocation.matrix for task in allocation.tasks], axis=0
        )
        return vectors @ matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DevicePool(devices={self.num_devices}, "
            f"allocations={len(self._allocations)})"
        )
