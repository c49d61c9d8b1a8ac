"""Multi-device serving pool: shard matrices and requests over many chips.

One :class:`~repro.runtime.session.DarthPumDevice` exposes one chip.  A
serving deployment runs many chips side by side, so the pool scales the
Table 1 calls across ``N`` devices the same way multi-node machines scale by
sharding work across identical compute tiles:

* ``set_matrix`` places each matrix on the device chosen by the pluggable
  :class:`PlacementPolicy` (``"round_robin"``, ``"least_loaded"``,
  ``"cache_affinity"``, or the cost-model-driven
  ``"predicted_finish_time"``); a matrix too large for any single chip is
  *row-sharded* across several devices, each holding a contiguous band of
  rows.
* ``exec_mvm`` / ``exec_mvm_batch`` check their one ``(allocation,
  inputs)`` and hand it to the pool's one band loop (``_dispatch``): every
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

from ..core.config import ChipConfig
from ..errors import (
    AllocationError,
    ConfigurationError,
    DeviceFailedError,
    IntegrityError,
    NoDevicesError,
    QuantizationError,
    RebuildError,
    ReplicationError,
)
from ..metrics import CostLedger, merge_ledgers
from ..plan.backends import ExecutionBackend
from ..plan.ir import PlanHandle, ShardTask, ShardedPlan
from ..reram import NoiseConfig
from .allocator import plan_matrix
from .integrity import VERIFY_FULL, VERIFY_MODES, VERIFY_OFF, DeviceHealth, IntegrityChecker
from .session import DarthPumDevice

__all__ = [
    "CacheAffinityPolicy",
    "DevicePool",
    "LeastLoadedPolicy",
    "PlacementPolicy",
    "PooledAllocation",
    "PredictedFinishTimePolicy",
    "RebuildReport",
    "RoundRobinPolicy",
    "make_placement_policy",
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

    #: Canonical int64 copy of the source matrix, retained so
    #: :meth:`DevicePool.rebuild` can reprogram lost row bands.
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


class PlacementPolicy:
    """Strategy object deciding which device receives each matrix shard.

    ``choose`` is called once per row band while :meth:`DevicePool.set_matrix`
    plans a placement.  It sees the *trial* free-HCT state (``free``), the HCT
    cost of the band (``needed``), and the devices already holding earlier
    shards of the same allocation (``placed_devices``, which also carries any
    caller-supplied affinity hint).  Returning ``None`` means "no device fits",
    which makes the pool retry with more, smaller bands.

    ``committed`` is invoked once a full plan succeeds so stateful policies
    (round-robin's cursor) only advance on placements that actually happen.

    Replication needs no policy-specific support: when placing copy ``r > 0``
    of a band, the pool hands ``choose`` a trial free list in which the
    devices already holding that band are masked out (set to ``-1``), so
    *every* policy -- including :class:`CacheAffinityPolicy`, whose affinity
    pull would otherwise collapse replicas onto one chip -- spreads the
    copies across distinct devices by construction.
    """

    name = "base"

    def bind(self, pool: "DevicePool") -> None:
        """Attach the owning pool (no-op by default).

        Load-model policies (:class:`PredictedFinishTimePolicy`) need to
        query the pool's live allocations when choosing; the pool calls
        this once at construction and once per policy swap.
        """

    def choose(
        self,
        free: Sequence[int],
        needed: int,
        placed_devices: Sequence[int],
    ) -> Optional[int]:
        """Pick a device index with ``free[index] >= needed``, or ``None``."""
        raise NotImplementedError

    def committed(self, placed_devices: Sequence[int], num_devices: int) -> None:
        """Observe a committed placement (no-op by default).

        ``placed_devices`` is the device of every copy placed, in
        placement order (band-major, then replica).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RoundRobinPolicy(PlacementPolicy):
    """Cycle through the devices, skipping any that cannot hold the band."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self,
        free: Sequence[int],
        needed: int,
        placed_devices: Sequence[int],
    ) -> Optional[int]:
        num_devices = len(free)
        for offset in range(num_devices):
            index = (self._cursor + len(placed_devices) + offset) % num_devices
            if free[index] >= needed:
                return index
        return None

    def committed(self, placed_devices: Sequence[int], num_devices: int) -> None:
        self._cursor = (self._cursor + len(placed_devices)) % num_devices


class LeastLoadedPolicy(PlacementPolicy):
    """Place every band on the device with the most free HCTs."""

    name = "least_loaded"

    def choose(
        self,
        free: Sequence[int],
        needed: int,
        placed_devices: Sequence[int],
    ) -> Optional[int]:
        candidates = [i for i in range(len(free)) if free[i] >= needed]
        if not candidates:
            return None
        return max(candidates, key=lambda i: (free[i], -i))


class CacheAffinityPolicy(PlacementPolicy):
    """Prefer devices already holding shards of the same allocation.

    Keeping an allocation's shards on as few chips as possible means a
    request against it fans out to fewer devices (fewer partial-sum
    reductions) and re-registration of an updated matrix lands where the
    ReRAM arrays are already programmed.  Falls back to least-loaded when no
    preferred device fits.
    """

    name = "cache_affinity"

    def choose(
        self,
        free: Sequence[int],
        needed: int,
        placed_devices: Sequence[int],
    ) -> Optional[int]:
        # Affinity hints may be stale (e.g. recorded before the pool was
        # reconfigured); out-of-range indices are ignored, not an error.
        preferred = [
            i for i in dict.fromkeys(placed_devices)
            if 0 <= i < len(free) and free[i] >= needed
        ]
        if preferred:
            return max(preferred, key=lambda i: (free[i], -i))
        return LeastLoadedPolicy.choose(self, free, needed, placed_devices)


class PredictedFinishTimePolicy(PlacementPolicy):
    """Place each band on the device predicted to finish its work first.

    Where :class:`LeastLoadedPolicy` counts free HCTs -- a *capacity* proxy
    -- this policy prices each candidate device by the summed
    :meth:`~repro.plan.ir.MvmPlan.predicted_cycles` of the allocations
    already resident on it (:meth:`DevicePool.predicted_device_finish_cycles`):
    the cost model's estimate of how long the device needs to serve one
    round of its outstanding matrices.  A device hosting one huge matrix
    stops looking as attractive as one hosting three tiny ones just because
    their HCT counts happen to match.  Ties break toward the most free
    HCTs, then the lowest index; before :meth:`bind` (or on an empty pool)
    it degrades to exactly least-loaded.
    """

    name = "predicted_finish_time"

    def __init__(self) -> None:
        self._pool: Optional["DevicePool"] = None

    def bind(self, pool: "DevicePool") -> None:
        self._pool = pool

    def choose(
        self,
        free: Sequence[int],
        needed: int,
        placed_devices: Sequence[int],
    ) -> Optional[int]:
        pool = self._pool
        if pool is None:
            return LeastLoadedPolicy.choose(self, free, needed, placed_devices)
        return min(
            (i for i in range(len(free)) if free[i] >= needed),
            key=lambda i: (pool.predicted_device_finish_cycles(i), -free[i], i),
            default=None,
        )


#: The policies selectable by name, keyed by each class's own ``name``.
_POLICIES_BY_NAME = {
    policy.name: policy
    for policy in (RoundRobinPolicy, LeastLoadedPolicy, CacheAffinityPolicy,
                   PredictedFinishTimePolicy)
}


def make_placement_policy(policy: Union[str, PlacementPolicy]) -> PlacementPolicy:
    """Resolve a policy name (or pass through a policy instance)."""
    if isinstance(policy, PlacementPolicy):
        return policy
    if policy not in _POLICIES_BY_NAME:
        raise AllocationError(
            f"unknown scheduling policy {policy!r}; expected one of "
            f"{tuple(_POLICIES_BY_NAME)} or a PlacementPolicy instance"
        )
    return _POLICIES_BY_NAME[policy]()


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
    >>> pool.set_matrix(np.eye(8, dtype=np.int64)).devices_used  # least loaded
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
    policy:
        A policy name or a :class:`PlacementPolicy` instance.
        ``"least_loaded"`` (default) places new matrices on the device with
        the most free HCTs; ``"round_robin"`` cycles through the devices;
        ``"cache_affinity"`` keeps an allocation's shards on as few devices
        as possible; ``"predicted_finish_time"`` prices devices by the
        plan-cost-model load of the matrices already resident on them.
    backend:
        Default execution backend for every device MVM issued by this pool
        (a name from the :class:`~repro.plan.backends.BackendRegistry` or
        an :class:`~repro.plan.backends.ExecutionBackend` instance;
        ``None`` defers to the library default, which is vectorized).
        Individual calls may override it.
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
        Checks are exact on noise-free pools and tolerance-banded under
        noise presets.  Verification assumes value-producing backends; a
        cost-only backend (``backend="estimate"``) returns placeholder
        values that cannot pass a checksum.
    """

    POLICIES = tuple(_POLICIES_BY_NAME)

    def __init__(
        self,
        num_devices: int = 2,
        config: Optional[ChipConfig] = None,
        noise: Optional[NoiseConfig] = None,
        policy: Union[str, PlacementPolicy] = "least_loaded",
        backend: Union[None, str, ExecutionBackend] = None,
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
        self.placement_policy = make_placement_policy(policy)
        self.placement_policy.bind(self)
        self.devices: List[DarthPumDevice] = [
            DarthPumDevice(config=config, noise=noise) for _ in range(num_devices)
        ]
        self.backend = backend
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
        noisy = noise is not None and any((
            noise.programming_noise, noise.read_noise, noise.ir_drop,
            noise.drift, noise.stuck_at_faults,
        ))
        self.integrity = IntegrityChecker(noisy=noisy)
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
    def policy(self) -> str:
        """Name of the active placement policy."""
        return self.placement_policy.name

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
        affinity: Sequence[int] = (),
    ) -> PooledAllocation:
        """Store ``matrix``, sharding it across devices when necessary.

        The matrix is first offered whole to the device the policy selects;
        when no single device can hold it, it is split into the smallest
        number of contiguous row bands such that every band fits some device
        (bands are sized evenly, so the last band may be smaller when the
        row count does not divide).  ``affinity`` optionally seeds the set of
        preferred devices for affinity-aware policies (e.g. the devices that
        held a previous version of the same matrix).
        """
        if not self.devices:
            raise NoDevicesError(
                "DevicePool.set_matrix called with zero devices configured; "
                "construct the pool with num_devices >= 1"
            )
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise QuantizationError("set_matrix expects a 2-D matrix")
        rows, cols = matrix.shape

        # Each shard copy occupies at least one HCT, so the total free
        # capacity (divided by the copies each band needs) bounds the number
        # of bands worth attempting (keeps the failure path linear instead
        # of O(rows^2)).
        total_free = sum(self.free_hcts(index) for index in range(self.num_devices))
        max_shards = min(rows, total_free // self.replication)
        plan: Optional[List[List[ShardTask]]] = None
        for num_shards in range(1, max_shards + 1):
            plan = self._plan_shards(
                matrix.shape, element_size, precision, num_shards, affinity
            )
            if plan is not None:
                break
        if plan is None:
            raise AllocationError(
                f"matrix of shape {matrix.shape} does not fit this pool even "
                "when sharded one row band per device"
            )
        self.placement_policy.committed(
            [task.device_index for copies in plan for task in copies],
            self.num_devices,
        )

        source = np.ascontiguousarray(matrix, dtype=np.int64)
        allocation = PooledAllocation(
            allocation_id=self._next_allocation, shape=(rows, cols),
            matrix=source, element_size=element_size, precision=precision,
        )
        for copies in plan:
            allocation.bands.append(tuple(
                self._program_copy(allocation, matrix, task) for task in copies
            ))
        self.integrity.register(
            allocation.allocation_id, source,
            [(copies[0].row_start, copies[0].row_end) for copies in plan],
        )
        self._allocations[allocation.allocation_id] = allocation
        self._next_allocation += 1
        return allocation

    def _plan_shards(
        self,
        shape: Tuple[int, int],
        element_size: int,
        precision: int,
        num_shards: int,
        affinity: Sequence[int] = (),
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
        placed_devices = list(affinity)
        bands: List[List[ShardTask]] = []
        start = 0
        while start < rows:
            end = min(rows, start + band)
            needed = self._hcts_for((end - start, cols), element_size, precision)
            devices = self._choose_devices(
                free, needed, placed_devices, self.replication
            )
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
        placed_devices: List[int],
        copies: int,
        barred=(),
    ) -> List[int]:
        """The policy's devices for ``copies`` more copies of one band.

        The pool's one placement step (``set_matrix`` plans with it,
        ``rebuild`` replaces lost copies with it).  Replicas of one band
        must land on distinct devices (that is the whole point of a
        replica), which is enforced here rather than in the policies: the
        trial free list handed to ``choose`` has the ``barred`` devices --
        during a rebuild the band's surviving holders and every failed
        device -- and the ones chosen so far masked out, so any policy
        spreads copies correctly.  Each chosen device is charged ``needed``
        in ``free`` and appended to ``placed_devices``; fewer than
        ``copies`` devices come back when the policy finds no more room.
        """
        chosen: List[int] = []
        while len(chosen) < copies:
            trial = list(free)
            for index in (*barred, *chosen):
                if 0 <= index < len(trial):
                    trial[index] = -1
            device_index = self.placement_policy.choose(trial, needed, placed_devices)
            if device_index is None:
                break
            free[device_index] -= needed
            placed_devices.append(device_index)
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

    def predicted_batch_energy_pj(
        self, allocation: PooledAllocation, batch: int, input_bits: int = 8
    ) -> float:
        """Predicted analog-phase energy (pJ) of one ``batch`` dispatch.

        Energy adds across devices (unlike the cycle critical path), so
        this is the plain sum over the allocation's primary shards.
        """
        return sum(
            self.devices[task.device_index].predicted_mvm_energy_pj(
                task.device_allocation, batch, input_bits=input_bits
            )
            for task in allocation.tasks
        )

    def plan_handle(
        self, allocation: PooledAllocation, input_bits: int = 8
    ) -> PlanHandle:
        """Process-portable cost surrogate of one pooled allocation.

        The cycle model is the fan-out critical path (max over devices,
        like :meth:`predicted_batch_cycles`), sampled at two batch sizes;
        energy is the per-vector sum over primary shards.  Cheap (pure
        cost-model evaluation) and safe to ship across a process
        boundary -- the cluster tier's registration ack carries it so the
        gateway can route by predicted finish time without ever
        serializing a live plan.
        """
        return PlanHandle.from_cost_samples(
            allocation.shape, input_bits,
            self.predicted_batch_cycles(allocation, 1, input_bits=input_bits),
            self.predicted_batch_cycles(allocation, 17, input_bits=input_bits),
            self.predicted_batch_energy_pj(allocation, 1, input_bits=input_bits),
        )

    def predicted_device_finish_cycles(
        self, device_index: int, batch: int = 1
    ) -> float:
        """Predicted cycles for ``device_index`` to serve one round of work.

        Sums the predicted single-round cost of every live allocation's
        primary shards resident on the device -- the load model behind
        :class:`PredictedFinishTimePolicy`.  Each allocation is priced at
        the smallest precision it was compiled for (8 bits before any
        ``compile``), matching the traffic it is expected to serve.
        """
        total = 0.0
        device = self.devices[device_index]
        for allocation in self._allocations.values():
            input_bits = min(allocation.prepared_input_bits, default=8)
            for task in allocation.tasks:
                if task.device_index == device_index:
                    total += device.predicted_mvm_cycles(
                        task.device_allocation, batch, input_bits=input_bits
                    )
        return total

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

    def _dispatch(self, allocation: PooledAllocation, inputs: np.ndarray, call):
        """The pool's one band loop: fan ``inputs`` out, fail over, reduce.

        Every band of ``allocation`` selects a copy (first healthy one in
        replica order) and the selected copies run device by device, in
        band order on each device, on the calling thread.  ``call(device,
        device_allocation, sub)`` performs the device work of one copy on
        ``sub``, the slice of ``inputs`` its rows consume, between the fault
        injector's hooks (when one is attached).  A copy whose device raises
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
                sub = inputs[..., task.row_start: task.row_end]
                injector = self.fault_injector
                try:
                    if injector is not None:
                        injector.before_call(task.device_index)
                    partial = call(
                        self.devices[task.device_index], task.device_allocation, sub
                    )
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
        """Map-reduce a single MVM over the allocation's shards."""
        vector = np.asarray(vector, dtype=np.int64)
        rows, _ = allocation.shape
        if vector.shape != (rows,):
            raise QuantizationError(
                f"input vector of shape {vector.shape} does not match matrix rows ({rows})"
            )
        return self._dispatch(
            allocation, vector,
            lambda device, device_allocation, sub: device.exec_mvm(
                device_allocation, sub, input_bits=input_bits
            ),
        )

    def close(self) -> None:
        """Nothing to release: the pool owns no threads or handles.

        Part of the serving API (servers, benchmarks and ``with`` blocks
        close their pool); safe to call repeatedly, the pool stays usable.
        """

    def __enter__(self) -> "DevicePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def exec_mvm_batch(
        self,
        allocation: PooledAllocation,
        vectors: np.ndarray,
        input_bits: int = 8,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> np.ndarray:
        """Map-reduce a batch of MVMs over the allocation's shards.

        Every shard's device executes its row band for the whole batch in
        one :meth:`~repro.runtime.session.DarthPumDevice.exec_mvm_batch`
        pass, fanning out over the allocation's shard table (zero
        per-request planning).  The full-width partial results are summed in
        shard order.  In the common single-shard serving case the device
        result *is* the pool result: no zero tensor, no partial-sum add.
        """
        backend = backend if backend is not None else self.backend
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.ndim < 2:
            vectors = vectors.reshape(1, -1)
        rows, _ = allocation.shape
        if vectors.shape[1] != rows:
            raise QuantizationError(
                f"input batch of shape {vectors.shape} does not match "
                f"matrix rows ({rows})"
            )
        # ``exec_mvm_batch`` is looked up on the device at call time: tracing
        # shims and tests replace it on the instance.
        return self._dispatch(
            allocation, vectors,
            lambda device, device_allocation, sub: device.exec_mvm_batch(
                device_allocation, sub, input_bits=input_bits, backend=backend
            ),
        )

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
        prepared for, so post-rebuild dispatch pays no planning stall.

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
                holders = [task.device_index for task in healthy]
                needed = self._hcts_for(
                    (row_end - row_start, allocation.shape[1]),
                    allocation.element_size, allocation.precision,
                )
                devices = self._choose_devices(
                    free, needed, holders, self.replication - len(healthy),
                    set(holders) | self._failed_devices,
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
                # Normalize: a placement policy or bookkeeping bug during
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

        Only the chip/tile ledgers are merged: the per-device runtime
        ledgers (``device.ledger``) hold ``runtime.mvm*`` entries whose
        cycles/energy are *copies* of charges already present in the tile
        ledgers, so including them would double-count every MVM.
        """
        return merge_ledgers([device.chip.total_ledger() for device in self.devices])

    def total_energy_pj(self) -> float:
        """Pool-wide energy total, bit-identical to ``total_ledger().energy_pj``.

        Sums the per-chip totals in the same order ``total_ledger`` merges
        them, without building any breakdown dicts -- the serving scheduler
        reads this before and after every dispatched batch, so it must cost
        a handful of float additions, not a ledger merge.
        """
        total = 0.0
        for device in self.devices:
            total += device.chip.total_energy_pj()
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
            f"DevicePool(devices={self.num_devices}, policy={self.policy!r}, "
            f"allocations={len(self._allocations)})"
        )
