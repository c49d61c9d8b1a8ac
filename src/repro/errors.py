"""Exception hierarchy for the DARTH-PUM reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated Python errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


class CapacityError(ReproError):
    """A resource (arrays, pipelines, registers, HCTs) has been exhausted."""


class AllocationError(CapacityError):
    """A requested allocation (vACore, matrix, pipeline) cannot be satisfied."""


class NoDevicesError(AllocationError):
    """A pool operation was attempted with zero devices configured."""


class SchedulerError(ReproError):
    """The serving scheduler was configured or driven inconsistently."""


class AdmissionError(SchedulerError):
    """A request was refused admission (queue full, unknown matrix, ...)."""


class SloError(SchedulerError):
    """A service-level-objective class is unknown or inconsistently defined."""


class MappingError(ReproError):
    """A workload cannot be mapped onto the requested hardware resources."""


class IsaError(ReproError):
    """An instruction is malformed or used illegally."""


class ExecutionError(ReproError):
    """Runtime failure while executing a program or kernel."""


class ArbiterConflictError(ExecutionError):
    """An analog and a digital operation attempted to use the same resource."""


class RegisterLiveError(ExecutionError):
    """An MVM attempted to overwrite a live vector register without a reserve."""


class DeviceError(ReproError):
    """A memory-device level failure (programming, stuck-at, range)."""


class DeviceFailedError(DeviceError):
    """A whole device (chip) failed while serving a shard of work.

    Raised by the fault-injection harness (and, in a real deployment, by the
    transport layer) when a device is dead or unresponsive.  The pool's
    fan-out treats it as retryable: the failing shard re-dispatches on a
    replica instead of failing its riders.

    Attributes
    ----------
    device_index:
        Pool index of the failed device.
    kind:
        Failure kind: ``"kill"`` (dead until healed), ``"hang"``
        (unresponsive for a bounded number of calls), or ``"exhausted"``
        (every replica of a shard failed).
    """

    def __init__(self, device_index: int, kind: str = "kill",
                 message: str = "") -> None:
        self.device_index = device_index
        self.kind = kind
        detail = message or f"device {device_index} failed ({kind})"
        super().__init__(detail)


class IntegrityError(DeviceError):
    """A device result failed its ABFT checksum verification.

    Raised by the pool's integrity tier (``DevicePool(verify="full")``)
    when a shard's partial result does not match the column-sum check
    vector precomputed at registration.  Like
    :class:`DeviceFailedError`, the fan-out treats it as retryable: the
    band re-executes on a replica within the same dispatch.

    Attributes
    ----------
    device_index:
        Pool index of the device that returned the corrupted result.
    band:
        Shard position (row band) whose partial failed the check.
    kind:
        ``"corruption"`` (one copy failed its check) or ``"exhausted"``
        (every copy of the band failed verification or died).
    """

    def __init__(self, device_index: int, band: int,
                 kind: str = "corruption", message: str = "") -> None:
        self.device_index = device_index
        self.band = band
        self.kind = kind
        detail = message or (
            f"device {device_index} returned a corrupted partial for band "
            f"{band} ({kind}): row-checksum mismatch"
        )
        super().__init__(detail)


class ReplicationError(AllocationError):
    """A replication factor cannot be satisfied by the configured pool.

    Attributes
    ----------
    replication:
        The requested replication factor.
    num_devices:
        Devices available in the pool.
    """

    def __init__(self, replication: int, num_devices: int,
                 message: str = "") -> None:
        self.replication = replication
        self.num_devices = num_devices
        detail = message or (
            f"replication factor {replication} cannot be satisfied by a pool "
            f"of {num_devices} device(s); replicas of one row band must live "
            f"on distinct devices"
        )
        super().__init__(detail)


class RebuildError(AllocationError):
    """A lost row band could not be rebuilt onto the remaining devices.

    Raised by :meth:`~repro.runtime.pool.DevicePool.rebuild` when a band
    with zero healthy copies cannot be reprogrammed anywhere -- no healthy
    device has the free HCTs the band needs.

    Attributes
    ----------
    allocation_id:
        Pooled allocation whose rebuild failed.
    band:
        Shard position (row band) that could not be placed.
    """

    def __init__(self, allocation_id: int, band: int,
                 message: str = "") -> None:
        self.allocation_id = allocation_id
        self.band = band
        detail = message or (
            f"band {band} of allocation {allocation_id} has no live copy and "
            f"cannot be rebuilt: no healthy device has enough free HCTs"
        )
        super().__init__(detail)


class QuantizationError(ReproError):
    """A value cannot be represented with the requested precision."""


class ClusterError(ReproError):
    """A cluster-tier failure (gateway, worker process, or transport)."""


class TransportError(ClusterError):
    """A shared-memory transport frame is malformed or corrupted.

    Raised by the ring-buffer codec when a frame fails its CRC (a torn or
    corrupted write) or its header cannot be decoded.  The ring itself
    stays usable: the reader position advances past the bad frame, so one
    corrupted message never wedges the channel.
    """


class WorkerFailedError(ClusterError):
    """A cluster worker process died or stopped heartbeating.

    The gateway treats it like :class:`DeviceFailedError` one level up:
    work inflight to the worker is re-routed to surviving workers holding
    a replica of the matrix, and only when no replica is left do the
    affected futures resolve with ``status="failed"``.

    Attributes
    ----------
    worker_id:
        Gateway index of the failed worker.
    kind:
        ``"dead"`` (process exited), ``"stale"`` (heartbeat timed out),
        or ``"saturated"`` (used internally when every replica's inflight
        window is full).
    """

    def __init__(self, worker_id: int, kind: str = "dead",
                 message: str = "") -> None:
        self.worker_id = worker_id
        self.kind = kind
        detail = message or f"cluster worker {worker_id} failed ({kind})"
        super().__init__(detail)


class BatchTimeoutError(ClusterError):
    """A dispatched batch exceeded its per-batch execution timeout.

    Distinct from the worker-level ``LIVENESS_TIMEOUT``: the worker may
    still be heartbeating (a *gray* failure -- slow, not dead).  The
    gateway's watchdog raises this internally to trigger hedged
    re-dispatch onto another replica; it only surfaces to callers when
    every hedge attempt is exhausted.

    Attributes
    ----------
    worker_id:
        Worker the timed-out attempt was inflight to.
    batch_id:
        Gateway batch id of the timed-out batch.
    attempts:
        Dispatch attempts consumed when the error was raised.
    """

    def __init__(self, worker_id: int, batch_id: int, attempts: int = 1,
                 message: str = "") -> None:
        self.worker_id = worker_id
        self.batch_id = batch_id
        self.attempts = attempts
        detail = message or (
            f"batch {batch_id} timed out on worker {worker_id} "
            f"(attempt {attempts})"
        )
        super().__init__(detail)


class FaultConfigError(SchedulerError, ClusterError):
    """A fault event, schedule, campaign or injector wiring is inconsistent.

    One error for both tiers of :mod:`repro.runtime.faults`: it is a
    :class:`SchedulerError` (what the device tier always raised) and a
    :class:`ClusterError` (what the transport tier raised), so a caller of
    either catches it as before.
    """


class CircuitOpenError(AdmissionError):
    """Every replica that could serve a request is circuit-broken.

    Subclasses :class:`AdmissionError` deliberately: to a submitting
    client, "all breakers open" is backpressure -- back off and retry --
    exactly like a saturated inflight window, so existing
    ``except AdmissionError`` retry loops handle it unchanged.

    Attributes
    ----------
    worker_ids:
        The breaker-open workers that were considered.
    """

    def __init__(self, worker_ids=(), message: str = "") -> None:
        self.worker_ids = tuple(worker_ids)
        detail = message or (
            f"circuit breaker open for worker(s) {list(self.worker_ids)}; "
            f"no routable replica accepts traffic right now"
        )
        super().__init__(detail)
