"""Error-path coverage: every public exception is raisable via the public API.

Each test provokes one class from :mod:`repro.errors` through a *public*
entry point (no reaching into private helpers), then asserts the type, the
documented hierarchy, and -- where the class documents structured fields
(``DeviceFailedError``, ``ReplicationError``) -- those fields.  A final
registry test enumerates ``repro.errors`` so adding a new public exception
without extending this suite fails loudly.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.errors as errors_module
from repro.core import (
    AnalogDigitalArbiter,
    ChipConfig,
    Domain,
    HctConfig,
    HybridComputeTile,
    InstructionInjectionUnit,
)
from repro.digital import BitPipeline
from repro.errors import (
    AdmissionError,
    AllocationError,
    ArbiterConflictError,
    BatchTimeoutError,
    CapacityError,
    CircuitOpenError,
    ClusterError,
    ConfigurationError,
    DeviceError,
    DeviceFailedError,
    ExecutionError,
    IntegrityError,
    IsaError,
    MappingError,
    NoDevicesError,
    QuantizationError,
    RebuildError,
    RegisterLiveError,
    ReplicationError,
    ReproError,
    SchedulerError,
    SloError,
    TransportError,
    WorkerFailedError,
)
from repro.isa import assemble
from repro.runtime import AesSession, DevicePool, FaultInjector, PumServer
from repro.analog import AnalogCrossbar


def small_pool(**kwargs) -> DevicePool:
    kwargs.setdefault("num_devices", 2)
    kwargs.setdefault("config", ChipConfig(hct=HctConfig.small(), num_hcts=2))
    return DevicePool(**kwargs)


class TestRaisableViaPublicApi:
    """One provocation per public exception class."""

    def test_configuration_error(self):
        with pytest.raises(ConfigurationError, match="at least one HCT"):
            ChipConfig(hct=HctConfig.small(), num_hcts=0)

    def test_capacity_error(self):
        pipeline = BitPipeline(depth=16, rows=8, cols=16)
        with pytest.raises(CapacityError, match="out of range"):
            pipeline.write_vr(99, [0] * 8)

    def test_allocation_error(self):
        pool = small_pool(num_devices=1)
        with pytest.raises(AllocationError):
            pool.set_matrix(np.ones((4096, 4096), dtype=np.int64))

    def test_no_devices_error(self):
        with pytest.raises(NoDevicesError, match="at least one device"):
            DevicePool(num_devices=0, config=ChipConfig(hct=HctConfig.small()))

    def test_scheduler_error(self):
        with pytest.raises(SchedulerError, match="queue_capacity"):
            PumServer(pool=small_pool(), queue_capacity=0)

    def test_admission_error(self):
        server = PumServer(pool=small_pool())
        with pytest.raises(AdmissionError, match="no matrix registered"):
            server.allocation_for("missing")

    def test_slo_error(self):
        server = PumServer(pool=small_pool())
        server.register_matrix("proj", np.eye(4, dtype=np.int64))
        with pytest.raises(SloError, match="unknown SLO class"):
            server.submit("proj", np.zeros(4, dtype=np.int64), slo="platinum")
        from repro.runtime import SloClass
        with pytest.raises(SloError, match="latency_target_ticks"):
            SloClass("bogus", latency_target_ticks=0)

    def test_mapping_error(self):
        session = AesSession()  # no key at init
        with pytest.raises(MappingError, match="needs a key"):
            session.encrypt(b"\x00" * 16)

    def test_isa_error(self):
        with pytest.raises(IsaError, match="unknown mnemonic"):
            assemble("FROBNICATE vr0")

    def test_execution_error(self):
        tile = HybridComputeTile(HctConfig.small())
        handle = tile.set_matrix(np.ones((4, 4), dtype=np.int64))
        with pytest.raises(ExecutionError, match="at least one input vector"):
            tile.execute_mvm_batch(handle, np.empty((0, 4), dtype=np.int64))

    def test_arbiter_conflict_error(self):
        arbiter = AnalogDigitalArbiter()
        arbiter.acquire("pipeline:0", Domain.ANALOG, now=0.0, duration=10.0)
        with pytest.raises(ArbiterConflictError, match="busy with analog"):
            arbiter.try_acquire("pipeline:0", Domain.DIGITAL, now=1.0,
                                duration=1.0)

    def test_register_live_error(self):
        tile = HybridComputeTile(HctConfig.small())
        pipeline = tile.pipeline(0)  # never reserved for analog output
        with pytest.raises(RegisterLiveError, match="unreserved pipeline"):
            InstructionInjectionUnit().inject_reduction(
                pipeline, [np.arange(4)], accumulator_vr=0,
                staging_vrs=[1], shifts=[0],
            )

    def test_device_error(self):
        crossbar = AnalogCrossbar(rows=8, cols=8)
        with pytest.raises(DeviceError, match="has not been programmed"):
            crossbar.positive_levels()

    def test_quantization_error(self):
        pool = small_pool()
        with pytest.raises(QuantizationError, match="2-D"):
            pool.set_matrix(np.arange(8))

    def test_cluster_error(self):
        from repro.runtime.cluster import ClusterGateway
        with pytest.raises(ClusterError, match="at least one worker"):
            ClusterGateway(num_workers=0)

    def test_transport_error(self):
        from repro.runtime.cluster import ShmRing
        ring = ShmRing(capacity=4096)
        try:
            assert ring.push([b"\x01\x02\x03\x04"])
            # Corrupt the committed frame's payload in place (first byte
            # past the 64-byte control block + 12-byte frame header): the
            # reader must flag the CRC instead of serving torn bytes.
            ring.shm.buf[64 + 12] ^= 0xFF
            with pytest.raises(TransportError, match="CRC mismatch"):
                ring.peek()
        finally:
            ring.close()

    def test_worker_failed_error(self):
        from repro.runtime.cluster import ClusterGateway

        async def scenario():
            import asyncio
            import os
            import signal
            async with ClusterGateway(
                num_workers=1, chip="small", heartbeat_interval=0.02
            ) as gateway:
                await gateway.register_matrix(
                    "w", np.eye(8, dtype=np.int64), input_bits=2
                )
                futures = await gateway.submit_batch(
                    "w", np.ones((2, 8), dtype=np.int64), 2
                )
                os.kill(gateway._workers[0].process.pid, signal.SIGKILL)
                responses = await asyncio.gather(*futures)
                assert all(r.status == "failed" for r in responses)
                assert all(
                    "cluster worker 0 failed" in r.error for r in responses
                )

        import asyncio
        asyncio.run(scenario())

    def test_repro_error_is_the_catchable_base(self):
        # The library contract: one `except ReproError` catches any
        # library failure without swallowing unrelated Python errors.
        server = PumServer(pool=small_pool())
        with pytest.raises(ReproError):
            server.allocation_for("missing")


class TestDeviceFailedErrorFields:
    def test_kill_carries_device_and_kind(self):
        pool = small_pool()
        injector = FaultInjector().attach(pool)
        injector.kill(1)
        with pytest.raises(DeviceFailedError) as excinfo:
            injector.before_call(1)
        assert excinfo.value.device_index == 1
        assert excinfo.value.kind == "kill"

    def test_hang_kind(self):
        pool = small_pool()
        injector = FaultInjector().attach(pool)
        injector.hang(0, calls=1)
        with pytest.raises(DeviceFailedError) as excinfo:
            injector.before_call(0)
        assert excinfo.value.device_index == 0
        assert excinfo.value.kind == "hang"

    def test_exhausted_kind_when_every_replica_is_dead(self):
        pool = small_pool(num_devices=1)
        allocation = pool.set_matrix(np.ones((4, 4), dtype=np.int64))
        injector = FaultInjector().attach(pool)
        injector.kill(0)
        with pytest.raises(DeviceFailedError) as excinfo:
            pool.exec_mvm(allocation, np.ones(4, dtype=np.int64),
                          input_bits=2)
        assert excinfo.value.kind == "exhausted"
        assert isinstance(excinfo.value.device_index, int)

    def test_retryable_hierarchy(self):
        # Documented: a failed device is a *device*-level error, hence
        # catchable by anything already handling DeviceError.
        assert issubclass(DeviceFailedError, DeviceError)


class TestReplicationErrorFields:
    def test_fields_match_the_impossible_request(self):
        with pytest.raises(ReplicationError) as excinfo:
            small_pool(num_devices=2, replication=3)
        assert excinfo.value.replication == 3
        assert excinfo.value.num_devices == 2
        assert "distinct devices" in str(excinfo.value)

    def test_is_an_allocation_error(self):
        assert issubclass(ReplicationError, AllocationError)


class TestIntegrityErrorFields:
    def test_corruption_exhausts_into_integrity_error(self):
        # Public-API provocation: an unreplicated pool in full-verification
        # mode has no replica to re-execute on, so a corrupted result
        # surfaces as IntegrityError(kind="exhausted").
        pool = small_pool(num_devices=1, verify="full")
        allocation = pool.set_matrix(np.eye(4, dtype=np.int64))
        injector = FaultInjector(seed=3).attach(pool)
        injector.corrupt(0, calls=4)
        with pytest.raises(IntegrityError) as excinfo:
            pool.exec_mvm_batch(allocation, np.ones((1, 4), dtype=np.int64),
                                input_bits=2)
        assert excinfo.value.kind == "exhausted"
        assert excinfo.value.device_index == 0
        assert excinfo.value.band == 0

    def test_is_a_device_error(self):
        # Documented: a checksum mismatch is a *device*-level failure, so
        # existing DeviceError handlers see it without new except clauses.
        assert issubclass(IntegrityError, DeviceError)


class TestRebuildErrorFields:
    def test_no_capacity_anywhere(self):
        pool = small_pool(num_devices=2, replication=2)
        allocation = pool.set_matrix(np.eye(4, dtype=np.int64))
        pool.mark_device_failed(0)
        pool.mark_device_failed(1)
        with pytest.raises(RebuildError) as excinfo:
            pool.rebuild(allocation)
        assert excinfo.value.allocation_id == allocation.allocation_id
        assert excinfo.value.band == 0
        assert "rebuilt" in str(excinfo.value)

    def test_is_an_allocation_error(self):
        assert issubclass(RebuildError, AllocationError)


class TestWorkerFailedErrorFields:
    def test_fields_and_default_message(self):
        error = WorkerFailedError(3, kind="stale")
        assert error.worker_id == 3
        assert error.kind == "stale"
        assert "worker 3" in str(error)
        assert "stale" in str(error)

    def test_is_a_cluster_error(self):
        assert issubclass(WorkerFailedError, ClusterError)


class TestBatchTimeoutErrorFields:
    def test_fields_and_default_message(self):
        error = BatchTimeoutError(1, batch_id=7, attempts=3)
        assert error.worker_id == 1
        assert error.batch_id == 7
        assert error.attempts == 3
        assert "batch 7" in str(error)
        assert "worker 1" in str(error)

    def test_is_a_cluster_error(self):
        # A gray failure is a *cluster*-tier event, not an admission one:
        # it fires after admission, while the batch is inflight.
        assert issubclass(BatchTimeoutError, ClusterError)


class TestCircuitOpenErrorFields:
    def test_fields_and_default_message(self):
        error = CircuitOpenError(worker_ids=(0, 2))
        assert error.worker_ids == (0, 2)
        assert "circuit breaker open" in str(error)

    def test_is_admission_backpressure(self):
        # Documented contract: existing `except AdmissionError` retry
        # loops must absorb breaker-open refusals without modification.
        assert issubclass(CircuitOpenError, AdmissionError)


class TestHierarchy:
    """The documented lattice, asserted explicitly."""

    @pytest.mark.parametrize("child, parent", [
        (ConfigurationError, ReproError),
        (CapacityError, ReproError),
        (AllocationError, CapacityError),
        (NoDevicesError, AllocationError),
        (ReplicationError, AllocationError),
        (SchedulerError, ReproError),
        (AdmissionError, SchedulerError),
        (SloError, SchedulerError),
        (MappingError, ReproError),
        (IsaError, ReproError),
        (ExecutionError, ReproError),
        (ArbiterConflictError, ExecutionError),
        (RegisterLiveError, ExecutionError),
        (DeviceError, ReproError),
        (DeviceFailedError, DeviceError),
        (IntegrityError, DeviceError),
        (RebuildError, AllocationError),
        (QuantizationError, ReproError),
        (ClusterError, ReproError),
        (TransportError, ClusterError),
        (WorkerFailedError, ClusterError),
        (BatchTimeoutError, ClusterError),
        (CircuitOpenError, AdmissionError),
    ])
    def test_subclassing(self, child, parent):
        assert issubclass(child, parent)

    def test_every_public_exception_is_covered_here(self):
        """Registry check: a new exception class must extend this suite."""
        public = {
            name for name, obj in vars(errors_module).items()
            if inspect.isclass(obj) and issubclass(obj, ReproError)
        }
        covered = {
            "ReproError", "ConfigurationError", "CapacityError",
            "AllocationError", "NoDevicesError", "ReplicationError",
            "SchedulerError", "AdmissionError", "SloError", "MappingError",
            "IsaError",
            "ExecutionError", "ArbiterConflictError", "RegisterLiveError",
            "DeviceError", "DeviceFailedError", "IntegrityError",
            "RebuildError", "QuantizationError",
            "ClusterError", "TransportError", "WorkerFailedError",
            "BatchTimeoutError", "CircuitOpenError",
        }
        assert public == covered, (
            "public exceptions changed; update tests/test_errors.py: "
            f"uncovered={sorted(public - covered)} "
            f"stale={sorted(covered - public)}"
        )
