"""Chaos suite: device failures under load must not lose or corrupt work.

The tier-1 resilience gate of ROADMAP item 5.  The headline scenario kills
1 of N devices mid-load on a replication-2 pool and asserts the three
degraded-mode guarantees end to end:

* **zero lost futures** -- every submitted request resolves exactly once;
* **bit-identical responses** -- results, statuses, and per-request tick
  latencies match a fault-free twin run bit for bit (failover is intra-call,
  so even the latency distribution is unchanged);
* **bounded p99 blip** -- asserted at its strongest: the degraded run's
  p99 latency in ticks *equals* the fault-free run's.

Alongside the gate: fault-injector unit semantics (kill / hang / corrupt /
heal, seeded schedules), replicated placement invariants, and retry
accounting down to the pool counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import derive_rng
from repro.core import ChipConfig, HctConfig
from repro.errors import (
    DeviceFailedError,
    IntegrityError,
    ReplicationError,
    SchedulerError,
)
from repro.runtime import (
    DevicePool,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    PumServer,
    StaticBatchingPolicy,
)
from repro.runtime import server as server_module


def tiny_pool(num_devices=3, num_hcts=3, replication=1, verify="off"):
    config = ChipConfig(hct=HctConfig.small(), num_hcts=num_hcts)
    return DevicePool(
        num_devices=num_devices, config=config,
        replication=replication, verify=verify,
    )


def make_server(replication=2, num_devices=3, max_batch=4, max_wait_ticks=2,
                verify="off", **kwargs):
    pool = tiny_pool(num_devices=num_devices, replication=replication,
                     verify=verify)
    kwargs.setdefault("queue_capacity", 256)
    return PumServer(
        pool=pool, scheduling=StaticBatchingPolicy(max_batch, max_wait_ticks),
        **kwargs,
    )


class TestFaultInjector:
    def test_kill_blocks_until_heal(self):
        pool = tiny_pool(num_devices=2, replication=1)
        injector = FaultInjector().attach(pool)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        victim = allocation.devices_used[0]
        injector.kill(victim)
        vectors = np.ones((2, 8), dtype=np.int64)
        with pytest.raises(DeviceFailedError) as excinfo:
            pool.exec_mvm_batch(allocation, vectors, input_bits=1)
        assert excinfo.value.kind == "exhausted"  # no replica to fail over to
        assert injector.calls_blocked >= 1
        injector.heal(victim)
        assert pool.failed_devices == []
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
        assert np.array_equal(out, vectors)

    def test_hang_clears_itself(self):
        pool = tiny_pool(num_devices=2, replication=2)
        injector = FaultInjector().attach(pool)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        primary = allocation.bands[0][0].device_index
        injector.hang(primary, calls=1)
        vectors = np.ones((2, 8), dtype=np.int64)
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
        assert np.array_equal(out, vectors)  # served by the replica
        assert pool.replica_retries == 1
        assert injector.active_faults() == {}  # hang consumed its budget
        # The device stays health-marked until restored; traffic keeps
        # flowing on the replica (a hit, not a retry).
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
        assert np.array_equal(out, vectors)
        assert pool.replica_hits >= 1

    def test_corrupt_flips_bits_deterministically(self):
        results = []
        for _ in range(2):
            pool = tiny_pool(num_devices=1, replication=1)
            injector = FaultInjector(seed=7).attach(pool)
            allocation = pool.set_matrix(np.eye(8, dtype=np.int64),
                                         element_size=4)
            injector.corrupt(0, calls=1)
            vectors = np.ones((2, 8), dtype=np.int64)
            out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
            results.append(out)
            # Silent corruption: the call *succeeds* but the payload lies --
            # exactly what the chaos suite's bit-identity assertions exist
            # to catch.
            assert not np.array_equal(out, vectors)
            assert injector.results_corrupted == 1
            clean = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
            assert np.array_equal(clean, vectors)
        assert np.array_equal(results[0], results[1])  # seed-deterministic

    def test_scheduled_events_fire_on_call_counts(self):
        pool = tiny_pool(num_devices=2, replication=2)
        schedule = FaultSchedule(
            events=(FaultEvent("kill", after=1, target=0),),
        )
        injector = FaultInjector(schedule=schedule).attach(pool)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert allocation.bands[0][0].device_index == 0
        vectors = np.ones((1, 8), dtype=np.int64)
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)  # call 0
        assert np.array_equal(out, vectors)
        assert pool.replica_retries == 0
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)  # call 1: kill
        assert np.array_equal(out, vectors)
        assert pool.replica_retries == 1
        assert injector.armed["kill"] == 1

    def test_schedule_from_seed_is_reproducible(self):
        modes = FaultInjector.MODES
        first = FaultSchedule.from_seed(42, modes=modes, num_targets=4)
        second = FaultSchedule.from_seed(42, modes=modes, num_targets=4)
        assert first == second
        different = FaultSchedule.from_seed(43, modes=modes, num_targets=4)
        assert first != different
        for event in first.events:
            assert 0 <= event.target < 4
            assert event.mode in ("kill", "hang", "corrupt")
            assert event.duration >= 1

    def test_event_validation(self):
        with pytest.raises(SchedulerError):
            FaultEvent("meltdown")
        with pytest.raises(SchedulerError):
            FaultEvent("kill", after=-1)
        with pytest.raises(SchedulerError):
            FaultEvent("hang", duration=0)
        injector = FaultInjector()
        with pytest.raises(SchedulerError):
            injector.hang(0, calls=0)
        with pytest.raises(SchedulerError):
            injector.corrupt(0, calls=0)

    def test_detach_stops_faults(self):
        pool = tiny_pool(num_devices=1, replication=1)
        injector = FaultInjector().attach(pool)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        injector.kill(0)
        injector.detach()
        assert pool.fault_injector is None
        out = pool.exec_mvm(allocation, np.ones(8, dtype=np.int64), input_bits=1)
        assert np.array_equal(out, np.ones(8, dtype=np.int64))

    def test_attach_same_pool_is_idempotent(self):
        pool = tiny_pool(num_devices=2)
        injector = FaultInjector()
        assert injector.attach(pool) is injector
        injector.kill(1)
        assert injector.attach(pool) is injector  # no-op, not a reset
        assert pool.fault_injector is injector
        assert injector.active_faults() == {1: "kill"}

    def test_attach_over_a_different_injector_raises(self):
        pool = tiny_pool(num_devices=2)
        first = FaultInjector().attach(pool)
        with pytest.raises(SchedulerError, match="already has a FaultInjector"):
            FaultInjector().attach(pool)
        assert pool.fault_injector is first  # conflict left the pool alone
        first.detach()
        second = FaultInjector().attach(pool)  # explicit detach unblocks
        assert pool.fault_injector is second

    def test_attach_to_a_new_pool_moves_the_injector(self):
        first = tiny_pool(num_devices=2)
        second = tiny_pool(num_devices=2)
        injector = FaultInjector().attach(first)
        injector.attach(second)
        assert first.fault_injector is None
        assert second.fault_injector is injector

    def test_detach_is_idempotent(self):
        pool = tiny_pool(num_devices=2)
        injector = FaultInjector().attach(pool)
        injector.detach()
        injector.detach()  # second detach: no-op, no error
        assert pool.fault_injector is None
        FaultInjector().detach()  # never attached: also a no-op


class TestReplicatedPlacement:
    def test_replicas_land_on_distinct_devices(self):
        pool = tiny_pool(num_devices=3, replication=2)
        rng = derive_rng("placement", "least_loaded")
        matrix = rng.integers(-8, 8, size=(40, 12))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        assert allocation.replication == 2
        for copies in allocation.bands:
            devices = [task.device_index for task in copies]
            assert len(devices) == 2
            assert len(set(devices)) == 2, "replicas stacked on one device"

    def test_replication_factor_validated(self):
        with pytest.raises(ReplicationError) as excinfo:
            tiny_pool(num_devices=2, replication=3)
        assert excinfo.value.replication == 3
        assert excinfo.value.num_devices == 2
        with pytest.raises(ReplicationError):
            tiny_pool(num_devices=2, replication=0)

    def test_replicated_results_bit_identical_to_unreplicated(self):
        rng = derive_rng("replicated-results")
        matrix = rng.integers(-8, 8, size=(40, 12))
        vectors = rng.integers(0, 8, size=(5, 40))
        plain = tiny_pool(num_devices=3, replication=1)
        replicated = tiny_pool(num_devices=3, replication=2)
        out_plain = plain.exec_mvm_batch(
            plain.set_matrix(matrix, element_size=4, precision=0), vectors,
            input_bits=3,
        )
        out_replicated = replicated.exec_mvm_batch(
            replicated.set_matrix(matrix, element_size=4, precision=0), vectors,
            input_bits=3,
        )
        assert np.array_equal(out_plain, out_replicated)
        assert np.array_equal(out_plain, vectors @ matrix)

    def test_expected_mvm_ignores_replicas(self):
        rng = derive_rng("expected-replicas")
        pool = tiny_pool(num_devices=3, replication=2)
        matrix = rng.integers(-8, 8, size=(40, 12))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        vectors = rng.integers(0, 8, size=(3, 40))
        assert np.array_equal(
            pool.expected_mvm(allocation, vectors), vectors @ matrix
        )

    def test_multi_band_failover_is_exact(self):
        """Sharded + replicated: kill one device, every band still exact."""
        rng = derive_rng("multi-band")
        # Twice the HCTs of the unreplicated sharding tests: every band is
        # stored twice.
        pool = tiny_pool(num_devices=3, num_hcts=6, replication=2)
        matrix = rng.integers(-8, 8, size=(100, 30))  # forces > 1 band
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        assert allocation.num_shards > 1
        injector = FaultInjector().attach(pool)
        vectors = rng.integers(0, 8, size=(4, 100))
        injector.kill(allocation.bands[0][0].device_index)
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        assert pool.replica_retries >= 1
        single = pool.exec_mvm(allocation, vectors[0], input_bits=3)
        assert np.array_equal(single, vectors[0] @ matrix)


class TestChaosGate:
    """The tier-1 acceptance scenario: kill 1 of 3 devices mid-load, R=2."""

    ROWS, COLS = 16, 8
    WAVES = 12
    WAVE_SIZE = 6

    def _run(self, kill_at_wave=None):
        """Drive open-loop load; optionally kill a device mid-run."""
        rng = derive_rng("chaos-gate")  # same traffic for both runs
        server = make_server(replication=2, num_devices=3)
        matrix = rng.integers(-8, 8, size=(self.ROWS, self.COLS))
        allocation = server.register_matrix(
            "model", matrix, element_size=4, input_bits=3
        )
        injector = FaultInjector().attach(server.pool)
        victim = allocation.bands[0][0].device_index
        futures = []
        for wave in range(self.WAVES):
            if wave == kill_at_wave:
                injector.kill(victim)
            vectors = rng.integers(0, 8, size=(self.WAVE_SIZE, self.ROWS))
            futures.extend(server.submit_batch("model", vectors, input_bits=3))
            server.tick()
        server.run_until_idle()
        return server, futures, matrix, victim

    def test_kill_mid_load_loses_nothing_and_stays_bit_identical(self):
        baseline, base_futures, matrix, _ = self._run(kill_at_wave=None)
        degraded, futures, _, victim = self._run(kill_at_wave=self.WAVES // 2)

        # Zero lost futures: every submitted request reached a terminal
        # state, and all of them completed (replication absorbed the kill).
        assert len(futures) == self.WAVES * self.WAVE_SIZE
        assert all(f.done() for f in futures)
        statuses = {f.result().status for f in futures}
        assert statuses == {"completed"}
        assert degraded.pending == 0
        stats = degraded.stats
        assert stats.submitted == stats.completed \
            + stats.rejected + stats.shed + stats.failed
        assert stats.failed == 0

        # Bit-identical responses vs the fault-free twin -- results *and*
        # tick latencies (failover happens inside the dispatch call, so the
        # tick-domain schedule cannot shift).
        for base_future, future in zip(base_futures, futures):
            base = base_future.result()
            response = future.result()
            assert response.request_id == base.request_id
            assert response.status == base.status
            assert np.array_equal(response.result, base.result)
            assert response.latency_ticks == base.latency_ticks

        # Bounded p99 blip, asserted at its strongest: equality in ticks.
        assert stats.latency_percentile(99) \
            == baseline.stats.latency_percentile(99)

        # The degradation was real and surfaced in the serving telemetry.
        assert stats.replica_retries >= 1
        assert stats.device_failures >= 1
        assert stats.degraded_batches >= 1
        assert degraded.device_health()[victim] is False
        assert baseline.stats.degraded_batches == 0
        assert baseline.stats.replica_retries == 0

    def test_heal_restores_primary_dispatch(self):
        rng = derive_rng("chaos-heal")
        server = make_server(replication=2, num_devices=3)
        matrix = rng.integers(-8, 8, size=(self.ROWS, self.COLS))
        allocation = server.register_matrix(
            "model", matrix, element_size=4, input_bits=3
        )
        injector = FaultInjector().attach(server.pool)
        victim = allocation.bands[0][0].device_index
        injector.kill(victim)
        server.submit_batch(
            "model", rng.integers(0, 8, size=(4, self.ROWS)), input_bits=3
        )
        server.run_until_idle()
        assert server.stats.replica_retries >= 1
        injector.heal(victim)
        assert server.device_health()[victim] is True
        hits_before = server.pool.replica_hits
        retries_before = server.pool.replica_retries
        futures = server.submit_batch(
            "model", rng.integers(0, 8, size=(4, self.ROWS)), input_bits=3
        )
        server.run_until_idle()
        assert all(f.result().status == "completed" for f in futures)
        # Back on the primary: no hits, no retries after recovery.
        assert server.pool.replica_hits == hits_before
        assert server.pool.replica_retries == retries_before

    def test_hang_under_load_self_clears_and_primaries_resume(self):
        """A transient hang mid-load: replicas absorb it, nothing is lost,
        and once the fault self-clears and the device is healed, dispatch
        returns to the primary (hits and retries stop growing)."""
        rng = derive_rng("chaos-hang")
        server = make_server(replication=2, num_devices=3)
        matrix = rng.integers(-8, 8, size=(self.ROWS, self.COLS))
        allocation = server.register_matrix(
            "model", matrix, element_size=4, input_bits=3
        )
        injector = FaultInjector().attach(server.pool)
        victim = allocation.bands[0][0].device_index
        futures = []
        for wave in range(self.WAVES):
            if wave == self.WAVES // 2:
                injector.hang(victim, calls=1)  # transient: self-clears
            vectors = rng.integers(0, 8, size=(self.WAVE_SIZE, self.ROWS))
            futures.extend(server.submit_batch("model", vectors, input_bits=3))
            server.tick()
        server.run_until_idle()

        # Zero lost futures; every rider completed on a replica.
        assert len(futures) == self.WAVES * self.WAVE_SIZE
        assert all(f.done() for f in futures)
        assert {f.result().status for f in futures} == {"completed"}
        assert server.pending == 0
        assert server.stats.replica_retries >= 1
        assert injector.active_faults() == {}  # the hang consumed its budget

        # Heal re-admits the primary: hits and retries go flat afterwards.
        injector.heal(victim)
        hits_before = server.pool.replica_hits
        retries_before = server.pool.replica_retries
        tail = server.submit_batch(
            "model", rng.integers(0, 8, size=(self.WAVE_SIZE, self.ROWS)),
            input_bits=3,
        )
        server.run_until_idle()
        assert all(f.result().status == "completed" for f in tail)
        assert server.pool.replica_hits == hits_before
        assert server.pool.replica_retries == retries_before

    def test_unreplicated_kill_fails_riders_without_wedging(self):
        """R=1 control: the kill is not absorbed, but nothing is lost either."""
        rng = derive_rng("chaos-r1")
        server = make_server(replication=1, num_devices=2)
        matrix = rng.integers(-8, 8, size=(self.ROWS, self.COLS))
        allocation = server.register_matrix(
            "model", matrix, element_size=4, input_bits=3
        )
        injector = FaultInjector().attach(server.pool)
        injector.kill(allocation.bands[0][0].device_index)
        futures = server.submit_batch(
            "model", rng.integers(0, 8, size=(5, self.ROWS)), input_bits=3
        )
        server.run_until_idle()
        assert all(f.done() for f in futures)
        responses = [f.result() for f in futures]
        assert {r.status for r in responses} == {"failed"}
        assert all("DeviceFailedError" in r.error for r in responses)
        assert server.stats.failed == 5
        assert server.pending == 0  # scheduler alive, queue drained


class TestQuarantine:
    """Corruption EWMA quarantine and its interplay with restore_device."""

    def _corrupting_pool(self):
        pool = tiny_pool(num_devices=2, replication=2, verify="full")
        injector = FaultInjector(seed=5).attach(pool)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        victim = allocation.bands[0][0].device_index
        return pool, injector, allocation, victim

    def test_repeat_offender_is_quarantined(self):
        pool, injector, allocation, victim = self._corrupting_pool()
        injector.corrupt(victim, calls=3)
        vectors = np.ones((1, 8), dtype=np.int64)
        for _ in range(3):
            runtime = pool.mvm_energy_units()
            executed = pool.total_ledger().energy_units
            out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
            assert np.array_equal(out, vectors)  # replica re-execution wins
            # The runtime ledgers mirror the tiles, re-execution included.
            assert (pool.mvm_energy_units() - runtime
                    == pool.total_ledger().energy_units - executed)
        # Three detections push the EWMA over the default 0.5 threshold.
        assert pool.corruptions_detected == 3
        assert pool.integrity_reexecutions == 3
        assert pool.quarantines == 1
        assert victim in pool.failed_devices
        detail = pool.device_health(detail=True)[victim]
        assert detail["quarantined"] is True
        assert detail["healthy"] is False
        assert detail["score"] > 0.5
        assert detail["corruptions"] == 3

    def test_quarantined_device_stays_out_until_restored(self):
        pool, injector, allocation, victim = self._corrupting_pool()
        injector.corrupt(victim, calls=3)
        vectors = np.ones((1, 8), dtype=np.int64)
        for _ in range(3):
            pool.exec_mvm_batch(allocation, vectors, input_bits=1)
        assert pool.quarantines == 1
        # Re-arm the corrupt fault: if the victim ever served a call, the
        # injector's corruption counter would move.  It must not -- a
        # quarantined device gets no traffic until explicitly restored.
        injector.corrupt(victim, calls=1)
        corrupted_before = injector.results_corrupted
        hits_before = pool.replica_hits
        for _ in range(4):
            out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
            assert np.array_equal(out, vectors)
        assert injector.results_corrupted == corrupted_before
        assert pool.replica_hits > hits_before
        assert pool.corruptions_detected == 3  # no new detections either

        # Explicit restore clears the health score and re-admits the device:
        # the still-armed fault now fires, proving the primary is back.
        pool.restore_device(victim)
        detail = pool.device_health(detail=True)[victim]
        assert detail["quarantined"] is False
        assert detail["healthy"] is True
        assert detail["score"] == 0.0
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=1)
        assert np.array_equal(out, vectors)  # detected and re-executed again
        assert injector.results_corrupted == corrupted_before + 1
        assert pool.corruptions_detected == 4


class TestIntegrityGate:
    """The PR 8 acceptance scenario: seeded corruption mid-load at R=2.

    With ``verify="full"`` every corrupted fan-out result must be detected
    by the ABFT column-sum check and re-executed on a replica *within the
    same dispatch call*, so responses and tick latencies stay bit-identical
    to a fault-free twin.  With ``verify="off"`` the same schedule provably
    serves wrong answers -- the negative control that shows the checksum
    layer is load-bearing.
    """

    ROWS, COLS = 16, 8
    WAVES = 12
    WAVE_SIZE = 6
    CORRUPT_CALLS = 3

    def _run(self, verify, corrupt_at_wave=None):
        rng = derive_rng("integrity-gate")  # same traffic for every run
        server = make_server(replication=2, num_devices=3, verify=verify)
        matrix = rng.integers(-8, 8, size=(self.ROWS, self.COLS))
        allocation = server.register_matrix(
            "model", matrix, element_size=4, input_bits=3
        )
        injector = FaultInjector(seed=11).attach(server.pool)
        victim = allocation.bands[0][0].device_index
        futures = []
        for wave in range(self.WAVES):
            if wave == corrupt_at_wave:
                injector.corrupt(victim, calls=self.CORRUPT_CALLS)
            vectors = rng.integers(0, 8, size=(self.WAVE_SIZE, self.ROWS))
            futures.extend(server.submit_batch("model", vectors, input_bits=3))
            server.tick()
        server.run_until_idle()
        return server, futures, injector, victim

    def test_full_verification_masks_corruption_bit_identically(self):
        baseline, base_futures, _, _ = self._run("full")
        degraded, futures, injector, victim = self._run(
            "full", corrupt_at_wave=self.WAVES // 2
        )

        # Zero lost futures, everything completed.
        assert len(futures) == self.WAVES * self.WAVE_SIZE
        assert all(f.done() for f in futures)
        assert {f.result().status for f in futures} == {"completed"}
        assert degraded.pending == 0

        # Every injected corruption was detected and re-executed.
        stats = degraded.stats
        assert injector.results_corrupted == self.CORRUPT_CALLS
        assert stats.corruptions_detected == self.CORRUPT_CALLS
        assert stats.reexecutions == stats.corruptions_detected
        assert stats.integrity_checks > 0
        assert stats.degraded_batches >= 1

        # Bit-identical to the fault-free twin: results *and* latencies
        # (detection + re-execution happen inside the dispatch call).
        for base_future, future in zip(base_futures, futures):
            base = base_future.result()
            response = future.result()
            assert response.status == base.status
            assert np.array_equal(response.result, base.result)
            assert response.latency_ticks == base.latency_ticks

        # The repeat offender was quarantined and surfaced in health detail.
        assert degraded.device_health()[victim] is False
        assert degraded.device_health(detail=True)[victim]["quarantined"] is True

        # Fault-free full verification is clean: checks ran, nothing fired.
        assert baseline.stats.integrity_checks > 0
        assert baseline.stats.corruptions_detected == 0
        assert baseline.stats.reexecutions == 0
        assert baseline.stats.degraded_batches == 0

    def test_verify_off_negative_control_serves_wrong_answers(self):
        clean, clean_futures, _, _ = self._run("off")
        corrupted, futures, injector, _ = self._run(
            "off", corrupt_at_wave=self.WAVES // 2
        )
        # The exact failure mode the ABFT layer exists to stop: every
        # future "completes", yet payloads are silently wrong.
        assert {f.result().status for f in futures} == {"completed"}
        assert injector.results_corrupted == self.CORRUPT_CALLS
        assert corrupted.stats.integrity_checks == 0
        assert corrupted.stats.corruptions_detected == 0
        differing = sum(
            not np.array_equal(f.result().result, c.result().result)
            for f, c in zip(futures, clean_futures)
        )
        assert differing >= 1

    def test_audit_mode_counts_but_does_not_mask(self):
        clean, clean_futures, _, _ = self._run("off")
        audited, futures, injector, _ = self._run(
            "audit", corrupt_at_wave=self.WAVES // 2
        )
        stats = audited.stats
        assert {f.result().status for f in futures} == {"completed"}
        assert stats.corruptions_detected == injector.results_corrupted
        assert stats.reexecutions == 0  # audit observes, never re-executes
        differing = sum(
            not np.array_equal(f.result().result, c.result().result)
            for f, c in zip(futures, clean_futures)
        )
        assert differing >= 1  # corrupted payloads were served as-is

    def test_unreplicated_corruption_exhausts_into_integrity_error(self):
        pool = tiny_pool(num_devices=1, replication=1, verify="full")
        injector = FaultInjector(seed=9).attach(pool)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        injector.corrupt(0, calls=4)
        with pytest.raises(IntegrityError) as excinfo:
            pool.exec_mvm_batch(
                allocation, np.ones((1, 8), dtype=np.int64), input_bits=1
            )
        assert excinfo.value.kind == "exhausted"


class TestRebuildGate:
    """Kill *all* replicas of a band under load; auto-rebuild restores R."""

    ROWS, COLS = 16, 8
    WAVES = 12
    WAVE_SIZE = 6

    def _run(self, monkeypatch, auto_rebuild, num_devices=4):
        monkeypatch.setattr(server_module, "AUTO_REBUILD", auto_rebuild)
        rng = derive_rng("rebuild-gate")
        server = make_server(replication=2, num_devices=num_devices)
        matrix = rng.integers(-8, 8, size=(self.ROWS, self.COLS))
        allocation = server.register_matrix(
            "model", matrix, element_size=4, input_bits=3
        )
        injector = FaultInjector().attach(server.pool)
        holders = allocation.devices_used
        futures = []
        for wave in range(self.WAVES):
            if wave == self.WAVES // 2:
                for device_index in holders:  # kill every replica at once
                    injector.kill(device_index)
            vectors = rng.integers(0, 8, size=(self.WAVE_SIZE, self.ROWS))
            futures.extend(server.submit_batch("model", vectors, input_bits=3))
            server.tick()
        server.run_until_idle()
        return server, futures, matrix, allocation, holders

    def test_auto_rebuild_restores_replication_with_zero_lost_futures(self, monkeypatch):
        server, futures, matrix, allocation, holders = self._run(
            monkeypatch, auto_rebuild=True
        )
        assert len(futures) == self.WAVES * self.WAVE_SIZE
        assert all(f.done() for f in futures)
        assert {f.result().status for f in futures} == {"completed"}
        assert server.pending == 0
        assert server.stats.rebuilds >= 1
        assert server.pool.bands_rebuilt >= 1

        # Replication factor is back to R=2 on devices disjoint from the
        # killed holders, and every band is sourced from the retained matrix.
        survivors = allocation.devices_used
        assert len(allocation.all_tasks) == 2
        assert not set(survivors) & set(holders)
        assert set(server.pool.failed_devices) == set(holders)

        # Post-rebuild results stay exact (int fast path, no planning stall).
        rng = derive_rng("rebuild-gate-tail")
        vectors = rng.integers(0, 8, size=(4, self.ROWS))
        tail = server.submit_batch("model", vectors, input_bits=3)
        server.run_until_idle()
        for vector, future in zip(vectors, tail):
            assert np.array_equal(future.result().result, vector @ matrix)

    def test_a_rebuilt_batch_bills_its_rows_not_the_reprogramming(self, monkeypatch):
        """The retried batch read the rebuild's programming as request
        energy (4504.62 pJ a row against 1091.28 served healthy)."""
        monkeypatch.setattr(server_module, "AUTO_REBUILD", True)
        energies = {}
        for killed in (False, True):
            rng = derive_rng("rebuild-gate-energy")
            server = make_server(replication=2, num_devices=4,
                                 max_batch=self.WAVE_SIZE)
            allocation = server.register_matrix(
                "model", rng.integers(-8, 8, size=(self.ROWS, self.COLS)),
                element_size=4, input_bits=3,
            )
            if killed:
                injector = FaultInjector().attach(server.pool)
                for device_index in allocation.devices_used:
                    injector.kill(device_index)
            vectors = rng.integers(0, 8, size=(self.WAVE_SIZE, self.ROWS))
            futures = server.submit_batch("model", vectors, input_bits=3)
            server.run_until_idle()
            assert server.stats.rebuilds == killed
            assert {f.result().status for f in futures} == {"completed"}
            energies[killed] = [f.result().energy_pj for f in futures]
        assert energies[True] == energies[False]

    def test_without_auto_rebuild_riders_fail_but_nothing_wedges(self, monkeypatch):
        server, futures, _, _, _ = self._run(monkeypatch, auto_rebuild=False)
        assert all(f.done() for f in futures)
        statuses = {f.result().status for f in futures}
        assert statuses == {"completed", "failed"}
        failed = [f.result() for f in futures if f.result().status == "failed"]
        assert failed and all("every replica" in r.error for r in failed)
        assert server.pending == 0
        assert server.stats.rebuilds == 0
