"""DevicePool scheduling, sharding, and accounting edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import derive_rng

from repro.core import ChipConfig, HctConfig
from repro.errors import (
    AllocationError,
    DeviceFailedError,
    NoDevicesError,
    QuantizationError,
)
from repro.reram import NoiseConfig
from repro.runtime import (
    CacheAffinityPolicy,
    DevicePool,
    FaultInjector,
    LeastLoadedPolicy,
    PlacementPolicy,
    RoundRobinPolicy,
    make_placement_policy,
)


@pytest.fixture
def rng():
    return derive_rng("pool")


def tiny_pool(num_devices=3, num_hcts=3, policy="least_loaded"):
    """A pool of small chips so sharding kicks in at test-friendly sizes."""
    config = ChipConfig(hct=HctConfig.small(), num_hcts=num_hcts)
    return DevicePool(num_devices=num_devices, config=config, policy=policy)


class TestScheduling:
    def test_least_loaded_spreads_matrices(self):
        pool = tiny_pool()
        first = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        second = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        third = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert first.devices_used == [0]
        assert second.devices_used == [1]
        assert third.devices_used == [2]

    def test_round_robin_cycles_devices(self):
        pool = tiny_pool(num_devices=2, policy="round_robin")
        placements = [
            pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4).devices_used
            for _ in range(4)
        ]
        assert placements == [[0], [1], [0], [1]]

    def test_unknown_policy_rejected(self):
        with pytest.raises(AllocationError):
            tiny_pool(policy="random")

    def test_empty_pool_raises_named_error(self):
        with pytest.raises(NoDevicesError):
            DevicePool(num_devices=0)
        # The named error is still an AllocationError for legacy callers.
        assert issubclass(NoDevicesError, AllocationError)

    def test_set_matrix_with_zero_devices_raises_named_error(self):
        pool = tiny_pool(num_devices=1)
        pool.devices.clear()  # a misconfigured deployment, not a planner bug
        with pytest.raises(NoDevicesError, match="zero devices"):
            pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)


class TestPlacementPolicies:
    def test_policy_factory_resolves_names_and_instances(self):
        assert isinstance(make_placement_policy("round_robin"), RoundRobinPolicy)
        assert isinstance(make_placement_policy("least_loaded"), LeastLoadedPolicy)
        assert isinstance(make_placement_policy("cache_affinity"), CacheAffinityPolicy)
        instance = RoundRobinPolicy()
        assert make_placement_policy(instance) is instance
        with pytest.raises(AllocationError):
            make_placement_policy("fifo")

    def test_policy_instance_accepted_by_pool(self):
        pool = DevicePool(
            num_devices=2,
            config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
            policy=RoundRobinPolicy(),
        )
        assert pool.policy == "round_robin"

    def test_cache_affinity_reuses_devices_for_updates(self):
        pool = tiny_pool(policy="cache_affinity")
        first = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert first.devices_used == [0]  # least-loaded fallback seeds device 0
        updated = pool.set_matrix(
            np.eye(8, dtype=np.int64), element_size=4,
            affinity=first.devices_used,
        )
        assert updated.devices_used == first.devices_used
        # Without an affinity hint the policy behaves like least-loaded.
        fresh = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert fresh.devices_used == [1]

    def test_cache_affinity_ignores_stale_affinity_hints(self):
        pool = tiny_pool(policy="cache_affinity")
        allocation = pool.set_matrix(
            np.eye(8, dtype=np.int64), element_size=4, affinity=[99, -3]
        )
        assert allocation.devices_used == [0]  # fell back to least-loaded

    def test_cache_affinity_falls_back_when_preferred_device_is_full(self, rng):
        pool = tiny_pool(policy="cache_affinity", num_devices=3)
        big = rng.integers(-8, 8, size=(100, 30))  # needs more than one chip
        allocation = pool.set_matrix(big, element_size=4, precision=0)
        assert len(allocation.devices_used) > 1
        vectors = rng.integers(0, 8, size=(4, 100))
        assert np.array_equal(
            pool.exec_mvm_batch(allocation, vectors, input_bits=3), vectors @ big
        )

    def test_round_robin_cursor_survives_refactor(self):
        pool = tiny_pool(num_devices=3, policy="round_robin")
        used = [
            pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4).devices_used
            for _ in range(3)
        ]
        assert used == [[0], [1], [2]]


class TestCacheAffinityCycles:
    """Eviction/affinity decisions across repeated register/release cycles.

    The policy was previously exercised only incidentally (one update per
    test); serving reality is a churn of re-registrations and releases, and
    the affinity decisions must stay stable -- and honest -- through it.
    """

    def test_affinity_survives_many_update_cycles(self):
        pool = tiny_pool(policy="cache_affinity")
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        home = allocation.devices_used
        for generation in range(8):
            previous = allocation
            pool.release(previous)
            allocation = pool.set_matrix(
                np.full((8, 8), generation, dtype=np.int64) % 4,
                element_size=4, affinity=previous.devices_used,
            )
            assert allocation.devices_used == home, \
                f"update {generation} migrated off the affine device"

    def test_release_restores_affinity_capacity(self):
        """Churn must not leak: capacity returns fully after each cycle."""
        pool = tiny_pool(policy="cache_affinity")
        for _ in range(6):
            allocation = pool.set_matrix(
                np.eye(8, dtype=np.int64), element_size=4
            )
            assert any(u > 0 for u in pool.utilization())
            pool.release(allocation)
            assert pool.utilization() == [0.0] * pool.num_devices
        assert pool.allocations == []

    def test_eviction_to_other_device_when_affine_device_fills(self):
        pool = tiny_pool(policy="cache_affinity", num_devices=2)
        first = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        home = first.devices_used[0]
        # Fill the affine device, then ask for affinity to it anyway.
        fillers = []
        while pool.free_hcts(home) > 0:
            fillers.append(
                pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4,
                                affinity=[home])
            )
        overflow = pool.set_matrix(
            np.eye(8, dtype=np.int64), element_size=4, affinity=[home]
        )
        assert overflow.devices_used == [1 - home]  # fell back, not failed
        # Releasing a filler re-opens the affine device for the next cycle.
        pool.release(fillers[-1])
        back_home = pool.set_matrix(
            np.eye(8, dtype=np.int64), element_size=4, affinity=[home]
        )
        assert back_home.devices_used == [home]

    def test_affinity_accumulates_across_shards(self, rng):
        """Later shards of one allocation prefer devices of earlier shards."""
        pool = tiny_pool(policy="cache_affinity", num_devices=3)
        big = rng.integers(-8, 8, size=(100, 30))
        allocation = pool.set_matrix(big, element_size=4, precision=0)
        assert allocation.num_shards > 1
        ordered = [task.device_index for task in allocation.all_tasks]
        # Consecutive bands stay on one device until it fills (affinity
        # pull), so the device sequence is sorted runs, not alternation.
        runs = sum(
            1 for a, b in zip(ordered, ordered[1:]) if a != b
        )
        assert runs == len(set(ordered)) - 1


class TestReplication:
    """Pool-level replication basics (failure handling lives in test_chaos)."""

    def test_default_pools_are_unreplicated(self):
        pool = tiny_pool()
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert pool.replication == 1
        assert allocation.replication == 1
        assert len(allocation.all_tasks) == allocation.num_shards

    def test_replicated_allocation_doubles_storage_not_bands(self, rng):
        pool = tiny_pool(num_devices=3)
        replicated = DevicePool(
            num_devices=3,
            config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
            replication=2,
        )
        matrix = rng.integers(-8, 8, size=(8, 8))
        plain_alloc = pool.set_matrix(matrix, element_size=4)
        repl_alloc = replicated.set_matrix(matrix, element_size=4)
        assert repl_alloc.num_shards == plain_alloc.num_shards
        assert len(repl_alloc.all_tasks) == 2 * len(plain_alloc.all_tasks)
        assert len(repl_alloc.devices_used) == 2

    def test_release_frees_replicas_too(self, rng):
        pool = DevicePool(
            num_devices=2,
            config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
            replication=2,
        )
        allocation = pool.set_matrix(
            rng.integers(-8, 8, size=(8, 8)), element_size=4
        )
        assert all(u > 0 for u in pool.utilization())
        pool.release(allocation)
        assert pool.utilization() == [0.0, 0.0]

    def test_device_health_marks_and_restores(self):
        pool = tiny_pool()
        assert pool.device_health() == [True, True, True]
        pool.mark_device_failed(1)
        pool.mark_device_failed(1)  # idempotent
        assert pool.failed_devices == [1]
        assert pool.device_failures == 1
        assert pool.device_health() == [True, False, True]
        pool.restore_device(1)
        pool.restore_device(1)
        assert pool.failed_devices == []
        assert pool.device_health() == [True, True, True]


class TestSharding:
    def test_matrix_larger_than_one_chip_is_sharded(self, rng):
        pool = tiny_pool()
        # Needs 7 small HCTs in one piece; each chip has only 3.
        matrix = rng.integers(-8, 8, size=(100, 30))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        assert allocation.num_shards > 1
        assert len(allocation.devices_used) > 1
        # Shards tile the row range contiguously and without overlap.
        bands = sorted((t.row_start, t.row_end) for t in allocation.tasks)
        assert bands[0][0] == 0 and bands[-1][1] == 100
        for (_, end), (start, _) in zip(bands, bands[1:]):
            assert end == start

    def test_uneven_shards_stay_exact(self, rng):
        pool = tiny_pool()
        matrix = rng.integers(-8, 8, size=(100, 30))  # 100 % 3 != 0
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        sizes = {task.rows for task in allocation.tasks}
        assert len(sizes) > 1  # genuinely uneven bands
        vectors = rng.integers(0, 8, size=(6, 100))
        result = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(result, vectors @ matrix)
        single = pool.exec_mvm(allocation, vectors[0], input_bits=3)
        assert np.array_equal(single, vectors[0] @ matrix)

    def test_expected_mvm_reassembles_shards(self, rng):
        pool = tiny_pool()
        matrix = rng.integers(-8, 8, size=(50, 20))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        vectors = rng.integers(0, 8, size=(2, 50))
        assert np.array_equal(pool.expected_mvm(allocation, vectors), vectors @ matrix)

    def test_oversized_matrix_rejected(self, rng):
        pool = tiny_pool(num_devices=1, num_hcts=1)
        matrix = rng.integers(-8, 8, size=(200, 200))
        with pytest.raises(AllocationError):
            pool.set_matrix(matrix, element_size=4, precision=0)

    def test_release_returns_capacity(self, rng):
        pool = tiny_pool()
        matrix = rng.integers(-8, 8, size=(100, 30))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        assert any(u > 0 for u in pool.utilization())
        pool.release(allocation)
        assert pool.utilization() == [0.0, 0.0, 0.0]
        assert pool.allocations == []


class TestServing:
    def test_exec_requests_serves_in_order(self, rng):
        pool = tiny_pool(num_devices=2)
        a = rng.integers(-8, 8, size=(8, 8))
        b = rng.integers(-8, 8, size=(8, 4))
        alloc_a = pool.set_matrix(a, element_size=4)
        alloc_b = pool.set_matrix(b, element_size=4)
        vec_a = rng.integers(0, 8, size=(3, 8))
        vec_b = rng.integers(0, 8, size=(2, 8))
        assert alloc_a.devices_used != alloc_b.devices_used
        results = [
            pool.exec_mvm_batch(allocation, vectors, input_bits=3)
            for allocation, vectors in ((alloc_a, vec_a), (alloc_b, vec_b))
        ]
        assert np.array_equal(results[0], vec_a @ a)
        assert np.array_equal(results[1], vec_b @ b)

    def test_shape_mismatch_rejected(self, rng):
        pool = tiny_pool(num_devices=1)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        with pytest.raises(QuantizationError):
            pool.exec_mvm(allocation, np.zeros(9, dtype=np.int64))
        with pytest.raises(QuantizationError):
            pool.exec_mvm_batch(allocation, np.zeros((2, 9), dtype=np.int64))

    @pytest.mark.parametrize("rows", [8, 100], ids=["one_band", "sharded"])
    def test_a_vector_is_a_batch_of_one_and_an_empty_batch_is_empty(self, rng, rows):
        pool = tiny_pool()
        matrix = rng.integers(-8, 8, size=(rows, 30))
        allocation = pool.set_matrix(matrix, element_size=4)
        assert (allocation.num_shards > 1) == (rows == 100)
        vector = rng.integers(0, 8, size=rows)
        out = pool.exec_mvm_batch(allocation, vector, input_bits=3)
        assert out.shape == (1, 30) and np.array_equal(out[0], vector @ matrix)
        out = pool.exec_mvm_batch(allocation, list(vector), input_bits=3)
        assert np.array_equal(out[0], vector @ matrix)
        empty = pool.exec_mvm_batch(
            allocation, np.zeros((0, rows), dtype=np.int64), input_bits=3
        )
        assert empty.shape == (0, 30) and empty.dtype == np.int64
        for bad in (np.zeros(rows + 1, dtype=np.int64), np.int64(3)):
            with pytest.raises(QuantizationError, match="does not match matrix rows"):
                pool.exec_mvm_batch(allocation, bad, input_bits=3)

    def test_total_ledger_aggregates_devices(self, rng):
        pool = tiny_pool()
        matrix = rng.integers(-8, 8, size=(100, 30))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        pool.exec_mvm_batch(allocation, rng.integers(0, 8, size=(4, 100)), input_bits=3)
        snapshot = pool.total_ledger().snapshot()
        assert snapshot.cycles > 0
        assert snapshot.energy_pj > 0
        # No double counting: the pool ledger is exactly the chips' ledgers
        # (device.ledger holds runtime-level *copies* of the same charges).
        chip_energy = sum(
            d.chip.total_ledger().snapshot().energy_pj for d in pool.devices
        )
        assert snapshot.energy_pj == pytest.approx(chip_energy)


class TestClose:
    """`close()` is a harmless no-op: the pool owns no threads."""

    def test_close_is_idempotent(self, rng):
        pool = tiny_pool()
        matrix = rng.integers(-8, 8, size=(100, 30))
        allocation = pool.set_matrix(matrix, element_size=4)
        vectors = rng.integers(0, 8, size=(2, 100))
        pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        pool.close()
        pool.close()  # second close must be a no-op, not an error
        pool.close()
        # The pool stays usable.
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        pool.close()

    def test_close_safe_after_failed_fanout(self, rng):
        pool = tiny_pool(num_devices=3)
        matrix = rng.integers(-8, 8, size=(120, 30))
        allocation = pool.set_matrix(matrix, element_size=4)
        assert len(allocation.devices_used) > 1
        failing = allocation.devices_used[0]
        original = pool.devices[failing].exec_mvm_batch

        def boom(*args, **kwargs):
            raise RuntimeError("injected device fault")

        pool.devices[failing].exec_mvm_batch = boom
        vectors = rng.integers(0, 8, size=(2, 120))
        with pytest.raises(RuntimeError, match="injected device fault"):
            pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        pool.close()
        pool.close()
        pool.devices[failing].exec_mvm_batch = original
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        pool.close()

    def test_context_manager_closes_even_on_error(self, rng):
        matrix = rng.integers(-8, 8, size=(100, 30))
        vectors = rng.integers(0, 8, size=(2, 100))
        with pytest.raises(RuntimeError, match="sentinel"):
            with tiny_pool() as pool:
                allocation = pool.set_matrix(matrix, element_size=4)
                pool.exec_mvm_batch(allocation, vectors, input_bits=3)
                raise RuntimeError("sentinel")
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)


class TestFanout:
    """A multi-device call walks its devices on the calling thread."""

    @pytest.mark.parametrize("noise", [None, NoiseConfig.paper_default()],
                             ids=["exact_path", "general_path"])
    def test_multi_device_call_starts_no_thread(self, noise):
        import threading

        threads = threading.active_count()
        config = ChipConfig(hct=HctConfig.small(), num_hcts=3)
        with DevicePool(num_devices=3, config=config, noise=noise) as pool:
            rng = derive_rng("pool-fanout")
            matrix = rng.integers(-8, 8, size=(120, 30))
            allocation = pool.set_matrix(matrix, element_size=4)
            assert len(allocation.devices_used) > 1
            vectors = rng.integers(0, 8, size=(4, 120))
            out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
            pool.exec_mvm(allocation, vectors[0], input_bits=3)
            assert threading.active_count() == threads
            if noise is None:
                assert np.array_equal(out, vectors @ matrix)


class _ScriptedPolicy(PlacementPolicy):
    """Places copy ``n`` of an allocation on ``devices[n]`` (band-major)."""

    name = "scripted"

    def __init__(self, devices):
        self._devices = devices

    def choose(self, free, needed, placed_devices):
        index = self._devices[len(placed_devices)]
        return index if free[index] >= needed else None


class TestBandLoop:
    """The order in which one call's bands reach each device, and in which
    failed copies are retried: sequences and counters captured at PR 17
    (``aa4798b``), before the request list under the loop was removed."""

    #: Band position -> (primary, replica) device; bands 0 and 1 share the
    #: replica device 2, band 2 never fails.
    LAYOUT = (1, 2, 0, 2, 3, 1)

    def _pool(self, verify="off"):
        pool = DevicePool(
            num_devices=4, config=ChipConfig(hct=HctConfig.small(), num_hcts=2),
            policy=_ScriptedPolicy(self.LAYOUT), replication=2, verify=verify,
        )
        rng = derive_rng("pool-band-loop")
        matrix = rng.integers(-8, 8, size=(48, 16))
        allocation = pool.set_matrix(matrix, element_size=4)
        assert [tuple(task.device_index for task in copies)
                for copies in allocation.bands] == [(1, 2), (0, 2), (3, 1)]
        bands = {id(task.device_allocation): task.position
                 for task in allocation.all_tasks}
        calls = []
        for index, device in enumerate(pool.devices):
            def recorded(device_allocation, vectors, *, _index=index,
                         _call=device.exec_mvm_batch, **kwargs):
                calls.append((_index, bands[id(device_allocation)]))
                return _call(device_allocation, vectors, **kwargs)

            device.exec_mvm_batch = recorded
        vectors = rng.integers(0, 8, size=(5, 48))
        return pool, FaultInjector().attach(pool), allocation, matrix, vectors, calls

    @staticmethod
    def _counters(pool):
        return (pool.replica_hits, pool.replica_retries, pool.device_failures,
                pool.integrity_reexecutions)

    def test_two_bands_retry_onto_one_replica_device(self):
        pool, injector, allocation, matrix, vectors, calls = self._pool()
        injector.kill(0)
        injector.kill(1)
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        # Band 2 runs in the first wave; the retries reach device 2 in the
        # order their first copies failed (device 0's band 1, then device
        # 1's band 0), not in band order.
        assert calls == [(3, 2), (2, 1), (2, 0)]
        assert self._counters(pool) == (0, 2, 2, 0)
        # Both dead devices are marked now: first choice is the replica, and
        # a first wave reaches a device in band order.
        del calls[:]
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        assert calls == [(2, 0), (2, 1), (3, 2)]
        assert self._counters(pool) == (2, 2, 2, 0)

    def test_corrupted_partials_reexecute_in_the_same_order(self):
        pool, injector, allocation, matrix, vectors, calls = self._pool("full")
        injector.corrupt(0)
        injector.corrupt(1)
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        assert calls == [(0, 1), (1, 0), (3, 2), (2, 1), (2, 0)]
        assert self._counters(pool) == (0, 0, 0, 2)
        assert pool.corruptions_detected == 2 and pool.failed_devices == []

    def test_first_exhausted_band_in_failure_order_is_raised(self):
        pool, injector, allocation, _, vectors, calls = self._pool()
        for device_index in (0, 1, 2):
            injector.kill(device_index)
        with pytest.raises(DeviceFailedError) as raised:
            pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        # Bands 1 and 0 both ran out of copies on device 2; band 1 failed
        # first (its primary sat on the lower device), so it is reported.
        assert (raised.value.kind, raised.value.device_index) == ("exhausted", 2)
        assert str(raised.value) == (
            "every replica of band 1 of allocation 0 has failed "
            "(tried devices [0, 2])"
        )
        assert calls == [(3, 2)]
        assert self._counters(pool) == (0, 2, 3, 0)
        assert pool.failed_devices == [0, 1, 2]


class TestEnergyTotals:
    def test_total_energy_pj_is_bit_identical_to_the_ledger_merge(self):
        rng = derive_rng("pool-energy")
        pool = DevicePool(num_devices=2)
        allocation = pool.set_matrix(
            rng.integers(-20, 20, size=(24, 8)), element_size=8
        )
        assert pool.total_energy_pj() == pool.total_ledger().energy_pj
        vectors = rng.integers(0, 16, size=(6, 24))
        pool.exec_mvm_batch(allocation, vectors, input_bits=4)
        assert pool.total_energy_pj() == pool.total_ledger().energy_pj
