"""DevicePool scheduling, sharding, and accounting edge cases."""

from __future__ import annotations

import hashlib
import warnings
from contextlib import closing

import numpy as np
import pytest
from layerbench import workloads

from repro.testing import derive_rng

from repro.core import ChipConfig, HctConfig
from repro.errors import (
    AllocationError,
    DeviceFailedError,
    NoDevicesError,
    QuantizationError,
    RebuildError,
)
from repro.reram import NoiseConfig
from repro.runtime import DarthPumDevice, DevicePool, FaultInjector, PumServer
from repro.runtime import pool as pool_module


@pytest.fixture
def rng():
    return derive_rng("pool")


def tiny_pool(num_devices=3, num_hcts=3):
    """A pool of small chips so sharding kicks in at test-friendly sizes."""
    config = ChipConfig(hct=HctConfig.small(), num_hcts=num_hcts)
    return DevicePool(num_devices=num_devices, config=config)


class TestScheduling:
    def test_most_free_spreads_matrices(self):
        pool = tiny_pool()
        first = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        second = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        third = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert first.devices_used == [0]
        assert second.devices_used == [1]
        assert third.devices_used == [2]

    def test_most_free_alternates_between_equal_devices(self):
        pool = tiny_pool(num_devices=2)
        placements = [
            pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4).devices_used
            for _ in range(4)
        ]
        assert placements == [[0], [1], [0], [1]]

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


class TestMostFreeDevice:
    """The pool's one placement rule, and the replica step built on it."""

    def test_takes_the_device_with_the_most_free_hcts(self):
        assert pool_module.most_free_device([2, 5, 3], 1) == 1

    def test_a_tie_goes_to_the_lowest_index(self):
        assert pool_module.most_free_device([3, 5, 5, 1], 2) == 1

    def test_a_device_with_exactly_the_needed_room_fits(self):
        assert pool_module.most_free_device([1, 2, 0], 2) == 1

    def test_none_when_no_device_fits(self):
        assert pool_module.most_free_device([1, 1], 2) is None
        assert pool_module.most_free_device([], 1) is None
        # A masked-out device (-1) is never chosen, even for a zero-HCT band.
        assert pool_module.most_free_device([-1, -1], 0) is None

    def test_replicas_land_on_distinct_devices_and_are_charged(self):
        free = [4, 4, 4]
        assert tiny_pool()._choose_devices(free, 2, 2) == [0, 1]
        assert free == [2, 2, 4]

    def test_barred_devices_are_skipped(self):
        free = [4, 4, 4]
        assert tiny_pool()._choose_devices(free, 2, 2, barred=(0,)) == [1, 2]
        assert free == [4, 2, 2]

    def test_fewer_copies_come_back_when_room_runs_out(self):
        free = [2, 1, 0]
        assert tiny_pool()._choose_devices(free, 2, 2) == [0]
        assert free == [0, 1, 0]


class TestMostFreeOverflow:
    def test_a_matrix_too_big_for_one_device_spreads_over_several(self, rng):
        pool = tiny_pool(num_devices=3)
        big = rng.integers(-8, 8, size=(100, 30))  # needs more than one chip
        allocation = pool.set_matrix(big, element_size=4, precision=0)
        assert len(allocation.devices_used) > 1
        vectors = rng.integers(0, 8, size=(4, 100))
        assert np.array_equal(
            pool.exec_mvm_batch(allocation, vectors, input_bits=3), vectors @ big
        )


class TestMostFreeChurn:
    """Most-free placement across repeated register/release cycles.

    Serving reality is a churn of re-registrations and releases, and the
    placement must stay stable -- and leak no capacity -- through it.
    """

    def test_a_reregistered_matrix_returns_to_its_device(self):
        pool = tiny_pool()
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        home = allocation.devices_used
        for generation in range(8):
            previous = allocation
            pool.release(previous)
            allocation = pool.set_matrix(
                np.full((8, 8), generation, dtype=np.int64) % 4,
                element_size=4,
            )
            assert allocation.devices_used == home, \
                f"update {generation} migrated to another device"

    def test_release_restores_capacity(self):
        """Churn must not leak: capacity returns fully after each cycle."""
        pool = tiny_pool()
        for _ in range(6):
            allocation = pool.set_matrix(
                np.eye(8, dtype=np.int64), element_size=4
            )
            assert any(u > 0 for u in pool.utilization())
            pool.release(allocation)
            assert pool.utilization() == [0.0] * pool.num_devices
        assert pool.allocations == []

    def test_a_full_device_spills_to_the_other_until_a_release(self):
        pool = tiny_pool(num_devices=2)
        first = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        home = first.devices_used[0]
        # Fill the first matrix's device, then place one more.
        fillers = []
        while pool.free_hcts(home) > 0:
            fillers.append(
                pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
            )
        overflow = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert overflow.devices_used == [1 - home]  # fell back, not failed
        # Releasing a filler re-opens the first device for the next cycle.
        pool.release(fillers[-1])
        back_home = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert back_home.devices_used == [home]

    def test_the_bands_of_one_matrix_visit_each_device_once(self, rng):
        """A device takes one run of consecutive bands, never two."""
        pool = tiny_pool(num_devices=3)
        big = rng.integers(-8, 8, size=(100, 30))
        allocation = pool.set_matrix(big, element_size=4, precision=0)
        assert allocation.num_shards > 1
        ordered = [task.device_index for task in allocation.all_tasks]
        # The device sequence is runs, one per device used, not alternation.
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

    def test_replicas_fit_where_packed_bands_would_not(self, rng):
        """Each copy goes where the most HCTs are free, so three one-HCT
        bands x 2 replicas fill three 2-HCT chips exactly.  (Packing later
        bands onto earlier bands' devices, the old cache-affinity rule,
        left no distinct device for the last replica and refused this
        matrix with AllocationError.)"""
        pool = DevicePool(num_devices=3, config=ChipConfig(hct=HctConfig.small(), num_hcts=2),
                          replication=2)
        matrix = rng.integers(-8, 8, size=(48, 8))
        allocation = pool.set_matrix(matrix, element_size=4)
        assert [tuple(task.device_index for task in copies)
                for copies in allocation.bands] == [(0, 1), (2, 0), (1, 2)]
        vectors = rng.integers(0, 8, size=(4, 48))
        assert np.array_equal(pool.exec_mvm_batch(allocation, vectors, input_bits=3),
                              vectors @ matrix)

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

    def test_rebuild_programs_the_registered_matrix_not_the_callers_buffer(self, rng):
        """The pool keeps its own copy: a caller that reuses the buffer it
        registered from does not change what a rebuild programs."""
        pool = DevicePool(num_devices=3, config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
                          replication=2)
        buffer = rng.integers(-8, 8, size=(8, 8))
        matrix = buffer.copy()
        allocation = pool.set_matrix(buffer, element_size=4)
        buffer[...] = 0
        first, second = (task.device_index for task in allocation.bands[0])
        pool.mark_device_failed(first)
        assert pool.rebuild(allocation).copies_programmed
        pool.mark_device_failed(second)  # only the rebuilt copy is left
        vectors = rng.integers(0, 8, size=(4, 8))
        assert np.array_equal(pool.exec_mvm_batch(allocation, vectors, input_bits=3),
                              vectors @ matrix)

    def test_update_matrix_rewrites_every_copy_in_place(self, rng):
        pool = DevicePool(num_devices=3, config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
                          replication=2, verify="full")
        allocation = pool.set_matrix(rng.integers(-8, 8, size=(8, 8)), element_size=4)
        tasks = allocation.all_tasks
        new = rng.integers(-7, 8, size=(8, 8))
        pool.update_matrix(allocation, new)
        assert all(a is b for a, b in zip(allocation.all_tasks, tasks))
        # The checksums follow the values: verify="full" passes every band.
        vectors = rng.integers(0, 8, size=(4, 8))
        assert np.array_equal(pool.exec_mvm_batch(allocation, vectors, input_bits=3),
                              vectors @ new)
        assert pool.corruptions_detected == 0
        with pytest.raises(QuantizationError, match="shape"):
            pool.update_matrix(allocation, new[:, :6])
        pool.mark_device_failed(tasks[1].device_index)
        with pytest.raises(DeviceFailedError):
            pool.update_matrix(allocation, new + 1)
        assert np.array_equal(allocation.matrix, new)

    def test_a_refused_update_changes_no_copy(self, rng):
        """Out of range in the last rows only: refused before the first
        band's copies (pool) or the first tile (device) is written, so a
        verified call still finds every copy, checksum and the retained
        source as they were."""
        config = ChipConfig(hct=HctConfig.small(), num_hcts=3)
        pool = DevicePool(num_devices=3, config=config, replication=2, verify="full")
        device = DarthPumDevice(config=config)
        for shape, store, update, call in (
            ((64, 8), pool.set_matrix, pool.update_matrix, pool.exec_mvm_batch),
            ((40, 8), device.set_matrix, device.update_matrix, device.exec_mvm_batch),
        ):
            matrix = rng.integers(-8, 8, size=shape)
            allocation = store(matrix, element_size=4)
            bad = rng.integers(-8, 8, size=shape)
            bad[-1, -1] = 99
            with pytest.raises(QuantizationError, match="magnitude exceeds 8"):
                update(allocation, bad)
            vectors = rng.integers(0, 8, size=(4, shape[0]))
            assert np.array_equal(call(allocation, vectors, input_bits=3), vectors @ matrix)
            assert np.array_equal(allocation.matrix, matrix)
        # Four bands at the pool, three tiles at the device: a check per
        # band or per tile would have rewritten the first ones.
        assert allocation.placement.tiles[-1].row_start > 0
        assert pool.corruptions_detected == 0

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
        sizes = {task.row_end - task.row_start for task in allocation.tasks}
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

    @staticmethod
    def _target(rng, level):
        """``(pool, target, allocation, matrix)``: the pool or, at ``level``
        ``"device"``, the device holding the one band, and what it calls."""
        rows = 100 if level == "sharded" else 8
        pool = tiny_pool()
        matrix = rng.integers(-8, 8, size=(rows, 30))
        allocation = pool.set_matrix(matrix, element_size=4)
        if level != "device":
            return pool, pool, allocation, matrix
        (task,) = allocation.tasks
        return pool, pool.devices[task.device_index], task.device_allocation, matrix

    @staticmethod
    def _refused(pool, target, allocation, matrix, rng, bad, message):
        """Each of ``bad`` raises ``message`` before anything is charged,
        and a good batch is served afterwards."""
        before = pool.total_ledger().snapshot()
        for vectors in bad:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no "invalid value in cast"
                with pytest.raises(QuantizationError, match=message):
                    target.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert pool.total_ledger().snapshot() == before
        vectors = rng.integers(0, 8, size=(2, matrix.shape[0]))
        out = target.exec_mvm_batch(allocation, vectors.astype(np.uint8), input_bits=3)
        assert np.array_equal(out, vectors @ matrix)

    @pytest.mark.parametrize("level", ["device", "one_band", "sharded"])
    def test_float_batches_are_refused_not_truncated(self, rng, level):
        """``[[0.5] * rows]`` was served as zeros."""
        pool, target, allocation, matrix = self._target(rng, level)
        rows = matrix.shape[0]
        bad = ([[0.5] * rows], np.full((2, rows), 3.0), np.full((2, rows), np.nan))
        self._refused(pool, target, allocation, matrix, rng, bad, "must be integers")
        with pytest.raises(QuantizationError, match="must be integers"):
            target.exec_mvm(allocation, [0.5] * rows, input_bits=3)

    @pytest.mark.parametrize("level", ["device", "one_band", "sharded"])
    def test_a_three_d_batch_is_refused_typed(self, rng, level):
        """A ``(batch, rows, k)`` block passes a check of its second axis and
        used to die broadcasting inside the contraction (``ValueError``)."""
        pool, target, allocation, matrix = self._target(rng, level)
        bad = (np.ones((2, matrix.shape[0], 3), dtype=np.int64),
               np.ones((2, matrix.shape[0], 1), dtype=np.int64))
        self._refused(pool, target, allocation, matrix, rng, bad,
                      "does not match matrix rows")

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


class TestFanout:
    """A multi-device call walks its devices on the calling thread."""

    @pytest.mark.parametrize("noise", [None, NoiseConfig.paper_default()],
                             ids=["exact_path", "general_path"])
    def test_multi_device_call_starts_no_thread(self, noise):
        import threading

        threads = threading.active_count()
        config = ChipConfig(hct=HctConfig.small(), num_hcts=3)
        with closing(DevicePool(num_devices=3, config=config, noise=noise)) as pool:
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


def _scripted_placement(devices):
    """A stand-in for the pool's placement rule that places copy ``n`` of
    an allocation on ``devices[n]`` (band-major).  A refusal starts the
    count again: the pool then plans anew, with more bands."""
    placed = []

    def choose(free, needed):
        index = devices[len(placed)]
        if free[index] < needed:
            placed.clear()
            return None
        placed.append(index)
        return index

    return choose


class TestBandLoop:
    """The order in which one call's bands reach each device, and in which
    failed copies are retried: sequences and counters captured at PR 17
    (``aa4798b``), before the request list under the loop was removed."""

    #: Band position -> (primary, replica) device; bands 0 and 1 share the
    #: replica device 2, band 2 never fails.
    LAYOUT = (1, 2, 0, 2, 3, 1)

    def _pool(self, monkeypatch, verify="off"):
        monkeypatch.setattr(pool_module, "most_free_device",
                            _scripted_placement(self.LAYOUT))
        pool = DevicePool(
            num_devices=4, config=ChipConfig(hct=HctConfig.small(), num_hcts=2),
            replication=2, verify=verify,
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

    def test_two_bands_retry_onto_one_replica_device(self, monkeypatch):
        pool, injector, allocation, matrix, vectors, calls = self._pool(monkeypatch)
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

    def test_corrupted_partials_reexecute_in_the_same_order(self, monkeypatch):
        pool, injector, allocation, matrix, vectors, calls = self._pool(monkeypatch, "full")
        injector.corrupt(0)
        injector.corrupt(1)
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        assert calls == [(0, 1), (1, 0), (3, 2), (2, 1), (2, 0)]
        assert self._counters(pool) == (0, 0, 0, 2)
        assert pool.corruptions_detected == 2 and pool.failed_devices == []

    def test_first_exhausted_band_in_failure_order_is_raised(self, monkeypatch):
        pool, injector, allocation, _, vectors, calls = self._pool(monkeypatch)
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
        """``mvm_energy_units()`` is, to the unit, what the pool's MVM calls
        charged the tiles of its chips -- programming is not in it."""
        rng = derive_rng("pool-energy")
        pool = DevicePool(num_devices=2)
        allocation = pool.set_matrix(
            rng.integers(-20, 20, size=(24, 8)), element_size=8
        )
        programmed = pool.total_ledger().energy_units
        assert programmed > 0 and pool.mvm_energy_units() == 0
        vectors = rng.integers(0, 16, size=(6, 24))
        pool.exec_mvm_batch(allocation, vectors, input_bits=4)
        pool.exec_mvm(allocation, vectors[0], input_bits=4)
        executed = pool.total_ledger().energy_units - programmed
        assert executed > 0 and pool.mvm_energy_units() == executed
        assert pool.mvm_energy_units() == sum(
            device.ledger.energy_units for device in pool.devices
        )


class TestPlacementDigest:
    """Where every copy of every matrix lands, pinned.

    A fixed-seed sequence of ``set_matrix`` (mixed shapes, multi-band ones
    among them), ``release``, ``update_matrix`` and ``mark_device_failed``
    + ``rebuild`` + ``restore_device`` on four small chips.  ``EXPECTED``
    hashes, after every step, each live allocation's copies (band, replica,
    device, rows) and any error a step raised; it was computed at
    ``23d00ef``, before the placement rules' ``bind`` hook was removed,
    under the ``least_loaded`` rule -- the one the pool has kept, which
    never read the affinity hints the sequence still draws -- and must not
    move.
    """

    SHAPES = ((8, 8), (16, 12), (100, 30), (40, 20), (64, 16))
    EXPECTED = {
        ("least_loaded", 1): (
            "d0e35a6d47c59cdc9c9213de6526cda394431b2d1a183ff394b5c6a9e0942987"
        ),
        ("least_loaded", 2): (
            "9cfa89b726b5b2844baecdb0334e8d73308fe2d787a0abf93ea4a57772e0f292"
        ),
    }

    @staticmethod
    def _state(pool):
        return [
            (allocation.allocation_id,
             [(task.position, task.replica, task.device_index,
               task.row_start, task.row_end) for task in allocation.all_tasks])
            for allocation in sorted(pool.allocations,
                                     key=lambda a: a.allocation_id)
        ]

    def _trace(self, replication):
        pool = DevicePool(
            num_devices=4, config=ChipConfig(hct=HctConfig.small(), num_hcts=8),
            replication=replication,
        )
        rng = np.random.default_rng(2026)
        live, trace = [], []

        def record(step, op, outcome):
            trace.append((step, op, outcome, self._state(pool)))

        for step in range(80):
            op = int(rng.integers(0, 10))
            if op < 4 or not live:
                rows, cols = self.SHAPES[rng.integers(len(self.SHAPES))]
                if live and op == 0:
                    rng.integers(len(live))  # the old affinity hint's draw
                try:
                    live.append(pool.set_matrix(
                        rng.integers(-8, 8, size=(rows, cols)), element_size=4,
                    ))
                except AllocationError as error:
                    record(step, op, type(error).__name__)
                    continue
            elif op < 7:
                pool.release(live.pop(rng.integers(len(live))))
            elif op < 9:
                allocation = live[rng.integers(len(live))]
                pool.update_matrix(
                    allocation, rng.integers(-8, 8, size=allocation.shape))
            else:
                device_index = int(rng.integers(pool.num_devices))
                pool.mark_device_failed(device_index)
                for allocation in list(live):
                    try:
                        pool.rebuild(allocation)
                    except RebuildError as error:
                        record(step, op, type(error).__name__)
                        pool.release(allocation)
                        live.remove(allocation)
                pool.restore_device(device_index)
            record(step, op, None)
        return trace

    @pytest.mark.parametrize("replication", [1, 2])
    # One rule is left; the id still names it, as the hashes were computed.
    @pytest.mark.parametrize("policy", ["least_loaded"])
    def test_placement_digest(self, policy, replication):
        trace = self._trace(replication)
        digest = hashlib.sha256(repr(trace).encode()).hexdigest()
        assert digest == self.EXPECTED[(policy, replication)]


def _module_from(path):
    """Import the Python file at ``path`` (repository-relative) by path."""
    import importlib.util
    from pathlib import Path

    location = Path(__file__).resolve().parent.parent / path
    spec = importlib.util.spec_from_file_location(location.stem, location)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWorkloadPlacement:
    """Where every layout a run builds lands, each pool built by its own
    caller (layerbench's ``pool_sharded``, ``server_deep_queue`` and
    ``tenant_churn``, the quickstart example, ``python -m repro.plan``, the
    shape-alternating registration probe beside other tenants, and
    ``benchmarks/test_recovery.py``'s server).

    ``EXPECTED`` hashes each layout's copies (band, replica, device, rows),
    per allocation, after every placement step; it was computed at
    ``682fcf0``, while the pool still took a placement policy (the
    examples' and layerbench's default ``least_loaded``, ``PumServer``'s
    ``cache_affinity``, ``repro.plan``'s ``round_robin``), and must not
    move: every rule placed these layouts the same.
    """

    EXPECTED = "c9ebfaef61c3d504f21def579f80a052fc3c96e8a1229c5c801f665e1829508a"

    @staticmethod
    def _layout(pool):
        return [
            [(task.position, task.replica, task.device_index,
              task.row_start, task.row_end) for task in allocation.all_tasks]
            for allocation in sorted(pool.allocations,
                                     key=lambda a: a.allocation_id)
        ]

    def _layouts(self, capsys, monkeypatch):
        layouts = {}

        sharded = workloads.PoolSharded(12345)
        pool = sharded.make_pool()
        pool.set_matrix(sharded.matrix, element_size=sharded.ELEMENT_SIZE)
        layouts["pool_sharded"] = self._layout(pool)

        # The quickstart example's pool, as examples/quickstart.py builds it.
        pool = DevicePool(num_devices=3,
                          config=ChipConfig(hct=HctConfig.small(), num_hcts=3))
        pool.set_matrix(derive_rng("quickstart").integers(-8, 8, size=(100, 30)),
                        element_size=4, precision=0)
        layouts["quickstart"] = self._layout(pool)

        # ``python -m repro.plan`` builds its pool inside ``main``.
        from repro.plan.__main__ import main
        from repro.runtime import pool as pool_module

        built = []

        class Recorded(pool_module.DevicePool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(pool_module, "DevicePool", Recorded)
        main()
        capsys.readouterr()
        monkeypatch.undo()
        (pool,) = built
        layouts["repro.plan"] = self._layout(pool)

        deep = workloads.ServerDeepQueue(12345)
        server = deep.make_server()
        for tenant, matrix in enumerate(deep.matrices):
            server.register_matrix(f"t{tenant}", matrix,
                                   element_size=deep.ELEMENT_SIZE,
                                   input_bits=deep.INPUT_BITS)
        layouts["server_deep_queue"] = self._layout(server.pool)

        churn = workloads.TenantChurn(12345)
        churn.setup()
        rounds = [self._layout(churn.server.pool)]
        for k in range(1, 5):
            churn.step(k)
            rounds.append(self._layout(churn.server.pool))
        layouts["tenant_churn"] = rounds

        # The shape-alternating registration probe: 64x64 and 64x48 4-bit
        # in turn, new bytes every round, so every round releases and
        # places anew; three tenants sit beside it.
        rng = derive_rng("registration-probe")
        server = PumServer(num_devices=2)
        for tenant, shape in enumerate(((16, 16), (64, 64), (32, 24))):
            server.register_matrix(f"other{tenant}",
                                   rng.integers(-8, 8, size=shape),
                                   element_size=4, input_bits=4)
        rounds = []
        for k in range(6):
            shape = ((64, 64), (64, 48))[k % 2]
            server.register_matrix("t", rng.integers(-8, 8, size=shape),
                                   element_size=4, input_bits=4)
            rounds.append(self._layout(server.pool))
        layouts["registration_probe"] = rounds

        recovery = _module_from("benchmarks/test_recovery.py")
        layouts["test_recovery"] = self._layout(recovery.build_server().pool)
        return layouts

    def test_workload_placement_digest(self, capsys, monkeypatch):
        layouts = self._layouts(capsys, monkeypatch)
        # The readable core of the pin: (primary, replica) per band of
        # pool_sharded, and the device of each band of the other sharded
        # layouts.
        (sharded,) = layouts["pool_sharded"]
        assert [(sharded[band][2], sharded[band + 1][2])
                for band in (0, 2)] == [(0, 1), (2, 3)]
        for name in ("quickstart", "repro.plan"):
            assert [task[2] for task in layouts[name][0]] == [0, 1, 2]
        digest = hashlib.sha256(repr(sorted(layouts.items())).encode()).hexdigest()
        assert digest == self.EXPECTED
