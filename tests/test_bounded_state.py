"""Bounded state: steady traffic and registration churn leave no residue.

Two properties of the one-record-per-matrix design, checked from outside
by walking the live object graph rather than by naming private dicts:

* a long run of identical work (pool dispatches, server re-registrations)
  leaves heap bytes and container sizes flat after a warm-up -- nothing
  appends per call;
* once a matrix is released or its name re-registered with new bytes,
  nothing reachable from the pool or the server still refers to the old
  allocation;
* nothing in a chip's object graph is a reference cycle, so dropping the
  last reference frees it at once, without the cycle collector.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest

from repro import (
    ChipConfig,
    DarthPumDevice,
    DevicePool,
    HctConfig,
    PumServer,
    StaticBatchingPolicy,
)
from repro.plan import DevicePlan
from repro.plan.backends import default_backend
from repro.plan.planner import Planner
from repro.testing import derive_rng

ROUNDS = 300


def reachable(root):
    """Every object reachable from ``root`` through attributes and containers.

    Descends into instance ``__dict__``/``__slots__``, dicts (keys and
    values) and sequences/sets; NumPy arrays are yielded but not entered.
    """
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, np.ndarray) or callable(obj):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for klass in type(obj).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return list(seen.values())


def container_entries(root) -> int:
    """Entries held by every growable container reachable from ``root``.

    Sliding telemetry windows (deques with a ``maxlen``) are bounded by
    construction and still filling during a short test, so they are left
    out.
    """
    return sum(
        len(obj) for obj in reachable(root)
        if isinstance(obj, (dict, list, set))
        or (isinstance(obj, deque) and obj.maxlen is None)
    )


def heap_growth(step, rounds: int = ROUNDS, settle: int = 4) -> int:
    """Bytes of traced heap gained by ``rounds`` further calls of ``step``.

    Tracing starts ``settle`` calls early so the working set a call
    reallocates (a re-registration's fresh arrays) is already traced when
    the baseline is read; only what *accumulates* counts as growth.
    """
    gc.collect()
    tracemalloc.start()
    try:
        for index in range(settle):
            step(index)
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for index in range(settle, settle + rounds):
            step(index)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before


def small_chip(num_hcts: int) -> ChipConfig:
    return ChipConfig(hct=HctConfig.small(), num_hcts=num_hcts)


def tile_plans(pool, allocation, input_bits: int):
    """The compiled tile-level plans behind every copy of every band."""
    return [
        plan
        for task in allocation.all_tasks
        for plan in pool.devices[task.device_index].compile(
            task.device_allocation, input_bits=input_bits
        )
    ]


def device_plans(pool, allocation, input_bits: int):
    """The device plan of every copy of every band (compiled if need be)."""
    return [
        pool.devices[task.device_index].device_plan(task.device_allocation, input_bits)
        for task in allocation.all_tasks
    ]


class TestSteadyStateIsFlat:
    def test_pool_dispatch_appends_nothing_per_call(self):
        # The layerbench ``pool_sharded`` shape: 2 bands x 2 replicas over
        # 4 chips, ABFT on, batch 32.
        rng = derive_rng("bounded-pool")
        with DevicePool(num_devices=4, config=small_chip(8), replication=2,
                        verify="full") as pool:
            matrix = rng.integers(-8, 8, size=(256, 16))
            allocation = pool.set_matrix(matrix, element_size=4)
            assert (allocation.num_shards, allocation.replication) == (2, 2)
            vectors = rng.integers(0, 16, size=(32, 256))

            def step(_index):
                out = pool.exec_mvm_batch(allocation, vectors, input_bits=4)
                assert out.shape == (32, 16)

            for index in range(20):
                step(index)
            entries = container_entries(pool)
            # The op log this guards against grew 130 KB *per call*.
            assert heap_growth(step) < 256 * 1024
            assert container_entries(pool) == entries
            # The walk covers the device plans and their scratch: one
            # block on each primary, none on the idle replicas.
            plans = device_plans(pool, allocation, 4)
            live = {id(obj) for obj in reachable(pool)}
            assert all(id(plan) in live for plan in plans)
            if default_backend() == "vectorized":
                assert [len(plan.scratch) for plan in plans] == [1, 0, 1, 0]
            assert np.array_equal(
                pool.exec_mvm_batch(allocation, vectors, input_bits=4),
                vectors @ matrix,
            )

    def test_server_reregistration_churn_appends_nothing_per_round(self):
        rng = derive_rng("bounded-server")
        server = PumServer(pool=DevicePool(num_devices=2, config=small_chip(8)),
                           queue_capacity=256)
        versions = [rng.integers(-8, 8, size=(32, 32)) for _ in range(2)]
        vectors = rng.integers(0, 16, size=(16, 32))

        def step(index):
            # Rounds alternate new bytes (release + reprogram + compile)
            # and identical bytes (memo reuse), like ``tenant_churn``.
            matrix = versions[(index // 2) % 2]
            server.register_matrix("tenant", matrix, element_size=4,
                                   input_bits=4)
            futures = server.submit_batch("tenant", vectors, input_bits=4)
            server.run_until_idle()
            assert np.array_equal(futures[-1].result().result,
                                  vectors[-1] @ matrix)

        for index in range(8):
            step(index)
        entries = container_entries(server)
        reuses = server.registration_reuses
        # The only thing still filling is the stats' three bounded
        # 4096-entry telemetry windows (~100 KB in all).
        assert heap_growth(step) < 256 * 1024
        assert server.registration_reuses == reuses + (4 + ROUNDS) // 2
        assert container_entries(server) == entries
        assert server.matrix_names == ("tenant",)
        assert len(server.pool.allocations) == 1

    def test_a_dispatched_wave_is_not_kept_by_the_queue(self):
        """The queue's records are per wave, so a stale one would pin a whole
        array: once a wave's rows have all left, nothing under the server
        refers to it -- even while its group (and the group's lazy deadline
        heap, which the static policy never reads) lives on."""
        server = PumServer(pool=DevicePool(num_devices=1, config=small_chip(4)),
                           scheduling=StaticBatchingPolicy(8, 1000))
        server.register_matrix("m", np.eye(8, dtype=np.int64), input_bits=3)
        vectors = np.ones((8, 8), dtype=np.int64)
        futures = server.submit_batch("m", vectors, input_bits=3, deadline=50)
        waiting = server.submit_batch("m", vectors[:1].copy(), input_bits=3,
                                      deadline=900)
        source = weakref.ref(vectors)
        assert len(server.tick()) == 8  # the full batch went, one row waits
        assert all(f.done() for f in futures) and not waiting[0].done()
        del vectors, futures
        gc.collect()
        assert source() is None
        assert not any(obj is not None and getattr(obj, "deadline", None) == 50
                       for obj in reachable(server))
        for _ in range(60):  # past the first wave's deadline: nothing to shed
            assert server.tick() == []
        assert server.pending == 1 and server.stats.shed == 0

    def test_distinct_batch_sizes_fill_the_receipt_memo_then_stop(self):
        # Every tile plan memoises one batch receipt per batch size, and
        # every ACE one float scratch block per shape, both up to a bound:
        # a caller cycling through more sizes than either bound must find
        # the containers full, not growing.
        rng = derive_rng("bounded-receipts")
        with DevicePool(num_devices=2, config=small_chip(4), replication=2,
                        backend="vectorized") as pool:
            matrix = rng.integers(-8, 8, size=(32, 16))
            allocation = pool.set_matrix(matrix, element_size=4)
            plans = tile_plans(pool, allocation, 4)
            stacked = device_plans(pool, allocation, 4)
            bound = Planner.RECEIPT_BATCH_SIZES

            def step(index):
                batch = 1 + index % (bound + 40)
                vectors = np.ones((batch, 32), dtype=np.int64)
                out = pool.exec_mvm_batch(allocation, vectors, input_bits=4)
                assert np.array_equal(out, vectors @ matrix)

            for index in range(2 * (bound + 40)):
                step(index)
            entries = container_entries(pool)
            receipts = [len(plan.receipts) for plan in plans]
            assert max(receipts) == bound
            for index in range(bound + 40):
                step(index)
            assert container_entries(pool) == entries
            assert [len(plan.receipts) for plan in plans] == receipts
            # The primaries served every call: their scratch is full, too.
            assert max(len(plan.scratch) for plan in stacked) == \
                DevicePlan.SCRATCH_BATCH_SIZES


class TestNoStaleAllocationReferences:
    @staticmethod
    def _parts(allocation):
        """The allocation plus every object that only exists on its behalf."""
        tasks = allocation.all_tasks
        return {
            id(part): part for part in
            [allocation, *tasks, *(task.device_allocation for task in tasks)]
        }

    def _assert_forgotten(self, root, pool, allocation, parts):
        stale = [obj for obj in reachable(root) if id(obj) in parts]
        assert stale == []
        assert allocation not in pool.allocations
        assert not pool.integrity.covers(allocation.allocation_id)

    def test_release_forgets_the_allocation(self):
        rng = derive_rng("stale-pool")
        pool = DevicePool(num_devices=3, config=small_chip(2), replication=2,
                          policy="round_robin", verify="full")
        matrix = rng.integers(-8, 8, size=(48, 8))
        allocation = pool.set_matrix(matrix, element_size=4)
        pool.compile(allocation, input_bits=3)
        vectors = rng.integers(0, 8, size=(4, 48))
        assert np.array_equal(
            pool.exec_mvm_batch(allocation, vectors, input_bits=3),
            vectors @ matrix,
        )
        parts = self._parts(allocation)
        assert any(id(obj) in parts for obj in reachable(pool))
        # The compiled plans and the batch receipts memoised on them exist
        # only on the allocation's behalf too, and the walk reaches them.
        # (The step-walking reference backend never builds a receipt.)
        plans = tile_plans(pool, allocation, 3)
        receipts = [receipt for plan in plans for receipt in plan.receipts.values()]
        assert plans
        assert receipts or default_backend() == "reference"
        stacked = device_plans(pool, allocation, 3)
        assert all(plan is not None for plan in stacked)
        live = {id(obj) for obj in reachable(pool)}
        assert all(id(part) in live for part in [*plans, *receipts, *stacked])
        parts.update((id(part), part) for part in [*plans, *receipts, *stacked])
        pool.release(allocation)
        self._assert_forgotten(pool, pool, allocation, parts)
        assert pool.utilization() == [0.0, 0.0, 0.0]
        pool.close()

    def test_replacing_a_name_forgets_the_old_allocation(self):
        rng = derive_rng("stale-server")
        server = PumServer(pool=DevicePool(num_devices=2, config=small_chip(4)),
                           scheduling=StaticBatchingPolicy(4, 1))
        old_matrix = rng.integers(-8, 8, size=(8, 8))
        old = server.register_matrix("proj", old_matrix, element_size=4,
                                     input_bits=3)
        # Touch every per-name structure: cost memos, and the gather arena
        # (single submits of mixed priority cannot be sliced zero-copy).
        server.predicted_batch_cycles("proj", 3, 4)
        server.predicted_batch_energy_pj("proj", 3, 4)
        for priority in (0, 1, 0):
            server.submit("proj", np.ones(8, dtype=np.int64), input_bits=3,
                          priority=priority)
        server.run_until_idle()
        assert server.stats.gathered_batches >= 1
        parts = self._parts(old)
        entries = container_entries(server)

        new_matrix = old_matrix + 1
        new = server.register_matrix("proj", new_matrix, element_size=4,
                                     input_bits=3)
        assert new.allocation_id != old.allocation_id
        self._assert_forgotten(server, server.pool, old, parts)
        # The fresh record starts empty: the old name's arena and memos
        # went with it instead of being swept key by key.
        assert container_entries(server) < entries
        assert server.allocation_for("proj") is new
        future = server.submit("proj", np.ones(8, dtype=np.int64), input_bits=3)
        server.run_until_idle()
        assert np.array_equal(future.result().result,
                              np.ones(8, dtype=np.int64) @ new_matrix)


@pytest.fixture
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestDroppedChipIsFreedByReferenceCounting:
    """tile <-> planner and ACE plan cache <-> plan were the graph's only
    cycles; with both back-references weak, and none added by the device
    plan, the last ``del`` frees a chip and everything compiled for it."""

    @staticmethod
    def _program(owner, shape=(128, 16)):
        rng = derive_rng("refcount", shape)
        matrix = rng.integers(-8, 8, size=shape)
        allocation = owner.set_matrix(matrix, element_size=4)
        owner.compile(allocation, input_bits=4)
        vectors = rng.integers(0, 16, size=(8, shape[0]))
        assert np.array_equal(
            owner.exec_mvm_batch(allocation, vectors, input_bits=4),
            vectors @ matrix,
        )
        return allocation

    def test_del_device_frees_chip_tile_plans_and_device_plan(self, no_cycle_collector):
        device = DarthPumDevice(config=small_chip(8))
        allocation = self._program(device)
        refs = [weakref.ref(device.chip), weakref.ref(device.chip.hct(0)),
                weakref.ref(device.device_plan(allocation, 4))]
        refs += [weakref.ref(plan) for plan in device.compile(allocation, 4)]
        assert len(refs) == 3 + 8
        del device, allocation
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_a_plan_kept_past_its_device_fails_with_reference_error(self):
        device = DarthPumDevice(config=small_chip(8))
        matrix = derive_rng("refcount-kept").integers(-8, 8, size=(32, 16))
        allocation = device.set_matrix(matrix, element_size=4)
        used, unused = device.compile(allocation, 4)
        planner = device.chip.hct(allocation.hct_indices[0]).planner
        kernel = used.kernel
        del device, allocation
        # What the plan holds stays readable; what it would fetch is gone.
        assert used.kernel is kernel and used.num_steps == unused.num_steps
        with pytest.raises(ReferenceError):
            unused.kernel
        with pytest.raises(ReferenceError):
            planner.plan_for(used.handle, 4)

    def test_del_pool_after_close_frees_every_chip(self, no_cycle_collector):
        pool = DevicePool(num_devices=4, config=small_chip(8), replication=2,
                          verify="full")
        allocation = self._program(pool, (256, 16))
        refs = [weakref.ref(device.chip) for device in pool.devices]
        refs += [weakref.ref(plan) for plan in device_plans(pool, allocation, 4)]
        refs += [weakref.ref(plan) for plan in tile_plans(pool, allocation, 4)]
        assert len(refs) == 4 + 4 + 32
        pool.close()
        del pool, allocation
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_replacing_a_tenant_frees_its_plans(self, no_cycle_collector):
        server = PumServer(pool=DevicePool(num_devices=2, config=small_chip(8)),
                           queue_capacity=64)
        rng = derive_rng("refcount-tenant")
        matrix = rng.integers(-8, 8, size=(32, 32))
        old = server.register_matrix("tenant", matrix, element_size=4, input_bits=4)
        future = server.submit("tenant", np.ones(32, dtype=np.int64), input_bits=4)
        server.run_until_idle()
        assert np.array_equal(future.result().result, matrix.sum(axis=0))
        refs = [weakref.ref(plan) for plan in device_plans(server.pool, old, 4)]
        refs += [weakref.ref(plan) for plan in tile_plans(server.pool, old, 4)]
        refs.append(weakref.ref(old))
        assert all(ref() is not None for ref in refs)
        chips = [weakref.ref(device.chip) for device in server.pool.devices]
        del old, future
        server.register_matrix("tenant", matrix + 1, element_size=4, input_bits=4)
        assert [ref() for ref in refs] == [None] * len(refs)
        # The chips are the server's and stay; they go with it.
        assert all(chip() is not None for chip in chips)
        server.pool.close()
        del server
        assert [chip() for chip in chips] == [None, None]


class TestResolvedWaveIsFreedByReferenceCounting:
    """A wave's futures record outcomes per run and build a row's view or
    response on demand; neither is kept where it would close a cycle, and
    neither the futures nor a response reach the caller's input array."""

    @staticmethod
    def _server():
        server = PumServer(pool=DevicePool(num_devices=1, config=small_chip(4)),
                           scheduling=StaticBatchingPolicy(16, 1), queue_capacity=64)
        server.register_matrix("m", np.eye(8, dtype=np.int64), input_bits=3)
        return server

    def test_dropping_the_futures_of_a_read_round_frees_the_wave_state(
            self, no_cycle_collector):
        server = self._server()
        futures = server.submit_batch("m", np.ones((64, 8), dtype=np.int64), input_bits=3)
        resolved = server.run_until_idle()
        # Every way of reading: views, responses through both doors, columns.
        assert [f.result() for f in futures] == list(resolved)
        assert futures[-1] == futures[63] and not futures.columns()[0].any()
        state, row = weakref.ref(futures), weakref.ref(futures[5].result().result)
        del futures, resolved
        assert state() is None and row() is None

    def test_a_kept_response_does_not_keep_the_input_array(self, no_cycle_collector):
        server = self._server()
        vectors = np.ones((64, 8), dtype=np.int64)
        futures = server.submit_batch("m", vectors, input_bits=3)
        assert len(server.run_until_idle()) == 64
        kept = futures[40].result()
        source, state = weakref.ref(vectors), weakref.ref(futures)
        del vectors, futures
        assert source() is None and state() is None
        assert kept.ok and np.array_equal(kept.result, np.ones(8, dtype=np.int64))

    def test_pending_futures_do_not_keep_a_dispatched_source(self, no_cycle_collector):
        """The futures outlive the wave: once its last row has left the queue
        nothing reaches the caller's array, whoever still holds a future."""
        server = self._server()
        vectors = np.ones((16, 8), dtype=np.int64)
        futures = server.submit_batch("m", vectors, input_bits=3)
        source = weakref.ref(vectors)
        del vectors
        assert source() is not None and not futures[0].done()
        server.run_until_idle()
        assert source() is None and futures[0].done()
