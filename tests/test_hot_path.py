"""The execution hot path, guarded without a wall clock.

A steady-state ``exec_mvm_batch`` on the proven-exact path should cost about
one matmul, whatever the tile count.  Wall time cannot be asserted in
tier-1, so this file pins the deterministic proxies instead: how many
Python-level calls and ledger charges one call makes per tile, that the
per-plan batch-receipt memo is counted,
bounded and released with its plan, and that every rejected input is
rejected before any simulated state moves.  One tier up, a pooled call
should cost the device call plus a handful of frames (``TestPoolCall``), and
a served request the pool call plus a constant: ``TestServerRound`` budgets
the Python-level calls per request of a steady-state ``PumServer`` round and
of a tick with nothing due.  And one tier above that, a wave through the
cluster should cost two frames and one pass over its rows on each side:
``TestClusterWave`` budgets the profile events of each hop.  Off the exact
path, ``TestNoisyCall`` budgets what a call under read noise draws and
allocates: one generator call per crossbar, one sample per bitline sum,
and no block that scales with the shard.
"""

from __future__ import annotations

import asyncio
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import DarthPumDevice, DevicePool
from repro.core.config import HctConfig
from repro.core.hct import HybridComputeTile
from repro.errors import AllocationError, ExecutionError, QuantizationError
from repro.metrics import CostLedger
from repro.plan.planner import Planner
from repro.reram import NoiseConfig
from repro.testing import DEVICE_CALL_SHAPES, derive_rng, profiled_calls, server_round

BATCH = 32
#: Python-level calls of one steady-state call: a fixed part plus the
#: per-tile receipt replay (measured 26 / 52 / 117 at 1 / 3 / 8 tiles; the
#: per-tile loop this replaced took 35 / 89 / 224).
MAX_CALLS_FIXED, MAX_CALLS_PER_TILE = 20, 14
MAX_CHARGES_PER_TILE = 6
#: Python-level calls of one steady-state single-band pooled call, and how
#: many of them are the pool's own frames (measured 30 and 5: the front door,
#: the band loop, the copy selection, the device-call lambda and the
#: post-call check; 39 and 14 while a request list sat under the loop).
MAX_POOL_CALLS, MAX_POOL_FRAMES = 31, 5
#: Python-level calls per request of one server round, submit + drain
#: (measured 1.23 + 4.23 = 5.47 at one tenant, + 10 %; it was 1.23 + 4.80 =
#: 6.03 before the pool lost nine frames per batch, and 5.3 + 7.1 = 12.4
#: while the server kept a ``Request`` per row), and of one tick with an
#: empty queue (measured 9).  Per request that is one ``ServerFuture`` and one
#: ``Response`` constructor; the rest is per wave and per batch, most of it
#: the pool call.
MAX_SERVER_CALLS_PER_REQUEST = 6.0
MAX_IDLE_TICK_CALLS = 12
#: ``sys.setprofile`` events (Python calls + C calls -- a vectorised path
#: trades NumPy scalar C calls for a few comprehension frames, so either
#: alone would flatter or punish it) of one 16-row ``cluster_saturate`` wave,
#: per hop, measured + 10 %: gateway submit 56 + 41 (73 + 50 with a
#: ``create_future`` call per row and a JSON header), the worker's turn
#: outside its tick loop 86 + 120 (90 + 218 with a per-row RESULTS frame and
#: a per-array header), gateway resolve 39 + 68 (36 + 114 with a frozen
#: response and three NumPy scalar reads per row).
MAX_WAVE_EVENTS = {"gateway_submit": 107, "worker_outside_drain": 227,
                   "gateway_resolve": 118}
#: One steady-state call under ``NoiseConfig.paper_default()`` at batch 32:
#: label -> (generator draws = crossbars of the allocation, standard normals
#: = slices x input bits x batch x used columns, summed over tiles).  The
#: per-device draw this replaced took 2 x rows x cols per (crossbar, input
#: bit): 258 048 / 2 048 / 344 064 samples.
NOISY_CALL_DRAWS = {"resnet_conv": (18, 64512), "aes_mixcolumns": (1, 1024),
                    "encoder_projection": (6, 86016)}
#: ``tracemalloc`` peak of the third noisy ``encoder_projection`` call
#: (measured 147 KB: bit planes and results; 2 597 KB while every step of
#: the general path returned a fresh (slices, bits, batch, cols) block).
MAX_NOISY_CALL_PEAK_BYTES = 256 * 1024


def programmed_device(shape, element_size, input_bits, noise=None, config=None):
    rng = derive_rng("hot-path", shape)
    low = -(1 << (element_size - 1)) if element_size > 1 else -1
    matrix = rng.integers(low, max(1, -low), size=shape)
    vectors = rng.integers(0, 1 << input_bits, size=(BATCH, shape[0]), dtype=np.int64)
    device = DarthPumDevice(config=config, noise=noise)
    allocation = device.set_matrix(matrix, element_size=element_size, precision=0)
    device.compile(allocation, input_bits=input_bits)
    return device, allocation, matrix, vectors


class TestCallBudget:
    @pytest.mark.parametrize("label", sorted(DEVICE_CALL_SHAPES))
    def test_steady_state_exact_call_stays_within_budget(self, label, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        shape, element_size, input_bits, config = DEVICE_CALL_SHAPES[label]
        device, allocation, matrix, vectors = programmed_device(
            shape, element_size, input_bits, config=config
        )
        assert device.device_plan(allocation, input_bits) is not None
        for _ in range(2):  # first call compiles the kernel and the receipt
            device.exec_mvm_batch(allocation, vectors, input_bits=input_bits)
        planners = [device.chip.hct(i).planner for i in allocation.hct_indices]
        assert all(plan.kernel.exact for plan in device.compile(allocation, input_bits))
        hits = sum(planner.receipt_hits for planner in planners)

        out = []
        events = profiled_calls(lambda: out.append(
            device.exec_mvm_batch(allocation, vectors, input_bits=input_bits)
        ))
        names = [name for event, name in events if event == "call"]
        assert np.array_equal(out[0], vectors @ matrix)
        tiles = len(allocation.placement.tiles)
        assert len(names) <= MAX_CALLS_FIXED + MAX_CALLS_PER_TILE * tiles, (
            len(names), sorted(set(names))
        )
        charges = [name for name in names if name in ("charge", "charge_run")]
        assert len(charges) <= MAX_CHARGES_PER_TILE * tiles
        # Steady state: nothing was planned or compiled inside the call.
        assert sum(planner.receipt_hits for planner in planners) == hits + tiles
        assert sum(planner.receipt_misses for planner in planners) == tiles
        assert device.planner_builds() == tiles


def _profile_serving():
    """``benchmarks/profile_serving.py``, whose probes this file budgets."""
    path = Path(__file__).parent.parent / "benchmarks" / "profile_serving.py"
    spec = importlib.util.spec_from_file_location("profile_serving", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestNoisyCall:
    """The general path under ``NoiseConfig.paper_default()``, batch 32."""

    @staticmethod
    def _steady(label):
        shape, element_size, input_bits, _ = DEVICE_CALL_SHAPES[label]
        device, allocation, _, vectors = programmed_device(
            shape, element_size, input_bits, noise=NoiseConfig.paper_default()
        )
        assert device.device_plan(allocation, input_bits) is None

        def call():
            return device.exec_mvm_batch(allocation, vectors, input_bits=input_bits)

        for _ in range(2):  # first call builds the kernel, receipt and scratch
            call()
        return device, allocation, call

    @pytest.mark.parametrize("label", sorted(NOISY_CALL_DRAWS))
    def test_one_draw_per_crossbar_one_sample_per_bitline_sum(self, label, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        device, allocation, call = self._steady(label)
        input_bits = DEVICE_CALL_SHAPES[label][2]
        crossbars = [hct.ace.crossbar(array_id)
                     for _, hct, handle in device._tiles(allocation)
                     for array_id in handle.array_ids]
        samples = sum(input_bits * BATCH * crossbar.programmed_shape[1]
                      for crossbar in crossbars)
        assert (len(crossbars), samples) == NOISY_CALL_DRAWS[label]
        # ``make hotpath``'s probe: a counting stand-in for every generator.
        counted = _profile_serving().noisy_call_stages(call, device, allocation, loops=1)
        assert (counted["draws"], counted["samples"]) == NOISY_CALL_DRAWS[label]

    def test_steady_state_noisy_call_allocates_no_shard_sized_block(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        _, _, call = self._steady("encoder_projection")
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < MAX_NOISY_CALL_PEAK_BYTES, peak


def _python_calls(function) -> int:
    return sum(event == "call" for event, _ in profiled_calls(function))


class TestPoolCall:
    """Batch 16 against a single-band 64x64 6-bit allocation, exact path."""

    def test_steady_state_pooled_call_stays_within_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        shape, element_size, input_bits, _ = DEVICE_CALL_SHAPES["encoder_projection"]
        rng = derive_rng("hot-path-pool")
        half = 1 << (element_size - 1)
        matrix = rng.integers(-half, half, size=shape)
        vectors = rng.integers(0, 1 << input_bits, size=(16, shape[0]), dtype=np.int64)
        pool = DevicePool(num_devices=2)
        allocation = pool.set_matrix(matrix, element_size=element_size)
        pool.compile(allocation, input_bits=input_bits)
        (task,) = allocation.tasks
        device = pool.devices[task.device_index]

        def pooled():
            return pool.exec_mvm_batch(allocation, vectors, input_bits=input_bits)

        for _ in range(2):  # first call compiles the kernel and the receipt
            assert np.array_equal(pooled(), vectors @ matrix)
        builds = pool.planner_builds()
        pool_calls = _python_calls(pooled)
        device_calls = _python_calls(lambda: device.exec_mvm_batch(
            task.device_allocation, vectors, input_bits=input_bits, backend=None
        ))
        # ``_python_calls`` sees the test's own closure as one call each time.
        assert pool_calls - 1 <= MAX_POOL_CALLS, pool_calls - 1
        assert pool_calls - device_calls <= MAX_POOL_FRAMES, (pool_calls, device_calls)
        assert pool.planner_builds() == builds


class TestServerRound:
    """``submit_batch(64)`` + ``run_until_idle()`` on a 64x64 6-bit tenant."""

    def test_steady_state_round_stays_within_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        server, vectors, submit, drain = server_round(tenants=1)
        builds, batches = server.planner_builds(), server.stats.batches
        futures = []
        calls = _python_calls(lambda: futures.extend(submit()))
        calls += _python_calls(drain)
        requests = vectors.shape[1]
        assert calls <= MAX_SERVER_CALLS_PER_REQUEST * requests, calls / requests
        matrix = server.allocation_for("t0").matrix
        served = np.stack([future.result().result for future in futures[0]])
        assert np.array_equal(served, vectors[0] @ matrix)
        # Steady state: nothing scanned, copied or planned inside the round.
        assert server.queue_scans() == 0
        assert server.stats.batches > batches
        assert server.stats.zero_copy_batches == server.stats.batches
        assert server.planner_builds() == builds

    def test_idle_tick_stays_within_budget(self):
        server, _, _, _ = server_round(tenants=1)
        assert server.pending == 0
        assert _python_calls(server.tick) <= MAX_IDLE_TICK_CALLS


class TestClusterWave:
    """One 16-row wave through ``benchmarks/profile_serving.py``'s twin: a
    scripted gateway and one worker's functions on real rings and bells."""

    def test_steady_state_wave_stays_within_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        profile_serving = _profile_serving()

        async def scenario():
            twin = profile_serving.ClusterWaveTwin()
            try:
                for _ in range(2 * profile_serving.CLUSTER_WAVE_MATRICES):
                    futures = twin.wave()  # plans, receipts and table memos warm
                name = f"m{(twin.waves - 1) % profile_serving.CLUSTER_WAVE_MATRICES}"
                served = np.stack([future.result().result for future in futures])
                assert np.array_equal(served, twin.vectors @ twin.matrices[name])
                events = profile_serving.cluster_wave_events(twin)
                stats = twin.gateway.stats
                assert (stats.failed, stats.transport_errors, stats.shed) == (0, 0, 0)
                return events
            finally:
                twin.close()

        events = asyncio.run(scenario())
        for hop, budget in MAX_WAVE_EVENTS.items():
            assert sum(events[hop]) <= budget, (hop, events[hop])
        # Two frames a wave: neither direction's header goes through JSON.
        assert "dumps" not in events["names"] and "loads" not in events["names"]


class TestReceiptMemo:
    @staticmethod
    def _tile():
        tile = HybridComputeTile(HctConfig.small())
        matrix = derive_rng("hot-path-memo").integers(-8, 8, size=(16, 12))
        handle = tile.set_matrix(matrix, value_bits=4)
        return tile, handle, matrix

    def test_one_miss_then_hits(self):
        tile, handle, matrix = self._tile()
        vectors = np.ones((5, 16), dtype=np.int64)
        for calls in range(1, 5):
            out = tile.execute_mvm_batch(handle, vectors, input_bits=2,
                                         backend="vectorized")
            assert np.array_equal(out.values, vectors @ matrix)
            assert tile.planner.receipt_misses == 1
            assert tile.planner.receipt_hits == calls - 1
        # The cost-only backend replays the very same receipt.
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="estimate")
        assert (tile.planner.receipt_misses, tile.planner.receipt_hits) == (1, 4)
        # A different ADC window or input precision is a different receipt.
        tile.execute_mvm_batch(handle, vectors, input_bits=2, active_adc_bits=3,
                               backend="vectorized")
        tile.execute_mvm_batch(handle, vectors, input_bits=3, backend="vectorized")
        assert tile.planner.receipt_misses == 3

    def test_memo_is_bounded_under_distinct_batch_sizes(self):
        tile, handle, matrix = self._tile()
        plan = tile.planner.plan_for(handle, 2)
        bound = Planner.RECEIPT_BATCH_SIZES
        reference = HybridComputeTile(HctConfig.small())
        reference_handle = reference.set_matrix(matrix, value_bits=4)
        for batch in range(1, 201):
            vectors = np.ones((batch, 16), dtype=np.int64)
            tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="vectorized")
            reference.execute_mvm_batch(reference_handle, vectors, input_bits=2,
                                        backend="reference")
            assert len(plan.receipts) <= bound
        assert len(plan.receipts) == bound
        assert tile.planner.receipt_misses == 200
        # FIFO: the newest sizes are resident, the oldest were evicted and
        # recompile to the same numbers.
        assert [key[0] for key in plan.receipts] == list(range(201 - bound, 201))
        single = np.ones((1, 16), dtype=np.int64)
        tile.execute_mvm_batch(handle, single, input_bits=2, backend="vectorized")
        reference.execute_mvm_batch(reference_handle, single, input_bits=2,
                                    backend="reference")
        assert tile.planner.receipt_misses == 201
        assert tile.ledger.snapshot() == reference.ledger.snapshot()

    def test_receipts_die_with_the_plan(self):
        tile, handle, matrix = self._tile()
        vectors = np.ones((3, 16), dtype=np.int64)
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="vectorized")
        plan = tile.planner.plan_for(handle, 2)
        assert len(plan.receipts) == 1
        new_handle = tile.ace.update_row(handle, 0, np.zeros(12, dtype=np.int64))
        assert tile.ace.cached_plans == 0  # the memo went with its plan
        out = tile.execute_mvm_batch(new_handle, vectors, input_bits=2,
                                     backend="vectorized")
        updated = matrix.copy()
        updated[0] = 0
        assert np.array_equal(out.values, vectors @ updated)
        fresh = tile.planner.plan_for(new_handle, 2)
        assert fresh is not plan and len(fresh.receipts) == 1
        tile.release_matrix(new_handle)
        assert tile.ace.cached_plans == 0


def _moving_state(tile, handle):
    return (
        tile.ledger.snapshot(),
        [tile.ace.crossbar(i).mvm_count for i in handle.array_ids],
        (tile.iiu.injections, tile.iiu.front_end_slots_saved),
        tile.transpose_unit.vector_count,
        tile._clock,
    )


class TestSameErrorsSameOrder:
    """Exact path, general path and ``estimate`` reject alike, before any
    ledger, ``mvm_count`` or IIU counter moves."""

    PATHS = {
        "exact": (None, "vectorized"),
        "general": (NoiseConfig(programming_noise=False, read_noise=True,
                                ir_drop=False, seed=3), "vectorized"),
        "estimate": (None, "estimate"),
        "reference": (None, "reference"),
    }

    @staticmethod
    def _tile(noise):
        tile = HybridComputeTile(HctConfig.small(), noise=noise)
        handle = tile.set_matrix(np.eye(8, dtype=np.int64), value_bits=4)
        # One good batch first, so caches are warm and every counter is live.
        tile.execute_mvm_batch(handle, np.ones((2, 8), dtype=np.int64), input_bits=3)
        return tile, handle

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_range_errors_in_precedence_before_any_charge(self, path):
        noise, backend = self.PATHS[path]
        tile, handle = self._tile(noise)
        before = _moving_state(tile, handle)
        negative_and_wide = np.array([[1, -2, 0, 0, 0, 0, 0, 99]])
        wide = np.array([[1, 2, 0, 0, 0, 0, 0, 8]])
        for vectors, message in (
            (negative_and_wide, "input bit-slicing expects non-negative inputs"),
            (wide, "input values exceed 3 bits"),
        ):
            with pytest.raises(QuantizationError) as raised:
                tile.execute_mvm_batch(handle, vectors, input_bits=3, backend=backend)
            assert str(raised.value) == message
            assert _moving_state(tile, handle) == before
        with pytest.raises(QuantizationError, match="does not match matrix rows"):
            tile.execute_mvm_batch(handle, np.ones((2, 7), dtype=np.int64),
                                   input_bits=3, backend=backend)
        with pytest.raises(ExecutionError, match="at least one input vector"):
            tile.execute_mvm_batch(handle, np.empty((0, 8), dtype=np.int64),
                                   input_bits=3, backend=backend)
        assert _moving_state(tile, handle) == before

    def test_validators_agree_on_dtype_sign_and_width(self):
        """The exact path's min/max check and the general path's bit-slicer
        raise the same three messages in the same precedence."""
        from repro.analog.bitslicing import slice_inputs, slice_inputs_tensor
        from repro.analog.kernels import validate_input_range

        cases = (
            (np.array([[0.5, -1.0, 99.0]]), "input bit-slicing expects an integer vector"),
            (np.array([[1, -1, 99]]), "input bit-slicing expects non-negative inputs"),
            (np.array([[1, 0, 8]]), "input values exceed 3 bits"),
        )
        for vectors, message in cases:
            for validate in (validate_input_range, slice_inputs_tensor, slice_inputs):
                with pytest.raises(QuantizationError) as raised:
                    validate(vectors, 3)
                assert str(raised.value) == message
        validate_input_range(np.array([[0, 7]], dtype=np.uint8), 3)
        validate_input_range(np.empty((0, 4), dtype=np.int64), 3)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_disabled_ace_raises_allocation_error_first(self, path):
        noise, backend = self.PATHS[path]
        tile, handle = self._tile(noise)
        plan = tile.planner.plan_for(handle, 3)
        before = _moving_state(tile, handle)
        tile.ace.enabled = False
        bad = np.full((2, 8), -1)
        with pytest.raises(AllocationError, match="has been disabled"):
            tile.execute_mvm_batch(handle, bad, input_bits=3, backend=backend)
        tile.ace.enabled, tile.analog_enabled = True, False
        with pytest.raises(AllocationError, match="has been disabled"):
            tile.execute_mvm_batch(handle, bad, input_bits=3, backend=backend)
        from repro.plan import resolve_backend

        with pytest.raises(AllocationError, match="has been disabled"):
            resolve_backend(backend).execute_batch(tile, plan, bad)
        assert _moving_state(tile, handle) == before

    def test_device_level_checks_come_before_the_tiles(self):
        device, allocation, _, vectors = programmed_device((64, 64), 6, 7)
        before = device.chip.total_ledger().snapshot(), device.ledger.snapshot()
        with pytest.raises(QuantizationError, match="does not match matrix rows"):
            device.exec_mvm_batch(allocation, vectors[:, :63], input_bits=7)
        with pytest.raises(QuantizationError, match="exceed 7 bits"):
            device.exec_mvm_batch(allocation, vectors + 128, input_bits=7)
        assert device.exec_mvm_batch(allocation, vectors[:0], input_bits=7).shape == (0, 64)
        assert (device.chip.total_ledger().snapshot(), device.ledger.snapshot()) == before


def test_ledger_scalars_replace_snapshots_on_the_hot_path(monkeypatch):
    """``execute_batch`` brackets its charges with scalar reads, not copies."""
    device, allocation, _, vectors = programmed_device((64, 64), 6, 7)
    device.exec_mvm_batch(allocation, vectors, input_bits=7)

    def no_snapshot(self):
        raise AssertionError("CostLedger.snapshot() on the execution hot path")

    monkeypatch.setattr(CostLedger, "snapshot", no_snapshot)
    for backend in ("vectorized", "estimate", "reference"):
        device.exec_mvm_batch(allocation, vectors, input_bits=7, backend=backend)
