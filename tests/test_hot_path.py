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
and no block that scales with the shard.  The write path has its own
budget: ``TestRegistration`` counts what a new ``register_matrix`` and the
first call against it construct, map, prove and call.
"""

from __future__ import annotations

import asyncio
import gc
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import DarthPumDevice, DevicePool, PumServer
from repro.analog.adc import AnalogToDigitalConverter
from repro.core.config import HctConfig
from repro.core.hct import HybridComputeTile
from repro.errors import AllocationError, ExecutionError, QuantizationError
from repro.metrics import CostLedger
from repro.plan.planner import Planner
from repro.reram import ConductanceMapper, DeviceParameters, NoiseConfig, NoiseStack
from repro.testing import DEVICE_CALL_SHAPES, derive_rng, profiled_calls, server_round

BATCH = 32
#: Python-level calls of one steady-state call: a fixed part plus the
#: per-tile receipt replay (measured 21 / 37 / 77 at 1 / 3 / 8 tiles -- per
#: tile the memo lookup, the replay, one ``charge_stream``, the schedule
#: commit with its arbiter and ledger call, the register store and the
#: runtime charge; 26 / 52 / 117 while the replay re-walked the receipt
#: through six ``charge`` / ``charge_run`` calls per tile, and the per-tile
#: loop before that took 35 / 89 / 224).
MAX_CALLS_FIXED, MAX_CALLS_PER_TILE = 20, 8
#: ``charge_stream``, ``hct.mvm_batch`` and ``runtime.mvm_batch``.
MAX_CHARGES_PER_TILE = 3
#: Python-level calls of one steady-state single-band pooled call, and how
#: many of them are the pool's own frames (measured 25 and 5: the front door,
#: the band loop, the copy selection, the device-call lambda and the
#: post-call check; 39 and 14 while a request list sat under the loop).
MAX_POOL_CALLS, MAX_POOL_FRAMES = 26, 5
#: Python-level calls per request of one server round, submit + drain
#: (measured 0.20 + 2.81 = 3.01 at one tenant and 0.17 + 2.54 at 32, budget
#: the prototype's 3.33 + 10 %; it was 1.23 + 3.92 = 5.15 while a row cost a
#: ``ServerFuture`` on the way in and a ``Response`` on the way out, and
#: 5.3 + 7.1 = 12.4 while the server kept a ``Request`` per row), and of one
#: tick with an empty queue (measured 9).  Nothing in it is per request any
#: more: per wave, the futures record and the wave; per batch, one
#: ``resolve`` per run it took from and the pool call, which is most of it.
#: A row's view and response are built when somebody asks for the row --
#: outside the round.
MAX_SERVER_CALLS_PER_REQUEST = 3.7
MAX_IDLE_TICK_CALLS = 12
#: The same 64 vectors admitted by 64 ``submit()`` calls, submit + drain per
#: request (measured 13.05 + 3.81 = 16.86; 14.05 + 3.98 = 18.03 with a future
#: and a response per row).  A one-row wave goes through the code a bulk wave
#: does -- its futures record, the wave, one ``resolve``, row 0's view -- and
#: must not pay for the generality: the bound is the old path's count + 2.5 %.
MAX_SUBMIT_CALLS_PER_REQUEST = 18.5
#: ``sys.setprofile`` events (Python calls + C calls -- a vectorised path
#: trades NumPy scalar C calls for a few comprehension frames, so either
#: alone would flatter or punish it) of one 16-row ``cluster_saturate`` wave,
#: per hop, measured + 10 %: gateway submit 56 + 41 (73 + 50 with a
#: ``create_future`` call per row and a JSON header), the worker's turn
#: outside its tick loop 50 + 102, budget the prototype's 53 + 105 + 10 %
#: (86 + 120 with sixteen futures built at the door and sixteen ``result()``
#: calls behind the RESULTS frame, 90 + 218 with a per-row RESULTS frame and
#: a per-array header), gateway resolve 39 + 68 (36 + 114 with a frozen
#: response and three NumPy scalar reads per row).
MAX_WAVE_EVENTS = {"gateway_submit": 107, "worker_outside_drain": 175,
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
#: Python-level calls of one new 64x64 4-bit ``register_matrix`` (release,
#: program, compile) plus the first 32-row wave against it on an ideal
#: server, measured + 10 % (measured 548; 820 while every crossbar sliced,
#: mapped and range-checked its own planes and re-mapped them for the
#: exactness proof).
MAX_REGISTRATION_CALLS = 602


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
        charges = [name for name in names if name in ("charge", "charge_stream")]
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
    """Batch 16 on the exact path: a single-band 64x64 6-bit allocation, and
    the sharded, replicated, verified layout the benchmark claim is made on."""

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


    def test_sharded_verified_call_stays_within_budget(self, monkeypatch):
        """The layerbench ``pool_sharded`` layout -- 256x16 over 2 bands x 2
        replicas of small tiles, ``verify="full"`` -- at ``make hotpath``'s
        probe: each band's device call pays the fixed part once and the
        per-tile replay for its eight blocks (measured 152 device frames;
        232 while a tile's replay took thirteen)."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        profile_serving = _profile_serving()
        pooled, _, allocation = profile_serving.pool_call_at("pool_sharded")
        assert allocation.num_shards == 2 and allocation.replication == 2
        tiles = sum(len(task.device_allocation.placement.tiles)
                    for task in allocation.tasks)
        assert tiles == 16
        events = profiled_calls(pooled)[1:]  # drop the ``pooled`` closure itself
        _, device_frames, pooled_calls = profile_serving.split_pool_frames(events)
        assert pooled_calls == 1
        budget = MAX_CALLS_FIXED * allocation.num_shards + MAX_CALLS_PER_TILE * tiles
        assert device_frames <= budget, device_frames


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

    def test_single_submit_round_stays_within_budget(self, monkeypatch):
        """64 ``submit()`` calls + ``run_until_idle()``: one-row waves."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        server, vectors, _, drain = server_round(tenants=1)
        input_bits = DEVICE_CALL_SHAPES["encoder_projection"][2]

        def submit():
            return [server.submit("t0", vector, input_bits=input_bits)
                    for vector in vectors[0]]

        for _ in range(2):  # warm the batch arena single submits gather into
            submit()
            drain()
        gathered = server.stats.gathered_batches
        futures = []
        calls = _python_calls(lambda: futures.extend(submit()))
        calls += _python_calls(drain)
        requests = vectors.shape[1]
        assert calls <= MAX_SUBMIT_CALLS_PER_REQUEST * requests, calls / requests
        served = np.stack([future.result().result for future in futures])
        assert np.array_equal(served, vectors[0] @ server.allocation_for("t0").matrix)
        assert server.stats.gathered_batches > gathered and server.queue_scans() == 0

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


class TestRegistration:
    """A new 64x64 4-bit ``register_matrix`` and the first wave against it."""

    ROUNDS = 16

    @staticmethod
    def _rounds(noise=None):
        rng = derive_rng("hot-path-registration")
        matrices = rng.integers(-8, 8, size=(TestRegistration.ROUNDS + 2, 64, 64))
        vectors = rng.integers(0, 16, size=(32, 64), dtype=np.int64)
        server = PumServer(pool=DevicePool(num_devices=2, noise=noise))
        served = []

        def new_round(k):
            server.register_matrix("t", matrices[k], element_size=4, input_bits=4)
            served.append(server.submit_batch("t", vectors, input_bits=4))
            server.run_until_idle()

        for k in range(2):  # the second replaces the first: release is on the path
            new_round(k)
        return server, matrices, vectors, served, new_round

    @staticmethod
    def _counted(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_ideal_registration_stays_within_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        server, matrices, vectors, served, new_round = self._rounds()
        generators = self._counted(monkeypatch, np.random, "default_rng")
        mappings = self._counted(monkeypatch, ConductanceMapper, "value_to_conductance")
        # The exact path converts nothing: whatever reaches the ADC while
        # registering and serving is a round-trip proof.
        proofs = self._counted(monkeypatch, AnalogToDigitalConverter, "convert")
        reuses = server.registration_reuses
        for k in range(2, 2 + self.ROUNDS):
            before = len(mappings)
            calls = _python_calls(lambda: new_round(k))
            assert len(mappings) - before <= 1
            # ``_python_calls`` sees the lambda and ``new_round`` themselves.
            assert calls - 2 <= MAX_REGISTRATION_CALLS, calls - 2
            rows = np.stack([future.result().result for future in served[-1]])
            assert np.array_equal(rows, vectors @ matrices[k])
        assert generators == []
        assert len(proofs) <= 1
        assert server.registration_reuses == reuses
        plan = server.pool.devices[0].device_plan
        (task,) = server.allocation_for("t").tasks
        assert plan(task.device_allocation, 4) is not None

    def test_noisy_registration_builds_one_generator_per_crossbar(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        server, _, _, _, new_round = self._rounds(NoiseConfig.paper_default())
        generators = self._counted(monkeypatch, np.random, "default_rng")
        new_round(2)
        (task,) = server.allocation_for("t").tasks
        device = server.pool.devices[task.device_index]
        crossbars = [hct.ace.crossbar(array_id)
                     for _, hct, handle in device._tiles(task.device_allocation)
                     for array_id in handle.array_ids]
        # Programming noise is each array's first draw; the wave's read
        # noise then continues the same stream.
        assert len(generators) == len(crossbars) == 4
        assert all(crossbar.noise._rng is not None for crossbar in crossbars)
        # Built at the first draw, not with the stack.
        generators.clear()
        stack = NoiseStack(DeviceParameters(), NoiseConfig.paper_default(), (0, 7))
        assert stack._rng is None and generators == []
        assert stack.rng is stack.rng and len(generators) == 1


def test_profiled_calls_keeps_the_collector_out():
    """A finaliser the cyclic collector would run mid-call is not a frame."""
    class Cycle:
        def __init__(self):
            self.me = self

        def __del__(self):
            pass

    def churn():
        for _ in range(5000):
            Cycle()

    names = {name for event, name in profiled_calls(churn) if event == "call"}
    assert "__del__" not in names and "__init__" in names
    assert gc.isenabled()


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

    def test_programming_rejects_as_before_it_was_stacked(self):
        """The write path's checks, by layer: the messages and their
        precedence are the per-plane ones, with nothing charged, no array
        taken and no crossbar left half-programmed."""
        from repro.analog import (
            AnalogCrossbar, DifferentialPairs, OffsetSubtraction, slice_matrix,
        )
        from repro.errors import CapacityError, DeviceError

        mapper = ConductanceMapper(DeviceParameters(), 2)
        magnitude = "matrix magnitude exceeds 8 for 4-bit values"
        for attempt, message in (
            (lambda: slice_matrix(np.array([[0.5, -1.0]]), 4, 2),
             "bit-slicing expects an integer matrix"),
            (lambda: slice_matrix(np.array([[1, -1, 99]]), 0, 2),
             "bit-slicing expects a non-negative matrix; encode sign first"),
            (lambda: slice_matrix(np.array([[1, 99]]), 4, 0),
             "value_bits and bits_per_cell must be >= 1"),
            (lambda: slice_matrix(np.array([[[1, 2], [3, 16]]]), 4, 2),
             "matrix values exceed 4 bits"),
            (lambda: DifferentialPairs(4).encode(np.array([[9, -1]])), magnitude),
            (lambda: DifferentialPairs(4).encode(np.array([[1, -9]])), magnitude),
            (lambda: OffsetSubtraction(4).encode(np.array([[-9, 0]])), magnitude),
            (lambda: DifferentialPairs(4).encode(np.array([[0.5]])),
             "differential encoding expects integer matrices"),
            (lambda: OffsetSubtraction(4).encode(np.array([[99.0]])),
             "offset encoding expects integer matrices"),
            (lambda: mapper.value_to_conductance(np.array([[0, 4], [-1, 0]])),
             "values must be in [0, 3] for 2 bits per cell"),
        ):
            with pytest.raises(QuantizationError) as raised:
                attempt()
            assert str(raised.value) == message

        ledger = CostLedger()
        crossbar = AnalogCrossbar(rows=4, cols=4, ledger=ledger)
        wide = np.full((8, 4), 2, dtype=np.int64)
        for planes, error, message in (
            ((wide, wide[:4]), DeviceError,
             "positive and negative slices must have the same shape"),
            ((wide, wide), CapacityError, "slice of shape (8, 4) does not fit a 4x4 crossbar"),
            ((wide[:4], wide[:4] - 2), QuantizationError,
             "values must be in [0, 1] for 1 bits per cell"),
        ):
            with pytest.raises(error) as raised:
                crossbar.program_differential(*planes)
            assert str(raised.value) == message
            assert not crossbar.is_programmed and ledger == CostLedger()

        tile = HybridComputeTile(HctConfig.small())
        ace = tile.ace
        before = tile.ledger.snapshot(), list(ace._free_arrays)
        eights = np.full((20, 20), 8, dtype=np.int64)
        for matrix, keywords, message in (
            (eights.astype(float), {}, "set_matrix expects an integer (quantised) matrix"),
            (eights, dict(bits_per_cell=9), "bits_per_cell 9 exceeds the device maximum 8"),
            (eights, dict(representation="twos"), "unknown representation 'twos'"),
            (eights + 1, {}, magnitude),
            (-eights - 1, dict(representation="offset"), magnitude),
            # +8 passes the offset encoder's magnitude check and is 16 on the
            # positive plane: one bit too wide for the slicer.
            (eights, dict(representation="offset"), "matrix values exceed 4 bits"),
        ):
            with pytest.raises(QuantizationError) as raised:
                ace.set_matrix(matrix, value_bits=4, **keywords)
            assert str(raised.value) == message
            assert (tile.ledger.snapshot(), list(ace._free_arrays)) == before
        assert ace.arrays_used == 0 and not ace._crossbars

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
