"""Backend equivalence: the vectorized executor vs the step-faithful reference.

Both executors interpret the same compiled :class:`~repro.plan.ir.MvmPlan`,
and the vectorized one is the default execution path, so its contract is
strict: across noise presets, weight slicings, multi-tile shapes, batch
sizes, and all three serving workloads it must match
``backend="reference"`` bit for bit -- results, cost-ledger totals *and*
breakdowns, timelines, and IIU statistics.  These tests pin that contract
down, plus the satellite behaviours that ride on the kernel layer: the
per-allocation shard kernel cache, the memoised
``PumServer.register_matrix``, and the parallel device-pool fan-out.
(Plan-cache lifecycle and registry behaviour live in ``tests/test_plan.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import derive_rng

from repro import (
    ChipConfig,
    DarthPumDevice,
    DevicePool,
    HctConfig,
    PumServer,
    StaticBatchingPolicy,
)
from repro.analog.bitslicing import slice_inputs, slice_inputs_tensor
from repro.analog.compensation import ParasiticCompensation
from repro.analog.crossbar import AnalogCrossbar
from repro.core.hct import HybridComputeTile
from repro.errors import AllocationError, ConfigurationError, QuantizationError
from repro.plan import BACKENDS, DEFAULT_BACKEND, ReferenceExecutor, resolve_backend
from repro.reram import NoiseConfig, ParasiticModel
from repro.runtime.apps import (
    serve_aes_mixcolumns,
    serve_cnn_conv,
    serve_llm_projection,
)
from repro.workloads.cnn.layers import Conv2d


NOISE_PRESETS = {
    "ideal": dict(noise=None, parasitics=None),
    "frozen_program_noise": dict(
        noise=NoiseConfig(
            programming_noise=True, read_noise=False, ir_drop=False,
            stuck_at_faults=True, seed=11,
        ),
        parasitics=None,
    ),
    "read_noise": dict(
        noise=NoiseConfig(
            programming_noise=False, read_noise=True, ir_drop=False, seed=3
        ),
        parasitics=None,
    ),
    "ir_drop": dict(
        noise=None, parasitics=ParasiticModel(wire_resistance_ohm=0.5)
    ),
    "full_stack": dict(
        noise=NoiseConfig(
            programming_noise=True, read_noise=True, ir_drop=True, seed=5
        ),
        parasitics=ParasiticModel(wire_resistance_ohm=0.2),
    ),
}

SHAPE_CASES = {
    # (shape, value_bits, bits_per_cell, input_bits, batch)
    "single_tile": ((16, 12), 4, 1, 4, 6),
    "multi_tile": ((32, 24), 3, 1, 3, 4),
    "multi_bit_cells": ((16, 12), 4, 2, 2, 5),
    "batch_of_one": ((16, 12), 4, 1, 4, 1),
}


def run_engine(backend, preset, shape_case):
    shape, value_bits, bits_per_cell, input_bits, batch = shape_case
    rng = derive_rng("kernels-1")
    magnitude = 2 ** (value_bits - 1)
    matrix = rng.integers(-magnitude, magnitude, size=shape)
    vectors = rng.integers(0, 2 ** input_bits, size=(batch, shape[0]))
    tile = HybridComputeTile(HctConfig.small(), **preset)
    handle = tile.set_matrix(matrix, value_bits=value_bits, bits_per_cell=bits_per_cell)
    result = tile.execute_mvm_batch(
        handle, vectors, input_bits=input_bits, backend=backend
    )
    return result, tile.ledger, matrix, vectors


def assert_bit_identical(reference, vectorized):
    ref_result, ref_ledger = reference
    vec_result, vec_ledger = vectorized
    assert np.array_equal(ref_result.values, vec_result.values)
    assert ref_result.optimized_cycles == vec_result.optimized_cycles
    assert ref_result.unoptimized_cycles == vec_result.unoptimized_cycles
    assert ref_result.energy_pj == vec_result.energy_pj
    assert ref_result.breakdown == vec_result.breakdown
    assert ref_result.num_partial_products == vec_result.num_partial_products
    assert ref_result.iiu_slots_saved == vec_result.iiu_slots_saved
    assert ref_ledger.cycles == vec_ledger.cycles
    assert ref_ledger.energy_pj == vec_ledger.energy_pj
    assert ref_ledger.cycle_breakdown == vec_ledger.cycle_breakdown
    assert ref_ledger.energy_breakdown == vec_ledger.energy_breakdown


class TestEngineEquivalence:
    @pytest.mark.parametrize("preset_name", sorted(NOISE_PRESETS))
    @pytest.mark.parametrize("case_name", sorted(SHAPE_CASES))
    def test_engines_bit_identical(self, preset_name, case_name):
        preset = NOISE_PRESETS[preset_name]
        case = SHAPE_CASES[case_name]
        ref_result, ref_ledger, matrix, vectors = run_engine("reference", preset, case)
        vec_result, vec_ledger, _, _ = run_engine("vectorized", preset, case)
        assert_bit_identical((ref_result, ref_ledger), (vec_result, vec_ledger))
        if preset_name == "ideal":
            assert np.array_equal(vec_result.values, vectors @ matrix)

    def test_raw_analog_path_bit_identical(self):
        rng = derive_rng("kernels-2")
        matrix = rng.integers(-8, 8, size=(16, 12))
        vectors = rng.integers(0, 16, size=(4, 16))
        outs = {}
        for backend in ("reference", "vectorized"):
            tile = HybridComputeTile(HctConfig.small())
            handle = tile.set_matrix(matrix, value_bits=4)
            tile.disable_digital_mode()
            outs[backend] = tile.execute_mvm_batch(
                handle, vectors, input_bits=4, backend=backend
            )
        assert np.array_equal(outs["reference"].values, outs["vectorized"].values)
        assert outs["reference"].optimized_cycles == outs["vectorized"].optimized_cycles
        assert outs["reference"].energy_pj == outs["vectorized"].energy_pj

    def test_compensation_path_bit_identical(self):
        compensation = ParasiticCompensation()
        matrix01 = (np.arange(64).reshape(8, 8) % 2).astype(np.int64)
        remapped = compensation.remap(matrix01)
        vectors = np.array([[1, 0, 1, 1, 0, 0, 1, 0], [1, 1, 1, 1, 0, 0, 0, 0]])
        outs = {}
        for backend in ("reference", "vectorized"):
            tile = HybridComputeTile(HctConfig.small())
            handle = tile.set_matrix(remapped, value_bits=2)
            outs[backend] = tile.execute_mvm_batch(
                handle, vectors, input_bits=1, backend=backend,
                compensation=compensation,
            ).values
        assert np.array_equal(outs["reference"], outs["vectorized"])
        assert np.array_equal(outs["vectorized"], vectors @ matrix01)

    def test_vectorized_is_the_default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert DEFAULT_BACKEND == "vectorized"
        assert resolve_backend(None).name == "vectorized"
        assert isinstance(resolve_backend("reference"), ReferenceExecutor)
        assert {"reference", "vectorized"} <= set(BACKENDS.names())
        with pytest.raises(ConfigurationError):
            resolve_backend("turbo")

    def test_slice_inputs_tensor_matches_slice_inputs(self):
        rng = derive_rng("kernels-3")
        vectors = rng.integers(0, 32, size=(5, 11))
        planes = slice_inputs_tensor(vectors, 5)
        listed = slice_inputs(vectors, 5)
        assert planes.shape == (5, 5, 11)
        for bit, plane in enumerate(listed):
            assert np.array_equal(planes[bit], plane)


def run_tile(backend, preset, shape_case, config=None, **kwargs):
    """Like ``run_engine`` but hands back the tile, and runs the batch twice
    (the second call replays the memoised receipt)."""
    shape, value_bits, bits_per_cell, input_bits, batch = shape_case
    rng = derive_rng("kernels-receipt")
    magnitude = 2 ** (value_bits - 1)
    matrix = rng.integers(-magnitude, magnitude, size=shape)
    vectors = rng.integers(0, 2 ** input_bits, size=(batch, shape[0]))
    tile = HybridComputeTile(config or HctConfig.small(), **preset)
    handle = tile.set_matrix(matrix, value_bits=value_bits, bits_per_cell=bits_per_cell)
    for _ in range(2):
        result = tile.execute_mvm_batch(
            handle, vectors, input_bits=input_bits, backend=backend, **kwargs
        )
    return result, tile, handle


def assert_same_accounting(reference, other):
    """Everything but the values: ledgers, timelines and unit statistics."""
    (ref_result, ref_tile, ref_handle), (result, tile, handle) = reference, other
    for field in ("batch", "optimized_cycles", "unoptimized_cycles", "energy_pj",
                  "breakdown", "num_partial_products", "iiu_slots_saved"):
        assert getattr(result, field) == getattr(ref_result, field), field
    assert tile.ledger.snapshot() == ref_tile.ledger.snapshot()
    assert tile.iiu.injections == ref_tile.iiu.injections
    assert tile.iiu.front_end_slots_saved == ref_tile.iiu.front_end_slots_saved
    assert tile.transpose_unit.vector_count == ref_tile.transpose_unit.vector_count
    assert tile._clock == ref_tile._clock
    assert [tile.ace.crossbar(i).mvm_count for i in handle.array_ids] == [
        ref_tile.ace.crossbar(i).mvm_count for i in ref_handle.array_ids
    ]


class TestReceiptEquivalence:
    """The memoised batch receipt replays the reference interpreter's
    accounting exactly -- on the vectorized and the cost-only backend."""

    @pytest.mark.parametrize("preset_name", sorted(NOISE_PRESETS))
    @pytest.mark.parametrize("case_name", sorted(SHAPE_CASES))
    def test_receipt_replays_reference_accounting(self, preset_name, case_name):
        preset, case = NOISE_PRESETS[preset_name], SHAPE_CASES[case_name]
        reference = run_tile("reference", preset, case)
        vectorized = run_tile("vectorized", preset, case)
        assert_same_accounting(reference, vectorized)
        assert np.array_equal(vectorized[0].values, reference[0].values)
        # Same accumulator-register contents at the end of the stream.
        for red in vectorized[1].planner.plan_for(vectorized[2], case[3]).reduction:
            assert np.array_equal(
                vectorized[1].dce.pipeline(red.col_tile).read_vr(0),
                reference[1].dce.pipeline(red.col_tile).read_vr(0),
            )
        estimate = run_tile("estimate", preset, case)
        assert_same_accounting(reference, estimate)
        assert estimate[0].estimated and not estimate[0].values.any()
        assert reference[1].planner.receipt_misses == 0  # the oracle has none
        for _, tile, _ in (vectorized, estimate):
            assert (tile.planner.receipt_misses, tile.planner.receipt_hits) == (1, 1)

    @pytest.mark.parametrize("kwargs", [
        dict(optimized=False),
        dict(active_adc_bits=3),
        dict(active_adc_bits=2, optimized=False),
    ], ids=["unoptimized", "adc_bits", "adc_bits_unoptimized"])
    @pytest.mark.parametrize("case_name", ["multi_tile", "multi_bit_cells"])
    def test_schedule_and_adc_options(self, kwargs, case_name):
        # Early ADC termination only changes a ramp ADC's cost.
        config = HctConfig.small(adc_kind="ramp")
        runs = {
            backend: run_tile(backend, NOISE_PRESETS["ideal"], SHAPE_CASES[case_name],
                              config=config, **kwargs)
            for backend in ("reference", "vectorized", "estimate")
        }
        assert_same_accounting(runs["reference"], runs["vectorized"])
        assert_same_accounting(runs["reference"], runs["estimate"])
        plain = run_tile("vectorized", NOISE_PRESETS["ideal"], SHAPE_CASES[case_name],
                         config=config)
        assert plain[1].ledger.cycles != runs["vectorized"][1].ledger.cycles

    def test_raw_analog_mode_replays_the_analog_phase_only(self):
        runs = {}
        for backend in ("reference", "vectorized", "estimate"):
            shape, value_bits, bits_per_cell, input_bits, batch = SHAPE_CASES["multi_tile"]
            rng = derive_rng("kernels-receipt-raw")
            matrix = rng.integers(-4, 4, size=shape)
            vectors = rng.integers(0, 2 ** input_bits, size=(batch, shape[0]))
            tile = HybridComputeTile(HctConfig.small())
            handle = tile.set_matrix(matrix, value_bits=value_bits)
            tile.disable_digital_mode()
            result = tile.execute_mvm_batch(handle, vectors, input_bits=input_bits,
                                            backend=backend)
            runs[backend] = (result, tile, handle)
        assert_same_accounting(runs["reference"], runs["vectorized"])
        assert_same_accounting(runs["reference"], runs["estimate"])
        assert np.array_equal(runs["vectorized"][0].values, runs["reference"][0].values)
        assert runs["vectorized"][1].iiu.injections == 0


def force_per_tile_loop(allocation, input_bits):
    """Drive the vectorized backend tile by tile -- the loop the device plan
    replaced, kept as its oracle -- by recording the allocation as compiled
    and off the exact path."""
    allocation.device_plans[input_bits] = None


#: label -> (shape, element size, input bits, small tiles?).  144x16 and
#: 128x16 are row bands, 200x150 is ragged in both directions (13 x 3
#: blocks), 40x40 has a ragged last band, the last two are single blocks.
DEVICE_PLAN_CASES = {
    "row_band_ragged": ((144, 16), 4, 4, True),
    "grid_ragged": ((200, 150), 4, 3, True),
    "square_ragged": ((40, 40), 4, 4, True),
    "row_band_8_tiles": ((128, 16), 4, 4, True),
    "paper_tile_64": ((64, 64), 6, 7, False),
    "paper_tile_16": ((16, 16), 6, 7, False),
}


def programmed_device(case, noise=None, label="kernels-device-plan"):
    shape, element_size, input_bits, small = DEVICE_PLAN_CASES[case]
    rng = derive_rng(label, case)
    magnitude = 1 << (element_size - 1)
    matrix = rng.integers(-magnitude, magnitude, size=shape)
    config = ChipConfig(hct=HctConfig.small(), num_hcts=64) if small else None
    device = DarthPumDevice(config=config, noise=noise)
    allocation = device.set_matrix(matrix, element_size=element_size)
    return device, allocation, matrix


def device_state(device, allocation):
    """Everything a device call moves besides its result."""
    tiles = [device.chip.hct(index) for index in allocation.hct_indices]
    return {
        "runtime_ledger": device.ledger.snapshot(),
        "tile_ledgers": [tile.ledger.snapshot() for tile in tiles],
        "iiu": [(tile.iiu.injections, tile.iiu.front_end_slots_saved)
                for tile in tiles],
        "transposes": [tile.transpose_unit.vector_count for tile in tiles],
        "clocks": [tile._clock for tile in tiles],
        "arbiters": [dict(tile.arbiter._owners) for tile in tiles],
        "mvm_counts": [
            [tile.ace.crossbar(i).mvm_count for i in handle.array_ids]
            for tile, handle in zip(tiles, allocation.handles.values())
        ],
        "accumulators": [
            [tile.dce.pipeline(p).read_vr(0).tolist() for p in range(handle.col_tiles)]
            for tile, handle in zip(tiles, allocation.handles.values())
        ],
    }


class TestDevicePlanEquivalence:
    """One contraction for all tiles == the per-tile loop == ``reference``,
    on every result and every piece of simulated state."""

    @pytest.mark.parametrize("case", sorted(DEVICE_PLAN_CASES))
    def test_plan_path_matches_the_per_tile_loop_and_reference(self, case):
        input_bits = DEVICE_PLAN_CASES[case][2]
        backends = {"plan": "vectorized", "loop": "vectorized",
                    "reference": "reference"}
        twins = {name: programmed_device(case) for name in backends}
        force_per_tile_loop(twins["loop"][1], input_bits)
        rng = derive_rng("kernels-device-plan-vectors", case)
        for batch in (1, 5, 32, 5):
            matrix = twins["plan"][2]
            vectors = rng.integers(0, 1 << input_bits, size=(batch, matrix.shape[0]))
            outs, states = {}, {}
            for name, (device, allocation, _) in twins.items():
                outs[name] = device.exec_mvm_batch(
                    allocation, vectors, input_bits=input_bits, backend=backends[name]
                )
                states[name] = device_state(device, allocation)
            assert np.array_equal(outs["plan"], vectors @ matrix)
            for name in ("loop", "reference"):
                assert np.array_equal(outs["plan"], outs[name]), name
                assert states["plan"] == states[name], name
        device, allocation, _ = twins["plan"]
        plan = device.device_plan(allocation, input_bits)
        assert len(plan.tiles) == len(allocation.placement.tiles)
        assert sorted(plan.scratch) == [1, 5, 32]
        assert twins["loop"][1].device_plans == {input_bits: None}
        assert not twins["reference"][1].device_plans  # never asked for one

    def test_stale_register_rows_beyond_the_output_width_are_cleared(self):
        """40x40 on small tiles is three 40-column row blocks of three column
        tiles each, the last 8 wide: rows 8..15 of that pipeline's
        accumulator VR are beyond every store."""
        case = "square_ragged"
        input_bits = DEVICE_PLAN_CASES[case][2]
        backends = {"plan": "vectorized", "loop": "vectorized",
                    "reference": "reference"}
        twins = {name: programmed_device(case) for name in backends}
        force_per_tile_loop(twins["loop"][1], input_bits)
        vectors = derive_rng("kernels-device-plan-stale").integers(
            0, 1 << input_bits, size=(5, 40)
        )
        states = {}
        for name, (device, allocation, matrix) in twins.items():
            tiles = [device.chip.hct(index) for index in allocation.hct_indices]
            for tile in tiles:
                for index in range(3):
                    tile.dce.pipeline(index).set_vr_bits(0, np.full(16, -1))
            out = device.exec_mvm_batch(allocation, vectors, input_bits=input_bits,
                                        backend=backends[name])
            assert np.array_equal(out, vectors @ matrix)
            states[name] = device_state(device, allocation)
            for tile in tiles:
                narrow = tile.dce.pipeline(2).read_vr(0)
                assert narrow[:8].any() and not narrow[8:].any()
        assert states["plan"] == states["loop"] == states["reference"]

    @pytest.mark.parametrize("noise", [
        NoiseConfig(programming_noise=False, read_noise=True, ir_drop=False, seed=3),
        NoiseConfig(programming_noise=True, read_noise=False, ir_drop=False,
                    stuck_at_faults=True, seed=11),
    ], ids=["read_noise", "frozen_program_noise"])
    def test_noisy_device_keeps_the_loop_and_matches_reference(self, noise):
        case = "row_band_ragged"
        input_bits = DEVICE_PLAN_CASES[case][2]
        vectors = derive_rng("kernels-device-plan-noisy").integers(
            0, 1 << input_bits, size=(5, 144)
        )
        outs, states = {}, {}
        for backend in ("vectorized", "reference"):
            device, allocation, _ = programmed_device(case, noise=noise)
            device.compile(allocation, input_bits)
            assert device.device_plan(allocation, input_bits) is None
            outs[backend] = device.exec_mvm_batch(
                allocation, vectors, input_bits=input_bits, backend=backend
            )
            states[backend] = device_state(device, allocation)
        assert np.array_equal(outs["vectorized"], outs["reference"])
        assert states["vectorized"] == states["reference"]

    def test_mode_flips_after_compile_are_honoured_on_the_next_call(self):
        case = "row_band_8_tiles"
        input_bits = DEVICE_PLAN_CASES[case][2]
        twins = {name: programmed_device(case) for name in ("plan", "reference")}
        backends = {"plan": "vectorized", "reference": "reference"}
        rng = derive_rng("kernels-device-plan-flips")
        matrix = twins["plan"][2].copy()

        def step(expected_matrix):
            vectors = rng.integers(0, 1 << input_bits, size=(5, 128))
            outs = {
                name: device.exec_mvm_batch(allocation, vectors,
                                            input_bits=input_bits,
                                            backend=backends[name])
                for name, (device, allocation, _) in twins.items()
            }
            assert np.array_equal(outs["plan"], outs["reference"])
            if expected_matrix is not None:
                assert np.array_equal(outs["plan"], vectors @ expected_matrix)
            states = [device_state(device, allocation)
                      for device, allocation, _ in twins.values()]
            assert states[0] == states[1]

        for device, allocation, _ in twins.values():
            device.compile(allocation, input_bits)
        step(matrix)
        plan_device, plan_allocation, _ = twins["plan"]
        compiled = plan_device.device_plan(plan_allocation, input_bits)
        assert compiled is not None

        # Raw analog output on one of the eight tiles: the whole call takes
        # the loop (that tile skips the DCE wrap), then the plan again.
        third = plan_allocation.hct_indices[2]
        for device, _, _ in twins.values():
            device.disable_digital_mode(third)
        injections = plan_device.chip.hct(third).iiu.injections
        step(None)
        assert plan_device.chip.hct(third).iiu.injections == injections
        for device, _, _ in twins.values():
            device.chip.hct(third).enable_digital_mode()
        step(matrix)
        assert plan_device.device_plan(plan_allocation, input_bits) is compiled

        # update_row reprograms one tile: stale plans go, fresh ones follow.
        new_row = rng.integers(-8, 8, size=16)
        matrix[37] = new_row
        for device, allocation, _ in twins.values():
            device.update_row(allocation, 37, new_row)
        assert not plan_allocation.device_plans
        step(matrix)
        assert plan_device.device_plan(plan_allocation, input_bits) is not compiled
        new_col = rng.integers(-8, 8, size=128)
        matrix[:, 3] = new_col
        for device, allocation, _ in twins.values():
            device.update_col(allocation, 3, new_col)
        step(matrix)

        # disable_analog_mode: same error as the loop, and no plan is left.
        for name, (device, allocation, _) in twins.items():
            device.disable_analog_mode(allocation)
            with pytest.raises(AllocationError, match="has been disabled"):
                device.exec_mvm_batch(allocation, np.ones((2, 128), dtype=np.int64),
                                      input_bits=input_bits, backend=backends[name])
        assert plan_allocation.device_plans == {input_bits: None}

    def test_release_drops_the_plan_with_its_tile_plans(self):
        device, allocation, _ = programmed_device("row_band_ragged")
        assert device.device_plan(allocation, 4) is not None
        device.release(allocation)
        assert not allocation.device_plans
        assert all(device.chip.hct(i).ace.cached_plans == 0
                   for i in allocation.hct_indices)

    def test_plans_of_one_allocation_share_the_stacked_weights(self):
        device, allocation, matrix = programmed_device("grid_ragged")
        rng = derive_rng("kernels-device-plan-shared")
        for input_bits in (3, 2):
            vectors = rng.integers(0, 1 << input_bits, size=(5, 200))
            out = device.exec_mvm_batch(allocation, vectors, input_bits=input_bits,
                                        backend="vectorized")
            assert np.array_equal(out, vectors @ matrix)
        first, second = (allocation.device_plans[bits] for bits in (3, 2))
        assert second is not first and second.weights is first.weights
        assert [plan.input_bits for _, plan, _, _ in second.tiles] == [2] * 39

    def test_out_of_range_input_raises_before_any_tile_is_charged(self):
        """The one intended difference: the loop validated tile by tile, so
        it had charged the tiles ahead of the offending rows."""
        case = "row_band_8_tiles"
        vectors = np.ones((3, 128), dtype=np.int64)
        vectors[1, 70] = 16  # rows 64..79 are the fifth tile
        messages = {}
        moved = {}
        for name in ("plan", "loop"):
            device, allocation, _ = programmed_device(case)
            if name == "loop":
                force_per_tile_loop(allocation, 4)
            device.exec_mvm_batch(allocation, np.ones((3, 128), dtype=np.int64),
                                  input_bits=4, backend="vectorized")
            before = device_state(device, allocation)
            with pytest.raises(QuantizationError) as raised:
                device.exec_mvm_batch(allocation, vectors, input_bits=4,
                                      backend="vectorized")
            messages[name] = str(raised.value)
            after = device_state(device, allocation)
            moved[name] = [b != a for b, a in
                           zip(before["tile_ledgers"], after["tile_ledgers"])]
            if name == "plan":
                assert after == before
        assert messages["plan"] == messages["loop"] == "input values exceed 4 bits"
        assert moved["plan"] == [False] * 8
        assert moved["loop"] == [True] * 4 + [False] * 4


class TestShardKernelCache:
    def test_cache_built_lazily_and_reused(self):
        tile = HybridComputeTile(HctConfig.small())
        handle = tile.set_matrix(np.eye(8, dtype=np.int64), value_bits=4)
        assert tile.ace.cached_kernels == 0
        vectors = np.ones((2, 8), dtype=np.int64)
        # The tensors belong to the vectorized interpreter (pinned here so
        # the assertion holds under any REPRO_BACKEND default).
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="vectorized")
        assert tile.ace.cached_kernels == 1
        kernel = tile.ace.kernel_for(handle)
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="vectorized")
        assert tile.ace.kernel_for(handle) is kernel  # reused, not rebuilt

    def test_cache_invalidated_on_reprogram(self):
        tile = HybridComputeTile(HctConfig.small())
        matrix = np.eye(8, dtype=np.int64)
        handle = tile.set_matrix(matrix, value_bits=4)
        vectors = np.arange(16, dtype=np.int64).reshape(2, 8) % 4
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="vectorized")
        assert tile.ace.cached_kernels == 1
        new_handle = tile.ace.update_row(handle, 0, np.array([3, 0, 0, 0, 0, 0, 0, 1]))
        assert tile.ace.cached_kernels == 0  # stale entry dropped with release
        updated = matrix.copy()
        updated[0] = [3, 0, 0, 0, 0, 0, 0, 1]
        out = tile.execute_mvm_batch(new_handle, vectors, input_bits=2,
                                     backend="vectorized")
        assert np.array_equal(out.values, vectors @ updated)

    def test_exact_fast_path_disabled_under_programming_noise(self):
        noisy = NoiseConfig(
            programming_noise=True, read_noise=False, ir_drop=False, seed=1
        )
        tile = HybridComputeTile(HctConfig.small(), noise=noisy)
        handle = tile.set_matrix(np.eye(8, dtype=np.int64) * 3, value_bits=4)
        tile.execute_mvm_batch(handle, np.ones((1, 8), dtype=np.int64), input_bits=1)
        assert not tile.ace.kernel_for(handle).exact

        clean = HybridComputeTile(HctConfig.small())
        clean_handle = clean.set_matrix(np.eye(8, dtype=np.int64) * 3, value_bits=4)
        clean.execute_mvm_batch(clean_handle, np.ones((1, 8), dtype=np.int64), input_bits=1)
        assert clean.ace.kernel_for(clean_handle).exact


class TestReadNoiseStreams:
    """One generator per crossbar, named ``(seed, tile_id, array_id)``; one
    crossbar's looped and batched reads are the same samples."""

    READ_NOISE = NoiseConfig(programming_noise=False, read_noise=True, ir_drop=False,
                             read_sigma=0.05, seed=5)

    @staticmethod
    def _noisy_batch(seed, backend=None):
        rng = derive_rng("kernels-streams")
        matrix = rng.integers(-32, 32, size=(64, 64))
        vectors = rng.integers(0, 128, size=(8, 64))
        device = DarthPumDevice(noise=NoiseConfig(read_sigma=0.05, seed=seed))
        allocation = device.set_matrix(matrix, element_size=6, precision=0)
        return device.exec_mvm_batch(allocation, vectors, input_bits=7, backend=backend)

    def test_crossbars_of_one_ace_draw_from_different_streams(self):
        tile = HybridComputeTile(HctConfig.small(), noise=NoiseConfig(seed=5))
        # Six slices; the two lowest are programmed with the same levels.
        handle = tile.set_matrix(np.full((8, 8), -3, dtype=np.int64), value_bits=6)
        first, second = (tile.ace.crossbar(i) for i in handle.array_ids[:2])
        assert np.array_equal(first.negative_levels, second.negative_levels)
        assert not np.array_equal(first.negative_conductances, second.negative_conductances)
        states = [tile.ace.crossbar(i).noise.rng.bit_generator.state["state"]["state"]
                  for i in handle.array_ids]
        assert len(set(states)) == len(states) == 6

    def test_same_array_on_two_tiles_draws_from_different_streams(self):
        device = DarthPumDevice(
            config=ChipConfig(hct=HctConfig.small(), num_hcts=2), noise=NoiseConfig(seed=5)
        )
        crossbars = []
        for _ in range(2):  # one tile-filling matrix each: same array ids, two tiles
            allocation = device.set_matrix(np.ones((8, 8), dtype=np.int64), element_size=8)
            (index,) = allocation.hct_indices
            crossbars.append(device.chip.hct(index).ace.crossbar(0))
        one, other = crossbars
        assert one is not other
        assert np.array_equal(one.positive_levels, other.positive_levels)
        assert not np.array_equal(one.positive_conductances, other.positive_conductances)
        assert one.noise.rng.bit_generator.state != other.noise.rng.bit_generator.state

    def test_identically_seeded_devices_agree_and_seeds_differ(self):
        assert np.array_equal(self._noisy_batch(5), self._noisy_batch(5))
        assert np.array_equal(self._noisy_batch(5), self._noisy_batch(5, "reference"))
        assert not np.array_equal(self._noisy_batch(5), self._noisy_batch(6))

    @pytest.mark.parametrize(
        "parasitics", [None, ParasiticModel(wire_resistance_ohm=0.5)], ids=["bare", "ir_drop"]
    )
    def test_looped_equals_batched_at_the_crossbar(self, parasitics):
        rng = derive_rng("kernels-looped-batched")
        positive = rng.integers(0, 2, size=(16, 12))
        negative = rng.integers(0, 2, size=(16, 12)) * (1 - positive)
        vectors = rng.integers(0, 2, size=(9, 16))
        looped, batched = (
            AnalogCrossbar(rows=16, cols=12, noise=self.READ_NOISE, parasitics=parasitics)
            for _ in range(2)
        )
        for crossbar in (looped, batched):
            crossbar.program_differential(positive, negative)
        whole = batched.mvm_batch(vectors).values
        rows = np.stack([looped.mvm_1bit(vector).values for vector in vectors])
        assert np.array_equal(whole, rows)
        assert not np.array_equal(whole, vectors @ (positive - negative))  # noise was on
        assert (looped.noise.rng.bit_generator.state
                == batched.noise.rng.bit_generator.state)
        # batch x used_cols normals, no more: a fresh twin generator lands
        # on the same state after exactly that many.
        twin = np.random.default_rng(self.READ_NOISE.seed)
        twin.standard_normal(vectors.shape[0] * 12)
        assert twin.bit_generator.state == batched.noise.rng.bit_generator.state


class TestRegisterMatrixMemoisation:
    def test_identical_reregistration_skips_programming(self):
        rng = derive_rng("kernels-4")
        matrix = rng.integers(-8, 8, size=(16, 16))
        server = PumServer(num_devices=2)
        first = server.register_matrix("m", matrix, element_size=4)
        energy_after_first = server.pool.total_ledger().energy_pj
        again = server.register_matrix("m", matrix.copy(), element_size=4)
        assert again is first  # same live allocation, nothing reprogrammed
        assert server.registration_reuses == 1
        assert server.pool.total_ledger().energy_pj == energy_after_first

    def test_changed_matrix_reprograms(self):
        rng = derive_rng("kernels-5")
        matrix = rng.integers(-8, 8, size=(16, 16))
        server = PumServer(num_devices=2)
        first = server.register_matrix("m", matrix, element_size=4)
        changed = matrix.copy()
        changed[0, 0] += 1
        second = server.register_matrix("m", changed, element_size=4)
        assert second is not first
        assert server.registration_reuses == 0
        vector = np.ones(16, dtype=np.int64)
        future = server.submit("m", vector, input_bits=1)
        server.run_until_idle()
        assert np.array_equal(future.result().result, vector @ changed)

    def test_changed_quantisation_config_reprograms(self):
        matrix = np.eye(16, dtype=np.int64)
        server = PumServer(num_devices=2)
        first = server.register_matrix("m", matrix, element_size=4)
        second = server.register_matrix("m", matrix, element_size=8)
        assert second is not first
        assert server.registration_reuses == 0


class TestParallelFanout:
    @staticmethod
    def _sharded_pool():
        # One tiny HCT per device forces a multi-row-band placement, so the
        # fan-out really spans devices.
        config = ChipConfig(hct=HctConfig.small(), num_hcts=2)
        return DevicePool(num_devices=3, config=config, policy="round_robin")

    def test_parallel_exec_mvm_batch_matches_serial(self):
        rng = derive_rng("kernels-6")
        matrix = rng.integers(-100, 100, size=(96, 16))
        vectors = rng.integers(0, 256, size=(4, 96))
        pool = self._sharded_pool()
        allocation = pool.set_matrix(matrix, element_size=8, precision=0)
        assert allocation.num_shards > 1
        assert len(allocation.devices_used) > 1
        result = pool.exec_mvm_batch(allocation, vectors, input_bits=8)
        assert np.array_equal(result, vectors @ matrix)

    def test_parallel_exec_requests_matches_serial(self):
        rng = derive_rng("kernels-7")
        matrices = [rng.integers(-8, 8, size=(12, 10)) for _ in range(3)]
        request_vectors = [rng.integers(0, 16, size=(3, 12)) for _ in range(3)]
        pool = DevicePool(num_devices=3, policy="round_robin")
        allocations = [pool.set_matrix(m, element_size=4) for m in matrices]
        assert len({a.devices_used[0] for a in allocations}) > 1
        # A list of requests is a loop of calls: each reaches its own device.
        outputs = [
            pool.exec_mvm_batch(allocation, vectors, input_bits=4)
            for allocation, vectors in zip(allocations, request_vectors)
        ]
        for output, matrix, vectors in zip(outputs, matrices, request_vectors):
            assert np.array_equal(output, vectors @ matrix)

    def test_failing_device_propagates_after_joining_siblings(self):
        rng = derive_rng("kernels-8")
        matrix = rng.integers(-100, 100, size=(96, 16))
        pool = self._sharded_pool()
        allocation = pool.set_matrix(matrix, element_size=8, precision=0)
        assert len(allocation.devices_used) > 1
        failing = allocation.devices_used[0]
        original = pool.devices[failing].exec_mvm_batch

        def boom(*args, **kwargs):
            raise RuntimeError("injected device fault")

        pool.devices[failing].exec_mvm_batch = boom
        vectors = rng.integers(0, 256, size=(2, 96))
        with pytest.raises(RuntimeError, match="injected device fault"):
            pool.exec_mvm_batch(allocation, vectors, input_bits=8)
        # Every sibling worker was joined before the raise, so the pool is
        # immediately reusable once the fault clears.
        pool.devices[failing].exec_mvm_batch = original
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=8)
        assert np.array_equal(out, vectors @ matrix)

    def test_backend_override_per_call(self):
        rng = derive_rng("kernels-9")
        matrix = rng.integers(-8, 8, size=(8, 8))
        vectors = rng.integers(0, 4, size=(2, 8))
        pool = DevicePool(num_devices=1, backend="reference")
        allocation = pool.set_matrix(matrix, element_size=4)
        default_out = pool.exec_mvm_batch(allocation, vectors, input_bits=2)
        override_out = pool.exec_mvm_batch(
            allocation, vectors, input_bits=2, backend="vectorized"
        )
        assert np.array_equal(default_out, override_out)
        assert np.array_equal(override_out, vectors @ matrix)


class TestWorkloadEquivalence:
    """AES / CNN / LLM serving is bit-identical under either engine."""

    @staticmethod
    def _servers():
        return {
            backend: PumServer(num_devices=2, scheduling=StaticBatchingPolicy(8, 2),
                               backend=backend)
            for backend in ("reference", "vectorized")
        }

    def test_aes_mixcolumns(self):
        rng = derive_rng("kernels-10")
        columns = rng.integers(0, 256, size=(8, 4)).astype(np.int64)
        outs = {}
        servers = self._servers()
        for engine, server in servers.items():
            outs[engine] = serve_aes_mixcolumns(server, columns)
        assert np.array_equal(outs["reference"], outs["vectorized"])
        ref_ledger = servers["reference"].pool.total_ledger()
        vec_ledger = servers["vectorized"].pool.total_ledger()
        assert ref_ledger.cycles == vec_ledger.cycles
        assert ref_ledger.energy_pj == vec_ledger.energy_pj
        assert ref_ledger.energy_breakdown == vec_ledger.energy_breakdown

    def test_cnn_conv(self):
        rng = derive_rng("kernels-11")
        conv = Conv2d(in_channels=2, out_channels=3, kernel=3,
                      rng=derive_rng("kernels-12"))
        image = rng.normal(size=(1, 2, 6, 6))
        outs = {}
        for engine, server in self._servers().items():
            device, _ = serve_cnn_conv(server, conv, image, positions=4)
            outs[engine] = device
        assert np.array_equal(outs["reference"], outs["vectorized"])

    def test_llm_projection(self):
        rng = derive_rng("kernels-13")
        weight = rng.normal(size=(12, 8))
        activations = rng.normal(size=(5, 12))
        outs = {}
        for engine, server in self._servers().items():
            device, _ = serve_llm_projection(server, weight, activations)
            outs[engine] = device
        assert np.array_equal(outs["reference"], outs["vectorized"])


class TestBatchedHelpers:
    def test_parasitic_apply_batch_matches_loop(self):
        rng = derive_rng("kernels-14")
        model = ParasiticModel(wire_resistance_ohm=25.0)
        conductances = rng.uniform(1e-6, 1e-4, size=(8, 6))
        inputs = rng.integers(0, 2, size=(5, 8))
        batched = model.apply_batch(conductances, inputs)
        for index in range(inputs.shape[0]):
            assert np.array_equal(batched[index], model.apply(conductances, inputs[index]))

    def test_compensation_apply_batch_matches_loop(self):
        rng = derive_rng("kernels-15")
        compensation = ParasiticCompensation()
        raw = rng.integers(-20, 20, size=(6, 9))
        inputs = rng.integers(0, 2, size=(6, 12))
        batched = compensation.recover_batch(raw, inputs)
        for index in range(raw.shape[0]):
            assert np.array_equal(
                batched[index], compensation.recover(raw[index], inputs[index])
            )


class TestBitPlaneScratch:
    def test_slice_inputs_tensor_out_matches_allocation(self):
        rng = derive_rng("kernels-16")
        vectors = rng.integers(0, 32, size=(5, 11))
        fresh = slice_inputs_tensor(vectors, 5)
        scratch = np.empty((5, 5, 11), dtype=np.int64)
        written = slice_inputs_tensor(vectors, 5, out=scratch)
        assert written is scratch
        assert np.array_equal(written, fresh)
        with pytest.raises(QuantizationError, match="out="):
            slice_inputs_tensor(vectors, 5, out=np.empty((4, 5, 11), dtype=np.int64))

    def test_ace_scratch_is_reused_per_shape(self):
        tile = HybridComputeTile(HctConfig.small())
        planes = tile.ace.bitplane_scratch(3, 4, 8)
        assert tile.ace.bitplane_scratch(3, 4, 8) is planes
        assert tile.ace.bitplane_scratch(3, 5, 8) is not planes
        floats = tile.ace.float_scratch(4, 8)
        assert tile.ace.float_scratch(4, 8) is floats

    def test_steady_state_batches_reuse_scratch_and_stay_correct(self):
        tile = HybridComputeTile(HctConfig.small())
        matrix = np.arange(32, dtype=np.int64).reshape(8, 4) % 7
        handle = tile.set_matrix(matrix, value_bits=4)
        rng = derive_rng("kernels-17")
        for _ in range(3):
            vectors = rng.integers(0, 8, size=(4, 8))
            out = tile.execute_mvm_batch(
                handle, vectors, input_bits=3, backend="vectorized"
            )
            assert np.array_equal(out.values, vectors @ matrix)
