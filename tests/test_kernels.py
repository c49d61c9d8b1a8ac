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

import warnings

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
    metrics,
)
from repro.analog.bitslicing import slice_inputs, slice_inputs_tensor
from repro.analog.compensation import ParasiticCompensation
from repro.analog.crossbar import AnalogCrossbar
from repro.analog.kernels import build_shard_kernel
from repro.core.hct import HybridComputeTile
from repro.digital.dce import DceConfig
from repro.errors import AllocationError, ConfigurationError, QuantizationError
from repro.metrics import merge_ledgers
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
        noise=NoiseConfig(read_sigma=0.0, stuck_at_rate=0.03, seed=11),
        parasitics=None,
    ),
    "read_noise": dict(
        noise=NoiseConfig(programming_sigma=0.0, seed=3),
        parasitics=None,
    ),
    "ir_drop": dict(
        noise=None, parasitics=ParasiticModel(wire_resistance_ohm=0.5)
    ),
    "full_stack": dict(
        noise=NoiseConfig(seed=5),
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
        assert {"reference", "vectorized"} <= set(BACKENDS)
        with pytest.raises(ConfigurationError, match=(
            r"unknown execution backend 'turbo'; expected one of "
            r"\('estimate', 'reference', 'vectorized'\) or an ExecutionBackend instance"
        )):
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
    assert tile.arbiter.now == ref_tile.arbiter.now
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


def peek_vr(pipeline, vr):
    """``pipeline.read_vr(vr)``, without unpacking pending words: decoded
    from a copy of them, as ``set_vr_words`` left them, so the next call
    still finds its own words pending."""
    bits = pipeline._bits[vr].copy()
    if pipeline._pending is not None and pipeline._pending[0] == vr:
        words = pipeline._pending[1].copy()
        bits[:] = False
        bits[:, :words.shape[0]] = (words & pipeline.bit_weights) != 0
    return np.bitwise_or.reduce(np.where(bits, pipeline.bit_weights, 0), axis=0)


def device_state(device, allocation):
    """Everything a device call moves besides its result; registers are
    read with :func:`peek_vr`, so reading the state flushes nothing."""
    tiles = [device.chip.hct(index) for index in allocation.hct_indices]
    return {
        "runtime_ledger": device.ledger.snapshot(),
        "tile_ledgers": [tile.ledger.snapshot() for tile in tiles],
        "iiu": [(tile.iiu.injections, tile.iiu.front_end_slots_saved)
                for tile in tiles],
        "transposes": [tile.transpose_unit.vector_count for tile in tiles],
        "clocks": [tile.arbiter.now for tile in tiles],
        "arbiters": [dict(tile.arbiter._owners) for tile in tiles],
        "mvm_counts": [
            [tile.ace.crossbar(i).mvm_count for i in handle.array_ids]
            for tile, handle in zip(tiles, allocation.handles.values())
        ],
        "accumulators": [
            [peek_vr(tile.dce.pipeline(p), 0).tolist() for p in range(handle.col_tiles)]
            for tile, handle in zip(tiles, allocation.handles.values())
        ],
    }


def mirrored(call, allocation, *args, **kwargs):
    """``call(allocation, *args, **kwargs)`` -- a device's ``exec_mvm`` or
    ``exec_mvm_batch`` -- asserting that the device's runtime ledger moved
    by exactly the energy units the allocation's tiles did: what a served
    batch's energy is read from."""
    device = call.__self__
    tiles = [device.chip.hct(index) for index in allocation.hct_indices]
    runtime = device.ledger.energy_units
    executed = sum(tile.ledger.energy_units for tile in tiles)
    out = call(allocation, *args, **kwargs)
    assert (device.ledger.energy_units - runtime
            == sum(tile.ledger.energy_units for tile in tiles) - executed)
    return out


class TestDevicePlanEquivalence:
    """One contraction for all tiles == the per-tile loop == ``reference``,
    on every result and every piece of simulated state, the runtime ledger
    mirroring the tiles' energy on each."""

    @pytest.mark.parametrize("case", sorted(DEVICE_PLAN_CASES))
    def test_plan_path_matches_the_per_tile_loop_and_reference(self, case):
        input_bits = DEVICE_PLAN_CASES[case][2]
        backends = {"plan": "vectorized", "loop": "vectorized",
                    "reference": "reference"}
        twins = {name: programmed_device(case) for name in backends}
        force_per_tile_loop(twins["loop"][1], input_bits)
        estimator, estimated, _ = programmed_device(case)
        rng = derive_rng("kernels-device-plan-vectors", case)
        for batch in (1, 5, 32, 5):
            matrix = twins["plan"][2]
            vectors = rng.integers(0, 1 << input_bits, size=(batch, matrix.shape[0]))
            outs, states = {}, {}
            for name, (device, allocation, _) in twins.items():
                outs[name] = mirrored(
                    device.exec_mvm_batch, allocation, vectors,
                    input_bits=input_bits, backend=backends[name],
                )
                states[name] = device_state(device, allocation)
            assert np.array_equal(outs["plan"], vectors @ matrix)
            for name in ("loop", "reference"):
                assert np.array_equal(outs["plan"], outs[name]), name
                assert states["plan"] == states[name], name
            # ``estimate`` charges what the engines do, runtime ledger included.
            mirrored(estimator.exec_mvm_batch, estimated, vectors,
                     input_bits=input_bits, backend="estimate")
            assert estimator.ledger == twins["plan"][0].ledger
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
        NoiseConfig(programming_sigma=0.0, seed=3),
        NoiseConfig(read_sigma=0.0, stuck_at_rate=0.03, seed=11),
        NoiseConfig.paper_default(),
    ], ids=["read_noise", "frozen_program_noise", "paper_default"])
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
            outs[backend] = mirrored(
                device.exec_mvm_batch, allocation, vectors,
                input_bits=input_bits, backend=backend,
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
                name: mirrored(device.exec_mvm_batch, allocation, vectors,
                               input_bits=input_bits, backend=backends[name])
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

        # update_row reprograms one tile: the plan stays, its stacked
        # weights rewritten where they lie.
        new_row = rng.integers(-8, 8, size=16)
        matrix[37] = new_row
        for device, allocation, _ in twins.values():
            device.update_row(allocation, 37, new_row)
        assert plan_allocation.device_plans == {input_bits: compiled}
        step(matrix)
        assert plan_device.device_plan(plan_allocation, input_bits) is compiled
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


class TestDevicePlanReplayState:
    """A plan call's state after a sequence that moves its bound entries
    about -- batch sizes 32 -> 16 -> 32, a register read, a ``reference``
    call on one of its tiles, an entry evicted past
    ``DevicePlan.SCRATCH_BATCH_SIZES`` -- equals the per-tile loop's after
    every step, ledgers ``==`` on integer units and in category order.
    With ``read_every_step`` off the registers are read only where the
    sequence says, so a call finds its own words still pending."""

    @staticmethod
    def _moved(device, allocation, read):
        """``device_state`` plus every ledger's ``repr``; without ``read``,
        what it holds besides the accumulators, which are not read (a read
        unpacks the words a call left pending)."""
        tiles = [device.chip.hct(index) for index in allocation.hct_indices]
        ledgers = ([(tile.ledger, repr(tile.ledger)) for tile in tiles],
                   (device.ledger, repr(device.ledger)))
        if read:
            return device_state(device, allocation), ledgers
        return ledgers, [
            (tile.iiu.injections, tile.iiu.front_end_slots_saved,
             tile.transpose_unit.vector_count, tile.arbiter.now, dict(tile.arbiter._owners),
             [tile.ace.crossbar(i).mvm_count for i in handle.array_ids])
            for tile, handle in zip(tiles, allocation.handles.values())
        ]

    @pytest.mark.parametrize("read_every_step", [True, False], ids=["read", "unread"])
    @pytest.mark.parametrize("case", ["row_band_8_tiles", "grid_ragged", "paper_tile_64"])
    def test_state_matches_the_loop_through_entry_moves(self, case, read_every_step):
        input_bits = DEVICE_PLAN_CASES[case][2]
        twins = {name: programmed_device(case) for name in ("plan", "loop")}
        force_per_tile_loop(twins["loop"][1], input_bits)
        matrix = twins["plan"][2]
        rng = derive_rng("kernels-device-plan-replay-state", case)
        plan_device, plan_allocation, _ = twins["plan"]

        def compare(read):
            states = [self._moved(device, allocation, read)
                      for device, allocation, _ in twins.values()]
            assert states[0] == states[1]

        def call(batch):
            vectors = rng.integers(0, 1 << input_bits, size=(batch, matrix.shape[0]))
            for device, allocation, _ in twins.values():
                out = mirrored(device.exec_mvm_batch, allocation, vectors,
                               input_bits=input_bits, backend="vectorized")
                assert np.array_equal(out, vectors @ matrix)
            compare(read_every_step)

        for batch in (32, 32, 16):
            call(batch)
        compare(True)  # a read of every accumulator between calls
        for batch in (32, 32, 16, 32):
            call(batch)
        compare(True)
        # A reference call on the first tile leaves its registers as bits.
        first = plan_allocation.placement.tiles[0]
        sub = rng.integers(0, 1 << input_bits, size=(3, first.row_end - first.row_start))
        for device, allocation, _ in twins.values():
            tile = device.chip.hct(allocation.hct_indices[first.hct_slot])
            tile.execute_mvm_batch(allocation.handles[first.hct_slot], sub,
                                   input_bits=input_bits, backend="reference")
        compare(read_every_step)
        call(32)
        call(16)
        # Evict the 32-row entry, then call at 32 again.
        plan = plan_device.device_plan(plan_allocation, input_bits)
        for batch in range(1, plan.SCRATCH_BATCH_SIZES + 1):
            call(batch)
        assert 32 not in plan.scratch
        call(32)
        call(32)
        compare(True)
        assert 32 in plan.scratch


#: Every way the state a call leaves is read, from ``(device, tiles,
#: crossbars)``; each is made the first read after the calls.
DEVICE_READS = {
    "repr": lambda device, tiles, _: [repr(tile.ledger) for tile in tiles],
    "==": lambda device, tiles, _: [tile.ledger for tile in tiles],  # the assert's ``==``
    "snapshot": lambda device, tiles, _: [tile.ledger.snapshot() for tile in tiles],
    "breakdowns": lambda device, tiles, _: [
        (list(tile.ledger.cycle_breakdown.items()), list(tile.ledger.energy_breakdown.items()))
        for tile in tiles],
    "merge_ledgers": lambda device, tiles, _: repr(merge_ledgers(tile.ledger for tile in tiles)),
    "total_ledger": lambda device, tiles, _: repr(device.chip.total_ledger()),
    "mvm_count": lambda device, tiles, crossbars: [crossbar.mvm_count for crossbar in crossbars],
    "counters": lambda device, tiles, _: [
        (tile.iiu.injections, tile.iiu.front_end_slots_saved, tile.transpose_unit.vector_count)
        for tile in tiles],
}
DEVICE_READ_FORMS = sorted(DEVICE_READS)


class TestLazySettle:
    """A steady plan call only counts itself; its tile ledgers, crossbars
    and IIU / transpose counters fold ``calls x tally`` when first read or
    written.  After k calls every read form equals what the eager
    ``reference`` interpreter charged over the same k calls (ledgers ``==``
    on integer units, ``repr`` in category order), and every write placed
    between calls settles first."""

    CASE = "row_band_8_tiles"

    def _twins(self):
        """``{"lazy": plan path, "eager": reference}``: ``(device,
        allocation, matrix, tiles, crossbars)`` each."""
        twins = {}
        for name in ("lazy", "eager"):
            device, allocation, matrix = programmed_device(self.CASE)
            tiles = [device.chip.hct(index) for index in allocation.hct_indices]
            crossbars = [tile.ace.crossbar(array_id)
                         for tile, handle in zip(tiles, allocation.handles.values())
                         for array_id in handle.array_ids]
            twins[name] = [device, allocation, matrix, tiles, crossbars]
        return twins

    def _call(self, twins, batch, rng, check=True):
        input_bits = DEVICE_PLAN_CASES[self.CASE][2]
        matrix = twins["lazy"][2]
        vectors = rng.integers(0, 1 << input_bits, size=(batch, matrix.shape[0]))
        for name, backend in (("lazy", "vectorized"), ("eager", "reference")):
            device, allocation, matrix = twins[name][:3]
            out = device.exec_mvm_batch(allocation, vectors, input_bits=input_bits,
                                        backend=backend)
            assert np.array_equal(out, vectors @ matrix) or not check

    @staticmethod
    def _reads(twins, form=None):
        forms = DEVICE_READ_FORMS if form is None else [form]
        return [[DEVICE_READS[name](device, tiles, crossbars) for name in forms]
                for device, _, _, tiles, crossbars in twins.values()]

    def _k_calls_read_as_eager(self, form, calls=5):
        twins = self._twins()
        rng = derive_rng("kernels-lazy-settle", form)
        for _ in range(calls):
            self._call(twins, 32, rng)
        tiles = twins["lazy"][3]
        assert all(tile.ledger._claim[0].calls == calls for tile in tiles)
        lazy, eager = self._reads(twins, form)
        assert lazy == eager
        assert self._reads(twins)[0] == self._reads(twins)[1]

    @pytest.mark.parametrize("form", DEVICE_READ_FORMS)
    def test_k_calls_read_as_k_eager_charges(self, form):
        self._k_calls_read_as_eager(form)

    def test_an_off_by_one_settle_fails(self, monkeypatch):
        def long_settle(target):
            held = target._claim
            if held is not None and held[0].calls != held[2]:
                calls, folded = held[0].calls, held[2]
                held[2] = calls
                target._fold(held[1], calls - folded + 1)

        monkeypatch.setattr(metrics, "settle", long_settle)
        for form in DEVICE_READ_FORMS:
            with pytest.raises(AssertionError):
                self._k_calls_read_as_eager(form)

    @pytest.mark.parametrize("step", [
        "charge", "rewind", "reprogram", "disable_digital_mode", "reference",
        "gate_level", "batch_16", "evict", "release",
    ])
    def test_a_write_between_calls_settles_first(self, step):
        twins = self._twins()
        rng = derive_rng("kernels-lazy-settle-step", step)
        for _ in range(3):
            self._call(twins, 32, rng)
        input_bits = DEVICE_PLAN_CASES[self.CASE][2]
        for device, allocation, matrix, tiles, crossbars in twins.values():
            first = allocation.placement.tiles[0]
            handle = allocation.handles[first.hct_slot]
            sub = derive_rng("kernels-lazy-settle-sub").integers(
                0, 1 << input_bits, size=(3, first.row_end - first.row_start))
            if step == "charge":
                tiles[0].ledger.charge("test.between", cycles=2.5, energy_pj=0.75)
            elif step == "rewind":
                crossbars[0].rewind()
            elif step == "reprogram":
                matrix[...] = ~matrix  # -m - 1 stays in range
                device.update_matrix(allocation, matrix)
            elif step == "disable_digital_mode":
                device.disable_digital_mode(allocation.hct_indices[1])
            elif step == "reference":
                tiles[0].execute_mvm_batch(handle, sub, input_bits=input_bits,
                                           backend="reference")
            elif step == "gate_level":
                tiles[0].execute_mvm(handle, sub[0], input_bits=input_bits)
            elif step == "release":
                device.release(allocation)
        if step == "batch_16":
            for batch in (16, 32, 16, 16, 32):
                self._call(twins, batch, rng)
        elif step == "evict":
            plan = twins["lazy"][0].device_plan(twins["lazy"][1], input_bits)
            for batch in range(1, plan.SCRATCH_BATCH_SIZES + 1):
                self._call(twins, batch, rng)
            assert 32 not in plan.scratch
        if step != "release":
            for _ in range(2):
                self._call(twins, 32, rng, check=step != "disable_digital_mode")
        lazy, eager = self._reads(twins)
        assert lazy == eager


#: label -> (pipeline depth, element size, input bits) of a 40x20 matrix on
#: small tiles: three 16-row bands (the last ragged) of two column tiles.
#: The wrap bound ``16 * (2**input_bits - 1) * 2**(element_size - 1) <
#: 2**(depth - 1)`` holds on the first three (1920 < 2048, 3840 < 4096,
#: 1920 < 2**31) and fails on the last three (1920, 3840, 3968 >= 2048 or
#: 1024), where an accumulator can wrap.
WRAP_BOUND_CASES = {
    "depth_12": (12, 4, 4),
    "depth_13_wider_weights": (13, 5, 4),
    "depth_32": (32, 4, 4),
    "depth_11": (11, 4, 4),
    "depth_12_wider_weights": (12, 5, 4),
    "depth_12_wider_inputs": (12, 4, 5),
}


def wrapped_product(vectors, matrix, depth, band_rows=16):
    """The per-tile loop's answer: every band's sum read back from a
    ``depth``-bit two's-complement accumulator, then summed."""
    half = 1 << (depth - 1)
    return sum(
        (vectors[:, start: start + band_rows] @ matrix[start: start + band_rows] + half)
        % (2 * half) - half
        for start in range(0, matrix.shape[0], band_rows)
    )


class TestDevicePlanEligibility:
    """The device plan exists exactly where one matmul is provably the
    answer -- no accumulator can wrap, every float64 sum is exact -- and is
    then bit-identical, state included, to the per-tile loop and
    ``reference``; elsewhere the loop serves and still wraps."""

    @staticmethod
    def _wrap_bound_twins(case, names):
        """One device per name holding the case's 40x20 matrix, its config,
        its generator and the matrix."""
        depth, element_size, input_bits = WRAP_BOUND_CASES[case]
        magnitude = 1 << (element_size - 1)
        config = ChipConfig(hct=HctConfig(
            dce=DceConfig(num_pipelines=8, pipeline_depth=depth, rows=16, cols=24),
            ace=HctConfig.small().ace,
        ), num_hcts=16)
        rng = derive_rng("kernels-wrap-bound", case)
        matrix = rng.integers(-magnitude, magnitude, size=(40, 20))
        matrix[:, 0] = -magnitude  # all-``top`` rows sum at the bound here
        twins = {}
        for name in names:
            device = DarthPumDevice(config=config)
            twins[name] = device, device.set_matrix(matrix, element_size=element_size)
        return twins, rng, matrix

    @pytest.mark.parametrize("case", sorted(WRAP_BOUND_CASES))
    def test_plan_exactly_when_no_accumulator_can_wrap(self, case):
        depth, element_size, input_bits = WRAP_BOUND_CASES[case]
        magnitude, top = 1 << (element_size - 1), (1 << input_bits) - 1
        eligible = 16 * top * magnitude < 1 << (depth - 1)
        backends = {"plan": "vectorized", "loop": "vectorized",
                    "reference": "reference"}
        twins, rng, matrix = self._wrap_bound_twins(case, backends)
        force_per_tile_loop(twins["loop"][1], input_bits)
        plan_device, plan_allocation = twins["plan"]
        assert (plan_device.device_plan(plan_allocation, input_bits) is not None) == eligible
        extreme = np.full((3, 40), top)
        for vectors in (rng.integers(0, top + 1, size=(5, 40)), extreme, extreme):
            outs, states = {}, {}
            for name, (device, allocation) in twins.items():
                outs[name] = mirrored(
                    device.exec_mvm_batch, allocation, vectors,
                    input_bits=input_bits, backend=backends[name],
                )
                tiles = [device.chip.hct(index) for index in allocation.hct_indices]
                states[name] = (device_state(device, allocation),
                                [repr(tile.ledger) for tile in tiles], repr(device.ledger))
            assert np.array_equal(outs["plan"], wrapped_product(vectors, matrix, depth))
            for name in ("loop", "reference"):
                assert np.array_equal(outs["plan"], outs[name]), name
                assert states["plan"] == states[name], name
        # Only where the bound fails does the loop's accumulator wrap.
        assert np.array_equal(outs["plan"], extreme @ matrix) == eligible

    @pytest.mark.parametrize("case", sorted(WRAP_BOUND_CASES))
    def test_executed_gates_wrap_like_wrap_accumulator(self, case):
        """The fourth leg: single calls reduce with executed NOR-gate adds
        (``InstructionInjectionUnit.inject_reduction``), and their
        accumulators wrap exactly as the analytic ``wrap_accumulator`` of
        the other three legs does -- where the bound holds, not at all."""
        depth, element_size, input_bits = WRAP_BOUND_CASES[case]
        top = (1 << input_bits) - 1
        wraps = 16 * top * (1 << (element_size - 1)) >= 1 << (depth - 1)
        twins, rng, matrix = self._wrap_bound_twins(case, ("gates", "reference"))
        vectors = np.vstack([np.full(40, top), rng.integers(0, top + 1, size=(8, 40))])
        gates, gate_allocation = twins["gates"]
        looped = np.stack([gates.exec_mvm(gate_allocation, vector, input_bits=input_bits)
                           for vector in vectors])
        device, allocation = twins["reference"]
        analytic = device.exec_mvm_batch(allocation, vectors, input_bits=input_bits,
                                         backend="reference")
        assert np.array_equal(looped, wrapped_product(vectors, matrix, depth))
        assert np.array_equal(looped, analytic)
        if wraps:
            assert not np.array_equal(looped[0], vectors[0] @ matrix)
        else:
            assert np.array_equal(looped, vectors @ matrix)

    @pytest.mark.parametrize("input_bits", [40, 41, 44, 56])
    def test_sums_past_float64_are_served_exactly(self, input_bits):
        """64 rows of 8-bit weights: ``64 * (2**40 - 1) * 128 < 2**53``,
        one more input bit is not.  Past the bound the vectorized engine
        returned wrong answers (from 56 bits with ``invalid value
        encountered in cast``); now it takes the reference's int64 sums."""
        rng = derive_rng("kernels-float64-bound", input_bits)
        matrix = rng.integers(-128, 128, size=(64, 8))
        matrix[:, 0] = -128
        vectors = rng.integers(0, 1 << input_bits, size=(3, 64), dtype=np.int64)
        vectors[0] = (1 << input_bits) - 1
        expected = vectors @ matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for backend in ("vectorized", "reference"):
                tile = HybridComputeTile(HctConfig.paper_default())
                handle = tile.set_matrix(matrix, value_bits=8)
                out = tile.execute_mvm_batch(handle, vectors, input_bits=input_bits,
                                             backend=backend)
                assert np.array_equal(out.values, expected), backend
            device = DarthPumDevice()
            allocation = device.set_matrix(matrix, element_size=8)
            assert (device.device_plan(allocation, input_bits) is not None) == (
                input_bits == 40)
            out = device.exec_mvm_batch(allocation, vectors, input_bits=input_bits,
                                        backend="vectorized")
            assert np.array_equal(out, expected)


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
        """The stale values are rewritten where they lie: the same kernel,
        tiles and blocks, holding what a fresh build would."""
        tile = HybridComputeTile(HctConfig.small())
        matrix = np.eye(8, dtype=np.int64)
        handle = tile.set_matrix(matrix, value_bits=4)
        vectors = np.arange(16, dtype=np.int64).reshape(2, 8) % 4
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="vectorized")
        assert tile.ace.cached_kernels == 1
        kernel = tile.ace.kernel_for(handle)
        tiles, recombined = kernel.tiles, kernel.recombined
        new_handle = tile.ace.update_row(handle, 0, np.array([3, 0, 0, 0, 0, 0, 0, 1]))
        assert tile.ace.cached_kernels == 1 and tile.ace.kernel_for(handle) is kernel
        assert kernel.tiles is tiles and kernel.recombined is recombined
        updated = matrix.copy()
        updated[0] = [3, 0, 0, 0, 0, 0, 0, 1]
        fresh = build_shard_kernel(tile.ace, handle)
        assert np.array_equal(kernel.recombined, updated)
        assert kernel.recombined.tobytes() == fresh.recombined.tobytes()
        assert kernel.exact == fresh.exact
        out = tile.execute_mvm_batch(new_handle, vectors, input_bits=2,
                                     backend="vectorized")
        assert np.array_equal(out.values, vectors @ updated)

    def test_exact_fast_path_disabled_under_programming_noise(self):
        noisy = NoiseConfig(read_sigma=0.0, seed=1)
        tile = HybridComputeTile(HctConfig.small(), noise=noisy)
        handle = tile.set_matrix(np.eye(8, dtype=np.int64) * 3, value_bits=4)
        tile.execute_mvm_batch(handle, np.ones((1, 8), dtype=np.int64), input_bits=1)
        assert not tile.ace.kernel_for(handle).exact

        clean = HybridComputeTile(HctConfig.small())
        clean_handle = clean.set_matrix(np.eye(8, dtype=np.int64) * 3, value_bits=4)
        clean.execute_mvm_batch(clean_handle, np.ones((1, 8), dtype=np.int64), input_bits=1)
        assert clean.ace.kernel_for(clean_handle).exact

    #: Stuck-at faults only, on a stream whose map over an 8x8 4-bit
    #: allocation holds seven devices, every one stuck low (pinned below).
    STUCK_LOW = NoiseConfig(programming_sigma=0.0, read_sigma=0.0, stuck_at_rate=0.05,
                            seed=218)

    def test_in_place_rewrites_follow_the_exactness_proof_both_ways(self):
        """A agrees with the arrays' fault map, so it is exact; B is not.
        A -> B -> A in place answers what a freshly programmed device
        answers, and only B has no device plan."""
        config = ChipConfig(hct=HctConfig.small(), num_hcts=2)

        def fresh(matrix):
            device = DarthPumDevice(config=config, noise=self.STUCK_LOW)
            return device, device.set_matrix(matrix, element_size=4)

        device, allocation = fresh(np.zeros((8, 8), dtype=np.int64))
        ((_, hct, handle),) = device._tiles(allocation)
        faults = [hct.ace.crossbar(i).noise.stuck_at for i in handle.array_ids]
        stuck = np.logical_or.reduce([fault._mask for fault in faults])
        assert stuck.sum() == 7
        assert all((fault._values[fault._mask] == hct.ace.device.g_min).all()
                   for fault in faults)
        rng = derive_rng("kernels-stuck-at-refresh")
        a = np.where(stuck, 0, rng.integers(-8, 8, size=(8, 8)))
        b = np.where(stuck, 7, a)
        vectors = rng.integers(0, 16, size=(6, 8))
        for matrix, exact in ((a, True), (b, False), (a, True)):
            device.update_matrix(allocation, matrix)
            twin, twin_allocation = fresh(matrix)
            out = device.exec_mvm_batch(allocation, vectors, input_bits=4)
            assert np.array_equal(out, twin.exec_mvm_batch(twin_allocation, vectors,
                                                           input_bits=4))
            assert np.array_equal(out, vectors @ matrix) == exact
            assert (device.device_plan(allocation, 4) is not None) == exact
            assert hct.ace.kernel_for(handle).exact == exact

    def test_in_place_rewrite_under_paper_noise_matches_a_fresh_kernel(self):
        """Under ``paper_default`` an in-place A -> B leaves the kept kernel
        holding what a fresh build for B holds, bit for bit."""
        rng = derive_rng("kernels-paper-refresh")
        a, b = (rng.integers(-32, 32, size=(24, 20)) for _ in range(2))
        tiles = [HybridComputeTile(HctConfig.small(), noise=NoiseConfig.paper_default())
                 for _ in range(2)]
        kept, twin = tiles
        handle = kept.set_matrix(a, value_bits=6, bits_per_cell=2)
        kernel = kept.ace.kernel_for(handle)
        assert kept.ace.reprogram(handle, b) is handle
        twin_handle = twin.set_matrix(b, value_bits=6, bits_per_cell=2)
        for fresh in (build_shard_kernel(kept.ace, handle),
                      build_shard_kernel(twin.ace, twin_handle)):
            assert kept.ace.kernel_for(handle) is kernel
            assert kernel.recombined.tobytes() == fresh.recombined.tobytes()
            assert kernel.exact == fresh.exact is False
            for ours, theirs in zip(kernel.tiles, fresh.tiles, strict=True):
                assert ours.read_variance is not None
                assert ours.read_variance.tobytes() == theirs.read_variance.tobytes()


class TestReadNoiseStreams:
    """One generator per crossbar, named ``(seed, tile_id, array_id)``; one
    crossbar's looped and batched reads are the same samples."""

    READ_NOISE = NoiseConfig(programming_sigma=0.0, read_sigma=0.05, seed=5)

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
        # Same shape: reprogrammed in place, the allocation kept.
        second = server.register_matrix("m", changed, element_size=4)
        assert second is first
        assert server.registration_reuses == 0
        vector = np.ones(16, dtype=np.int64)
        future = server.submit("m", vector, input_bits=1)
        server.run_until_idle()
        assert np.array_equal(future.result().result, vector @ changed)
        # Another shape: released and placed anew.
        narrower = changed[:, :12].copy()
        assert server.register_matrix("m", narrower, element_size=4) is not first
        assert server.registration_reuses == 0
        future = server.submit("m", vector, input_bits=1)
        server.run_until_idle()
        assert np.array_equal(future.result().result, vector @ narrower)

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
        return DevicePool(num_devices=3, config=config)

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
        pool = DevicePool(num_devices=3)
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

    def test_backend_override_per_call(self, monkeypatch):
        rng = derive_rng("kernels-9")
        matrix = rng.integers(-8, 8, size=(8, 8))
        vectors = rng.integers(0, 4, size=(2, 8))
        monkeypatch.setenv("REPRO_BACKEND", "reference")  # read when the pool is built
        pool = DevicePool(num_devices=1)
        assert isinstance(pool._executor, ReferenceExecutor)
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
    def _servers(monkeypatch):
        """One server per engine: a pool takes ``REPRO_BACKEND`` when built."""
        servers = {}
        for backend in ("reference", "vectorized"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            servers[backend] = PumServer(pool=DevicePool(num_devices=2),
                                         scheduling=StaticBatchingPolicy(8, 2))
        return servers

    def test_aes_mixcolumns(self, monkeypatch):
        rng = derive_rng("kernels-10")
        columns = rng.integers(0, 256, size=(8, 4)).astype(np.int64)
        outs = {}
        servers = self._servers(monkeypatch)
        for engine, server in servers.items():
            outs[engine] = serve_aes_mixcolumns(server, columns)
        assert np.array_equal(outs["reference"], outs["vectorized"])
        ref_ledger = servers["reference"].pool.total_ledger()
        vec_ledger = servers["vectorized"].pool.total_ledger()
        assert ref_ledger.cycles == vec_ledger.cycles
        assert ref_ledger.energy_pj == vec_ledger.energy_pj
        assert ref_ledger.energy_breakdown == vec_ledger.energy_breakdown

    def test_cnn_conv(self, monkeypatch):
        rng = derive_rng("kernels-11")
        conv = Conv2d(in_channels=2, out_channels=3, kernel=3,
                      rng=derive_rng("kernels-12"))
        image = rng.normal(size=(1, 2, 6, 6))
        outs = {}
        for engine, server in self._servers(monkeypatch).items():
            device, _ = serve_cnn_conv(server, conv, image, positions=4)
            outs[engine] = device
        assert np.array_equal(outs["reference"], outs["vectorized"])

    def test_llm_projection(self, monkeypatch):
        rng = derive_rng("kernels-13")
        weight = rng.normal(size=(12, 8))
        activations = rng.normal(size=(5, 12))
        outs = {}
        for engine, server in self._servers(monkeypatch).items():
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
