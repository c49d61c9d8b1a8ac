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

from repro import ChipConfig, DevicePool, HctConfig, PumServer
from repro.analog.bitslicing import slice_inputs, slice_inputs_tensor
from repro.analog.compensation import ParasiticCompensation
from repro.core.hct import HybridComputeTile
from repro.errors import ConfigurationError, QuantizationError
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
    def _sharded_pool(parallel):
        # One tiny HCT per device forces a multi-row-band placement, so the
        # fan-out really spans devices.
        config = ChipConfig(hct=HctConfig.small(), num_hcts=2)
        return DevicePool(
            num_devices=3, config=config, policy="round_robin", parallel=parallel
        )

    def test_parallel_exec_mvm_batch_matches_serial(self):
        rng = derive_rng("kernels-6")
        matrix = rng.integers(-100, 100, size=(96, 16))
        vectors = rng.integers(0, 256, size=(4, 96))
        results = {}
        ledgers = {}
        for parallel in (False, True):
            pool = self._sharded_pool(parallel)
            allocation = pool.set_matrix(matrix, element_size=8, precision=0)
            assert allocation.num_shards > 1
            assert len(allocation.devices_used) > 1
            results[parallel] = pool.exec_mvm_batch(allocation, vectors, input_bits=8)
            ledgers[parallel] = pool.total_ledger()
        assert np.array_equal(results[True], results[False])
        assert np.array_equal(results[True], vectors @ matrix)
        assert ledgers[True].cycles == ledgers[False].cycles
        assert ledgers[True].energy_pj == ledgers[False].energy_pj

    def test_parallel_exec_requests_matches_serial(self):
        rng = derive_rng("kernels-7")
        matrices = [rng.integers(-8, 8, size=(12, 10)) for _ in range(3)]
        request_vectors = [rng.integers(0, 16, size=(3, 12)) for _ in range(3)]
        outputs = {}
        for parallel in (False, True):
            pool = DevicePool(num_devices=3, policy="round_robin", parallel=parallel)
            allocations = [pool.set_matrix(m, element_size=4) for m in matrices]
            assert len({a.devices_used[0] for a in allocations}) > 1
            outputs[parallel] = pool.exec_requests(
                list(zip(allocations, request_vectors)), input_bits=4
            )
        for serial_out, parallel_out, matrix, vectors in zip(
            outputs[False], outputs[True], matrices, request_vectors
        ):
            assert np.array_equal(serial_out, parallel_out)
            assert np.array_equal(parallel_out, vectors @ matrix)

    def test_failing_device_propagates_after_joining_siblings(self):
        rng = derive_rng("kernels-8")
        matrix = rng.integers(-100, 100, size=(96, 16))
        pool = self._sharded_pool(parallel=True)
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
            backend: PumServer(num_devices=2, max_batch=8, max_wait_ticks=2,
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
