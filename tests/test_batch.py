"""Batch-vs-single numerical equivalence for the batched execution engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import derive_rng

from repro.core import ChipConfig, HctConfig, HybridComputeTile
from repro.errors import QuantizationError
from repro.reram import NoiseConfig
from repro.runtime import DarthPumDevice
from test_kernels import mirrored


@pytest.fixture
def rng():
    return derive_rng("batch")


def _stacked_singles(tile, handle, vectors, input_bits):
    return np.stack(
        [tile.execute_mvm(handle, v, input_bits=input_bits).values for v in vectors]
    )


class TestHctBatchEquivalence:
    def test_bit_identical_noise_free(self, rng):
        tile = HybridComputeTile(HctConfig.small())
        matrix = rng.integers(-8, 8, size=(16, 12))
        handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        vectors = rng.integers(0, 15, size=(6, 16))
        batch = tile.execute_mvm_batch(handle, vectors, input_bits=4)
        check = HybridComputeTile(HctConfig.small())
        check_handle = check.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        singles = _stacked_singles(check, check_handle, vectors, 4)
        assert np.array_equal(batch.values, singles)
        assert np.array_equal(batch.values, vectors @ matrix)

    def test_bit_identical_multi_bit_cells(self, rng):
        tile = HybridComputeTile(HctConfig.small())
        matrix = rng.integers(-8, 8, size=(16, 12))
        handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=2)
        vectors = rng.integers(0, 3, size=(5, 16))
        batch = tile.execute_mvm_batch(handle, vectors, input_bits=2)
        assert np.array_equal(batch.values, vectors @ matrix)

    def test_bit_identical_multiple_column_tiles(self, rng):
        tile = HybridComputeTile(HctConfig.small())
        # 24 columns > the 16-wide small arrays: two column tiles.
        matrix = rng.integers(-4, 4, size=(16, 24))
        handle = tile.set_matrix(matrix, value_bits=3, bits_per_cell=1)
        vectors = rng.integers(0, 7, size=(4, 16))
        batch = tile.execute_mvm_batch(handle, vectors, input_bits=3)
        assert np.array_equal(batch.values, vectors @ matrix)

    def test_bit_identical_with_frozen_noise_sources(self, rng):
        """Programming noise and stuck-at faults are frozen at set_matrix
        time, so the batch and single paths see identical conductances."""
        noise = NoiseConfig(
            programming_noise=True,
            read_noise=False,
            ir_drop=False,
            stuck_at_faults=True,
            seed=11,
        )
        tile = HybridComputeTile(HctConfig.small(), noise=noise)
        matrix = rng.integers(-8, 8, size=(16, 12))
        handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        vectors = rng.integers(0, 15, size=(4, 16))
        batch = tile.execute_mvm_batch(handle, vectors, input_bits=4)
        singles = _stacked_singles(tile, handle, vectors, 4)
        assert np.array_equal(batch.values, singles)

    def test_read_noise_stays_quantisation_bounded(self, rng):
        """With stochastic read noise the batch draws one conductance sample
        per step instead of one per vector, so results are not bit-identical;
        they must still round-trip close to the ideal product."""
        noise = NoiseConfig(
            programming_noise=False, read_noise=True, ir_drop=False, seed=3
        )
        tile = HybridComputeTile(HctConfig.small(), noise=noise)
        matrix = rng.integers(-8, 8, size=(16, 12))
        handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        vectors = rng.integers(0, 15, size=(4, 16))
        batch = tile.execute_mvm_batch(handle, vectors, input_bits=4)
        expected = vectors @ matrix
        scale = np.abs(expected).max() + 1
        assert np.abs(batch.values - expected).max() / scale < 0.2

    def test_raw_analog_batch_path(self, rng):
        """disableDigitalMode(): the batched raw reduction matches singles."""
        tile = HybridComputeTile(HctConfig.small())
        matrix = rng.integers(-8, 8, size=(16, 12))
        handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        tile.disable_digital_mode()
        vectors = rng.integers(0, 15, size=(3, 16))
        batch = tile.execute_mvm_batch(handle, vectors, input_bits=4)
        assert np.array_equal(batch.values, vectors @ matrix)

    def test_batch_cost_model_consistency(self, rng):
        """The batch pays the analog phase per vector but drains the pipelined
        ADD stream once, so it is never slower than the summed singles."""
        matrix = rng.integers(-8, 8, size=(16, 12))
        vectors = rng.integers(0, 15, size=(8, 16))

        tile = HybridComputeTile(HctConfig.small())
        handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        batch = tile.execute_mvm_batch(handle, vectors, input_bits=4)

        check = HybridComputeTile(HctConfig.small())
        check_handle = check.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        single = check.execute_mvm(check_handle, vectors[0], input_bits=4)

        assert batch.batch == 8
        assert batch.optimized_cycles <= 8 * single.optimized_cycles
        assert batch.optimized_cycles > single.optimized_cycles
        assert batch.cycles_per_vector <= single.optimized_cycles
        assert batch.unoptimized_cycles > batch.optimized_cycles
        # Energy scales with the work actually performed (~batch x single).
        assert batch.energy_pj == pytest.approx(8 * single.energy_pj, rel=0.05)
        assert batch.iiu_slots_saved > single.iiu_slots_saved

    def test_batch_updates_iiu_statistics(self, rng):
        tile = HybridComputeTile(HctConfig.small())
        matrix = rng.integers(-8, 8, size=(16, 12))
        handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        before = tile.iiu.injections
        tile.execute_mvm_batch(handle, rng.integers(0, 15, size=(4, 16)), input_bits=4)
        assert tile.iiu.injections == before + 1
        assert tile.iiu.front_end_slots_saved > 0


class TestDeviceBatchApi:
    def test_device_batch_matches_loop(self, rng):
        device = DarthPumDevice()
        matrix = rng.integers(-100, 100, size=(70, 40))
        allocation = device.set_matrix(matrix, element_size=8, precision=0)
        vectors = rng.integers(0, 255, size=(5, 70))
        looped = np.stack([
            mirrored(device.exec_mvm, allocation, v, input_bits=8) for v in vectors
        ])
        batched = mirrored(device.exec_mvm_batch, allocation, vectors, input_bits=8)
        assert np.array_equal(batched, looped)
        assert np.array_equal(batched, vectors @ matrix)

    def test_single_vector_charge_is_the_tiles_energy_to_the_unit(self, rng):
        """``exec_mvm`` charged its runtime ledger each tile's float pJ
        difference: once a tile's ledger held ~1e7 pJ, the runtime ledger
        drifted units away from the energy its tiles executed."""
        device = DarthPumDevice(config=ChipConfig(hct=HctConfig.small(), num_hcts=4))
        matrix = rng.integers(-8, 8, size=(8, 8))
        allocation = device.set_matrix(matrix, element_size=4)
        device.chip.hct(allocation.hct_indices[0]).ledger.charge("bias", energy_pj=1e7)
        for vector in rng.integers(0, 16, size=(10, 8)):
            assert np.array_equal(
                mirrored(device.exec_mvm, allocation, vector, input_bits=4),
                vector @ matrix,
            )

    def test_single_vector_promoted_to_batch_of_one(self, rng):
        device = DarthPumDevice()
        matrix = rng.integers(-8, 8, size=(10, 6))
        allocation = device.set_matrix(matrix, element_size=4, precision=0)
        vector = rng.integers(0, 15, size=10)
        batched = device.exec_mvm_batch(allocation, vector, input_bits=4)
        assert batched.shape == (1, 6)
        assert np.array_equal(batched[0], vector @ matrix)

    def test_shape_mismatch_rejected(self, rng):
        device = DarthPumDevice()
        allocation = device.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        with pytest.raises(QuantizationError):
            device.exec_mvm_batch(allocation, np.zeros((2, 9), dtype=np.int64))

    def test_empty_batch_returns_empty_result(self):
        device = DarthPumDevice()
        allocation = device.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        result = device.exec_mvm_batch(
            allocation, np.zeros((0, 8), dtype=np.int64), input_bits=2
        )
        assert result.shape == (0, 8)

    def test_empty_batch_rejected_at_tile_level(self):
        from repro.errors import ExecutionError

        tile = HybridComputeTile(HctConfig.small())
        handle = tile.set_matrix(np.eye(8, dtype=np.int64), value_bits=4)
        with pytest.raises(ExecutionError):
            tile.execute_mvm_batch(handle, np.zeros((0, 8), dtype=np.int64))
