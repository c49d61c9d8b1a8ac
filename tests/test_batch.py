"""Batch-vs-single numerical equivalence for the batched execution engine."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.testing import derive_rng

from repro.analog.compensation import ParasiticCompensation
from repro.core import ChipConfig, HctConfig, HybridComputeTile
from repro.errors import QuantizationError
from repro.metrics import UNITS
from repro.reram import NoiseConfig
from repro.runtime import DarthPumDevice, DevicePool
from test_kernels import device_state, mirrored


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
        noise = NoiseConfig(read_sigma=0.0, stuck_at_rate=0.03, seed=11)
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
        noise = NoiseConfig(programming_sigma=0.0, seed=3)
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
        assert batch.optimized_cycles / batch.batch <= single.optimized_cycles
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


#: The single call's ledger categories, folded into the batch's they merged
#: with: the pin hashes units per category, not what a category is called.
SINGLE_LABELS = {"hct.mvm": "hct.mvm_batch", "runtime.mvm": "runtime.mvm_batch"}

# Stuck-at at the device default rate, 0: no device sticks, so the pin runs exact.
STUCK_AT = NoiseConfig(programming_sigma=0.0, read_sigma=0.0, stuck_at_rate=None, seed=11)


def _units(ledger):
    """A ledger's integer cycle and energy units per category."""
    parts = {}
    for kind, source in (("cycles", ledger.cycle_parts), ("energy", ledger.energy_parts)):
        for category, amount in source.items():
            key = (kind, SINGLE_LABELS.get(category, category))
            parts[key] = parts.get(key, 0) + amount
    return sorted(parts.items())


def _registers(tile, handle, input_bits):
    """Every VR of every output pipeline of ``handle``, staging VRs included."""
    plan = tile.planner.plan_for(handle, input_bits)
    pipelines = [tile.dce.pipeline(plan.output_base + c) for c in range(handle.col_tiles)]
    return [[p.read_vr(vr, signed=True).tolist() for vr in range(p.num_vrs)]
            for p in pipelines]


def _tile_state(tile, handle):
    return (
        _units(tile.ledger),
        (tile.iiu.injections, tile.iiu.front_end_slots_saved),
        tile.transpose_unit.vector_count,
        tile.arbiter.now,
        dict(tile.arbiter._owners),
        [tile.ace.crossbar(i).mvm_count for i in handle.array_ids],
    )


def _device_state(device, allocation, input_bits):
    state = device_state(device, allocation)
    tiles = [device.chip.hct(index) for index in allocation.hct_indices]
    state["runtime_ledger"] = _units(device.ledger)
    state["tile_ledgers"] = [_units(tile.ledger) for tile in tiles]
    state["registers"] = [_registers(hct, handle, input_bits)
                          for _, hct, handle in device._tiles(allocation)]
    return sorted(state.items())


#: label -> (noise, rows, cols, value bits, bits per cell, input bits, call
#: keywords, raw mode).  Small tiles: 16x16 arrays, so 24 columns are two
#: column tiles.
TILE_PIN_CASES = {
    "ideal": (None, 16, 12, 4, 1, 4, {}, False),
    "paper_default": (NoiseConfig.paper_default(), 16, 12, 4, 1, 4, {}, False),
    "stuck_at": (STUCK_AT, 16, 12, 4, 1, 4, {}, False),
    "raw_mode": (None, 16, 12, 4, 1, 4, {}, True),
    "compensation": (None, 16, 12, 2, 1, 1,
                     {"compensation": ParasiticCompensation()}, False),
    "active_adc_bits": (None, 16, 12, 4, 2, 4, {"active_adc_bits": 3}, False),
    "unoptimized": (None, 16, 12, 4, 1, 4, {"optimized": False}, False),
    "two_column_tiles": (None, 16, 24, 3, 1, 3, {}, False),
}

#: label -> (noise, raw mode on the allocation's first HCT).  A 40x20
#: matrix of 4-bit values at 4 input bits on small tiles: three row bands
#: (the last ragged) of two column tiles each.
DEVICE_PIN_CASES = {
    "ideal": (None, False),
    "paper_default": (NoiseConfig.paper_default(), False),
    "stuck_at": (STUCK_AT, False),
    "raw_mode": (None, True),
}


class TestSingleCallPin:
    """Single-vector calls on a tile, a device and a replicated ``verify=
    "full"`` pool, pinned: the answers, every VR of every output pipeline,
    ``device_state``, the ledgers' units per category and every field of a
    tile result besides ``energy_pj``.  Three calls per case on fixed seeds
    (not ``REPRO_TEST_SEED``), hashed after each.  ``EXPECTED`` was computed
    at ``19edfee``, when a single call was its own engine, and must not
    move while single calls are served by another interpreter."""

    EXPECTED = {
        "tile": "c25f0189c7859edeb259eab2915c9d09f232f69af158749e95c6ef5de8ef0404",
        "device": "54723dc6055de4f0a61ed43b7a7f9681bedf84aebae0f58228f5f7b044376b8e",
        "pool": "91f77172fa66b6808b883e0247c2f65e212133eaeb1da19b68aba20a3186d5c0",
    }

    @staticmethod
    def _digest(parts):
        return hashlib.sha256(repr(parts).encode()).hexdigest()

    def test_tile(self):
        parts = []
        for case in sorted(TILE_PIN_CASES):
            noise, rows, cols, value_bits, cell_bits, input_bits, kwargs, raw = (
                TILE_PIN_CASES[case])
            rng = np.random.default_rng(list(b"tile-pin") + [len(parts)])
            magnitude = 1 << (value_bits - 1)
            if "compensation" in kwargs:
                matrix = kwargs["compensation"].remap(rng.integers(0, 2, size=(rows, cols)))
            else:
                matrix = rng.integers(-magnitude, magnitude, size=(rows, cols))
            tile = HybridComputeTile(HctConfig.small(), noise=noise)
            handle = tile.set_matrix(matrix, value_bits=value_bits, bits_per_cell=cell_bits)
            if raw:
                tile.disable_digital_mode()
            for vector in rng.integers(0, 1 << input_bits, size=(3, rows)):
                result = tile.execute_mvm(handle, vector, input_bits=input_bits, **kwargs)
                parts.append((
                    case, result.values.tolist(), float(result.optimized_cycles),
                    float(result.unoptimized_cycles),
                    sorted((k, float(v)) for k, v in result.breakdown.items()),
                    result.num_partial_products, result.iiu_slots_saved,
                    _registers(tile, handle, input_bits), _tile_state(tile, handle),
                ))
        assert self._digest(parts) == self.EXPECTED["tile"]

    def test_device(self):
        parts = []
        for case in sorted(DEVICE_PIN_CASES):
            noise, raw = DEVICE_PIN_CASES[case]
            rng = np.random.default_rng(list(b"device-pin") + [len(parts)])
            matrix = rng.integers(-8, 8, size=(40, 20))
            device = DarthPumDevice(config=ChipConfig(hct=HctConfig.small(), num_hcts=16),
                                    noise=noise)
            allocation = device.set_matrix(matrix, element_size=4)
            if raw:
                device.disable_digital_mode(allocation.hct_indices[0])
            for vector in rng.integers(0, 16, size=(3, 40)):
                out = mirrored(device.exec_mvm, allocation, vector, input_bits=4)
                parts.append((case, out.tolist(), _device_state(device, allocation, 4)))
        assert self._digest(parts) == self.EXPECTED["device"]

    def test_replicated_pool(self):
        rng = np.random.default_rng(list(b"pool-pin"))
        pool = DevicePool(num_devices=4, replication=2, verify="full",
                          config=ChipConfig(hct=HctConfig.small(), num_hcts=3))
        matrix = rng.integers(-8, 8, size=(64, 20))
        allocation = pool.set_matrix(matrix, element_size=4)
        assert allocation.num_shards > 1
        parts = []
        for vector in rng.integers(0, 8, size=(3, 64)):
            out = pool.exec_mvm(allocation, vector, input_bits=3)
            parts.append((out.tolist(), pool.resilience_snapshot(), [
                (task.device_index,
                 _device_state(pool.devices[task.device_index], task.device_allocation, 3))
                for task in allocation.all_tasks
            ]))
        assert self._digest(parts) == self.EXPECTED["pool"]



class TestSingleCallEnergy:
    """A single call's ``energy_pj`` is the units it charged over ``UNITS``,
    divided once: it was a float difference of two ledger reads
    (``1561.2840319999996`` against the exact ``1561.284032`` below)."""

    def test_tile(self):
        rng = np.random.default_rng(7)
        tile = HybridComputeTile(HctConfig.small())
        handle = tile.set_matrix(rng.integers(-8, 8, size=(16, 12)), value_bits=4)
        for vector in rng.integers(0, 16, size=(3, 16)):
            before = tile.ledger.energy_units
            result = tile.execute_mvm(handle, vector, input_bits=4)
            assert result.energy_pj == (tile.ledger.energy_units - before) / UNITS

    def test_device(self):
        """On a device's tiles, whose ledgers already hold ~1e7 pJ."""
        rng = np.random.default_rng(7)
        device = DarthPumDevice(config=ChipConfig(hct=HctConfig.small(), num_hcts=16))
        allocation = device.set_matrix(rng.integers(-8, 8, size=(40, 20)), element_size=4)
        vector = rng.integers(0, 16, size=40)
        for tile, hct, handle in device._tiles(allocation):
            hct.ledger.charge("bias", energy_pj=1e7 / 3)
            before = hct.ledger.energy_units
            result = hct.execute_mvm(handle, vector[tile.row_start: tile.row_end],
                                     input_bits=4)
            assert result.energy_pj == (hct.ledger.energy_units - before) / UNITS
