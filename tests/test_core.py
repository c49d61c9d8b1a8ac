"""Tests for the hybrid compute tile, chip, and auxiliary components."""

import numpy as np
import pytest

from repro.analog import ShiftAddPlan
from repro.core import (
    AnalogDigitalArbiter,
    AreaModel,
    ChipConfig,
    DarthPumChip,
    Domain,
    HctConfig,
    InstructionInjectionUnit,
    ShiftUnit,
    Table3,
    TransposeUnit,
    VACoreManager,
)
from repro.errors import AllocationError, CapacityError


class TestShiftUnit:
    def test_shift_applied_during_transfer(self):
        unit = ShiftUnit()
        out = unit.apply(np.array([1, 2, 3]), input_bit=2)
        assert np.array_equal(out.values, np.array([4, 8, 12]))
        assert out.shift == 2

    def test_weight_slice_extra_shift(self):
        unit = ShiftUnit()
        out = unit.apply(np.array([1]), input_bit=1, extra_shift=2)
        assert out.shift == 3

    def test_transfer_cycles_respect_bandwidth(self):
        unit = ShiftUnit(transfer_bytes_per_cycle=8, element_bytes=2)
        assert unit.transfer_cycles(64) == 16


class TestTransposeUnit:
    def test_matrix_transpose(self):
        unit = TransposeUnit()
        matrix = np.arange(6).reshape(2, 3)
        result = unit.matrix_transpose(matrix)
        assert np.array_equal(result.values, matrix.T)
        assert result.cycles >= 1

    def test_vector_to_register_counts(self):
        unit = TransposeUnit(elements_per_cycle=8)
        result = unit.batch_to_registers(np.arange(20)[None])
        assert result.cycles == 3
        assert unit.vector_count == 1


class TestArbiter:
    def test_serialisation_delays_conflicting_work(self):
        arbiter = AnalogDigitalArbiter()
        start = arbiter.acquire("pipeline:0", Domain.ANALOG, now=0, duration=100)
        assert start == 0
        start = arbiter.acquire("pipeline:0", Domain.DIGITAL, now=10, duration=5)
        assert start == 100
        assert arbiter.stall_events == 1


class TestInjectionUnit:
    def test_table_configuration_and_counter(self):
        iiu = InstructionInjectionUnit()
        plan = ShiftAddPlan(input_bits=3, weight_slices=2, bits_per_cell=2)
        iiu.configure(plan, accumulator_vr=0, staging_vrs=[1, 2])
        assert len(iiu.table) == 6
        assert iiu.next_entry().shift == 0
        assert iiu.next_entry().shift == 2
        iiu.reset()
        assert iiu.counter == 0

    def test_injection_saves_front_end_slots(self, small_tile):
        # Injection targets must be reserved for analog output first --
        # set_matrix does this in real flows (see RegisterLiveError).
        small_tile.dce.reserve_pipeline(5)
        pipeline = small_tile.pipeline(5)
        iiu = InstructionInjectionUnit()
        costs, saved = iiu.inject_reduction(
            pipeline, [np.arange(4), np.arange(4) * 2], accumulator_vr=0,
            staging_vrs=[1, 2], shifts=[0, 1],
        )
        assert saved > 0
        assert np.array_equal(pipeline.read_vr(0)[:4], np.arange(4) * 3)


class TestVACores:
    def test_allocation_and_bit_width_constraint(self):
        manager = VACoreManager()
        core = manager.allocate(element_size=8, bits_per_cell=2)
        assert core.arrays_per_value == 4
        with pytest.raises(AllocationError):
            manager.allocate(element_size=16, bits_per_cell=2)

    def test_reconfigure_clears_previous_cores(self):
        manager = VACoreManager()
        manager.allocate(8, 2)
        manager.reconfigure(16, 4)
        assert manager.element_size == 16

    def test_shift_add_plan_follows_precision(self):
        manager = VACoreManager()
        core = manager.allocate(8, 2)
        plan = core.shift_add_plan()
        assert plan.weight_slices == 4
        assert plan.bits_per_cell == 2


class TestHybridComputeTile:
    def test_mvm_matches_reference(self, small_tile, rng):
        matrix = rng.integers(-8, 8, size=(20, 12))
        handle = small_tile.set_matrix(matrix, value_bits=4, bits_per_cell=2)
        x = rng.integers(0, 15, size=20)
        result = small_tile.execute_mvm(handle, x, input_bits=4)
        assert np.array_equal(result.values, x @ matrix)

    def test_optimized_schedule_faster_than_naive(self, small_tile, rng):
        matrix = rng.integers(-8, 8, size=(16, 8))
        handle = small_tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
        result = small_tile.execute_mvm(handle, rng.integers(0, 15, size=16), input_bits=4)
        assert result.optimized_cycles < result.unoptimized_cycles
        assert result.speedup_from_optimization > 1.0

    def test_mvm_energy_and_partials_tracked(self, small_tile, rng):
        matrix = rng.integers(0, 3, size=(16, 8))
        handle = small_tile.set_matrix(matrix, value_bits=2, bits_per_cell=1)
        result = small_tile.execute_mvm(handle, rng.integers(0, 3, size=16), input_bits=2)
        assert result.energy_pj > 0
        assert result.num_partial_products == 2 * 2  # input bits x slices(2)x... row tiles
        assert result.iiu_slots_saved > 0

    def test_disable_analog_mode_moves_matrix_to_dce(self, small_tile, rng):
        matrix = rng.integers(0, 3, size=(8, 6))
        handle = small_tile.set_matrix(matrix, value_bits=2, bits_per_cell=1)
        small_tile.disable_analog_mode(handle, target_pipeline=2)
        pipeline = small_tile.pipeline(2)
        stored = np.stack([pipeline.read_vr(col)[:8] for col in range(6)], axis=1)
        assert np.array_equal(stored, matrix)
        with pytest.raises(AllocationError):
            small_tile.execute_mvm(handle, np.zeros(8, dtype=np.int64))

    def test_disable_digital_mode_returns_raw_reduction(self, small_tile, rng):
        matrix = rng.integers(0, 3, size=(8, 6))
        handle = small_tile.set_matrix(matrix, value_bits=2, bits_per_cell=1)
        small_tile.disable_digital_mode()
        x = rng.integers(0, 3, size=8)
        result = small_tile.execute_mvm(handle, x, input_bits=2)
        assert np.array_equal(result.values, x @ matrix)

    def test_vacore_same_width_constraint_enforced(self, small_tile):
        small_tile.alloc_vacore(8, 2)
        with pytest.raises(AllocationError):
            small_tile.alloc_vacore(4, 1)


class TestAreaModel:
    def test_iso_area_counts_match_paper(self):
        assert AreaModel(HctConfig.paper_default("sar")).iso_area_hct_count() == 1860
        assert AreaModel(HctConfig.paper_default("ramp")).iso_area_hct_count() == 1660

    def test_ramp_hct_is_larger_than_sar(self):
        sar = AreaModel(HctConfig.paper_default("sar")).effective_hct_area_um2()
        ramp = AreaModel(HctConfig.paper_default("ramp")).effective_hct_area_um2()
        assert ramp > sar

    def test_breakdown_sums_to_raw_total(self):
        model = AreaModel(HctConfig.paper_default("sar"))
        breakdown = model.breakdown()
        parts = breakdown["dce"] + breakdown["ace"] + breakdown["hct_auxiliary"] \
            + breakdown["front_end_share"]
        assert parts == pytest.approx(breakdown["raw_total"])

    def test_chip_capacity_near_paper_value(self):
        model = AreaModel(HctConfig.paper_default("sar"))
        capacity = model.chip_memory_capacity_gb(1860)
        assert 3.5 < capacity < 4.5  # paper: 4.1 GB


class TestChip:
    def test_allocation_and_release(self):
        chip = DarthPumChip(ChipConfig(num_hcts=16))
        indices = chip.allocate_hcts(4)
        assert chip.allocated_hcts == 4
        chip.release_hcts(indices)
        assert chip.allocated_hcts == 0

    def test_over_allocation_raises(self):
        chip = DarthPumChip(ChipConfig(num_hcts=2))
        with pytest.raises(AllocationError):
            chip.allocate_hcts(3)

    def test_lazy_materialisation(self):
        chip = DarthPumChip(ChipConfig(num_hcts=1860))
        assert chip.materialized_hcts == 0
        chip.hct(7)
        assert chip.materialized_hcts == 1
        with pytest.raises(CapacityError):
            chip.hct(5000)

    def test_front_end_sharing(self):
        chip = DarthPumChip(ChipConfig(num_hcts=16, hcts_per_front_end=8))
        power = Table3.FRONT_END_POWER_MW
        assert chip.front_end_energy_pj(10) == power * 10  # at least one active
        for index in range(16):
            chip.hct(index)
        assert chip.front_end_energy_pj(10) == 2 * power * 10

    def test_capacity_matches_paper_order(self):
        config = ChipConfig.iso_area_default("sar")
        capacity = AreaModel(config.hct).chip_memory_capacity_gb(config.num_hcts)
        assert 3.5 < capacity < 4.5
