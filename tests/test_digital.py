"""Tests for the digital (Boolean) PUM substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.digital import (
    BitPipeline,
    DceConfig,
    DigitalArray,
    DigitalComputeElement,
    MicroOp,
    WordOpCost,
    WordOpKind,
    get_family,
    ideal_family,
    oscar_family,
    stream_cycles,
)
from repro.errors import CapacityError, ConfigurationError, ExecutionError


class TestLogicFamilies:
    def test_oscar_has_nor_but_not_xor(self):
        family = oscar_family()
        assert family.has("NOR") and family.has("OR")
        assert not family.has("XOR")

    def test_ideal_family_has_all_two_input_ops(self):
        family = ideal_family()
        for name in ("NOR", "OR", "AND", "NAND", "XOR", "XNOR"):
            assert family.has(name)

    def test_get_family_by_name_and_unknown(self):
        assert get_family("oscar").name == "oscar"
        assert get_family("IDEAL").name == "ideal"
        with pytest.raises(ConfigurationError):
            get_family("magic")

    def test_nor_primitive_truth_table(self):
        nor = oscar_family().primitive("NOR")
        a = np.array([False, False, True, True])
        b = np.array([False, True, False, True])
        assert np.array_equal(nor.evaluate(a, b), np.array([True, False, False, False]))


class TestDigitalArray:
    def test_execute_nor_on_columns(self):
        array = DigitalArray(4, 8, oscar_family())
        array.write_column(0, np.array([1, 1, 0, 0], dtype=bool))
        array.write_column(1, np.array([1, 0, 1, 0], dtype=bool))
        array.execute(MicroOp("NOR", 0, 1, 2))
        assert np.array_equal(array.read_column(2), np.array([0, 0, 0, 1], dtype=bool))

    def test_unsupported_primitive_rejected(self):
        array = DigitalArray(4, 8, oscar_family())
        with pytest.raises(ExecutionError):
            array.execute(MicroOp("XOR", 0, 1, 2))

    def test_out_of_range_column_rejected(self):
        array = DigitalArray(4, 8, oscar_family())
        with pytest.raises(ExecutionError):
            array.execute(MicroOp("NOR", 0, 9, 2))

    def test_energy_charged_per_uop(self):
        array = DigitalArray(4, 8, oscar_family())
        array.execute(MicroOp("NOR", 0, 1, 2))
        assert array.ledger.energy_pj > 0
        assert array.uop_count == 1


class TestPipelineArithmetic:
    def test_write_read_roundtrip(self, small_pipeline, rng):
        values = rng.integers(0, 2 ** 16, size=8)
        small_pipeline.write_vr(0, values)
        assert np.array_equal(small_pipeline.read_vr(0), values)

    def test_signed_read(self, small_pipeline):
        small_pipeline.write_vr(0, np.array([-5, 7, -1, 0, 3, -128, 127, 2]))
        got = small_pipeline.read_vr(0, signed=True)
        assert np.array_equal(got, np.array([-5, 7, -1, 0, 3, -128, 127, 2]))

    def test_add_sub_match_modular_arithmetic(self, small_pipeline, rng):
        a = rng.integers(0, 2 ** 16, size=8)
        b = rng.integers(0, 2 ** 16, size=8)
        small_pipeline.write_vr(0, a)
        small_pipeline.write_vr(1, b)
        small_pipeline.add(2, 0, 1)
        small_pipeline.sub(3, 0, 1)
        assert np.array_equal(small_pipeline.read_vr(2), (a + b) % 2 ** 16)
        assert np.array_equal(small_pipeline.read_vr(3), (a - b) % 2 ** 16)

    def test_bitwise_ops(self, small_pipeline, rng):
        a = rng.integers(0, 2 ** 16, size=8)
        b = rng.integers(0, 2 ** 16, size=8)
        small_pipeline.write_vr(0, a)
        small_pipeline.write_vr(1, b)
        small_pipeline.xor(2, 0, 1)
        small_pipeline.and_(3, 0, 1)
        small_pipeline.or_(4, 0, 1)
        small_pipeline.not_(5, 0)
        assert np.array_equal(small_pipeline.read_vr(2), a ^ b)
        assert np.array_equal(small_pipeline.read_vr(3), a & b)
        assert np.array_equal(small_pipeline.read_vr(4), a | b)
        assert np.array_equal(small_pipeline.read_vr(5), (~a) % 2 ** 16)

    def test_compare_and_mux(self, small_pipeline):
        a = np.array([1, 5, 10, 200, 0, 7, 7, 65535])
        b = np.array([2, 5, 3, 100, 1, 8, 6, 0])
        small_pipeline.write_vr(0, a)
        small_pipeline.write_vr(1, b)
        small_pipeline.compare_lt(2, 0, 1)
        assert np.array_equal(small_pipeline.read_vr(2), (a < b).astype(int))
        small_pipeline.mux(3, 2, 0, 1)
        assert np.array_equal(small_pipeline.read_vr(3), np.where(a < b, a, b))

    def test_multiply(self, small_pipeline, rng):
        a = rng.integers(0, 255, size=8)
        b = rng.integers(0, 255, size=8)
        small_pipeline.write_vr(0, a)
        small_pipeline.write_vr(1, b)
        small_pipeline.multiply(2, 0, 1, bits=8)
        assert np.array_equal(small_pipeline.read_vr(2), (a * b) % 2 ** 16)

    def test_relu_on_signed_values(self, small_pipeline):
        values = np.array([5, -3, 0, -100, 7, 2, -1, 8])
        small_pipeline.write_vr(0, values)
        small_pipeline.relu(1, 0)
        assert np.array_equal(small_pipeline.read_vr(1, signed=True), np.maximum(values, 0))

    def test_shift_and_rotate(self, small_pipeline):
        values = np.array([1, 2, 0x8001, 0xFFFF, 7, 0, 3, 0x1234])
        small_pipeline.write_vr(0, values)
        small_pipeline.shift_value_left(1, 0, 3)
        assert np.array_equal(small_pipeline.read_vr(1), (values << 3) % 2 ** 16)
        small_pipeline.shift_value_right(2, 0, 2)
        assert np.array_equal(small_pipeline.read_vr(2), values >> 2)
        small_pipeline.rotate_value_left(3, 0, 4)
        expected = ((values << 4) | (values >> 12)) % 2 ** 16
        assert np.array_equal(small_pipeline.read_vr(3), expected)

    def test_vr_bounds_checked(self, small_pipeline):
        with pytest.raises(CapacityError):
            small_pipeline.write_vr(small_pipeline.num_vrs, [1])

    def test_ideal_family_uses_fewer_uops_for_add(self):
        oscar = BitPipeline(depth=8, rows=4, cols=16, family=oscar_family())
        ideal = BitPipeline(depth=8, rows=4, cols=16, family=ideal_family())
        for pipeline in (oscar, ideal):
            pipeline.write_vr(0, [1, 2, 3, 4])
            pipeline.write_vr(1, [5, 6, 7, 8])
        cost_oscar = oscar.add(2, 0, 1)
        cost_ideal = ideal.add(2, 0, 1)
        assert np.array_equal(oscar.read_vr(2), ideal.read_vr(2))
        assert cost_ideal.uops_per_bit < cost_oscar.uops_per_bit


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4),
    b=st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4),
)
def test_property_add_xor_match_reference(a, b):
    """Property: NOR-synthesised add/xor match integer semantics for all inputs."""
    pipeline = BitPipeline(depth=10, rows=4, cols=16)
    a, b = np.array(a), np.array(b)
    pipeline.write_vr(0, a)
    pipeline.write_vr(1, b)
    pipeline.add(2, 0, 1)
    pipeline.xor(3, 0, 1)
    assert np.array_equal(pipeline.read_vr(2), (a + b) % 1024)
    assert np.array_equal(pipeline.read_vr(3), a ^ b)


class TestPipelineStorage:
    """The VR-major tensor behind ``set_vr_bits`` / ``read_vr`` and the arrays."""

    @pytest.mark.parametrize("depth", [8, 16, 64])
    @pytest.mark.parametrize("count", [8, 5, 1])
    def test_set_vr_bits_roundtrips_signed_and_unsigned(self, depth, count, rng):
        pipeline = BitPipeline(depth=depth, rows=8, cols=16)
        pipeline.set_vr_bits(3, np.full(8, -1))  # stale bits in every row
        half = 1 << (depth - 1) if depth < 64 else 1 << 62
        values = rng.integers(-half, half, size=count)
        pipeline.set_vr_bits(3, values)
        expected = np.zeros(8, dtype=np.int64)  # the tail is cleared
        expected[:count] = values
        assert np.array_equal(pipeline.read_vr(3, signed=True), expected)
        unsigned = expected & ((1 << depth) - 1) if depth < 64 else expected
        assert np.array_equal(pipeline.read_vr(3), unsigned)
        for row in range(8):
            assert pipeline.read_element(3, row) == int(expected[row]) % (1 << depth)
        assert not pipeline.read_vr(2).any() and not pipeline.read_vr(4).any()

    def test_set_vr_planes_is_set_vr_bits_with_the_same_checks(self, small_pipeline, rng):
        pipeline = small_pipeline

        def planes(values):
            return (values & pipeline.bit_weights) != 0

        values = rng.integers(-100, 100, size=5)
        for vr in (1, 2):
            pipeline.set_vr_bits(vr, np.full(8, -1))  # stale bits in every row
        pipeline.set_vr_bits(1, values)
        pipeline.set_vr_planes(2, planes(values))
        assert np.array_equal(pipeline.read_vr(2), pipeline.read_vr(1))
        assert not pipeline.read_vr(2)[5:].any()  # the tail is cleared
        before = pipeline._store.copy()
        too_long = np.zeros(9, dtype=np.int64)
        for vr, rejected, message in (
            (pipeline.num_vrs, too_long, "vector register 8 out of range"),  # the VR first
            (-1, values, "vector register -1 out of range"),
            (0, too_long, "vector of 9 elements exceeds 8 rows"),
        ):
            with pytest.raises(CapacityError, match=message):
                pipeline.set_vr_bits(vr, rejected)
            with pytest.raises(CapacityError, match=message):
                pipeline.set_vr_planes(vr, planes(rejected))
        assert np.array_equal(pipeline._store, before)

    def test_write_element_matches_set_vr_bits(self, small_pipeline):
        values = np.array([-5, 7, -1, 0, 3, -128, 127, 2])
        for row, value in enumerate(values):
            small_pipeline.write_element(1, row, int(value))
        small_pipeline.set_vr_bits(2, values)
        assert np.array_equal(small_pipeline.read_vr(1), small_pipeline.read_vr(2))

    @pytest.mark.parametrize("depth", [8, 64])
    def test_write_element_accepts_numpy_integers(self, depth):
        pipeline = BitPipeline(depth=depth, rows=4, cols=16)
        values = np.array([-3, 5, np.iinfo(np.int64).min >> (64 - depth), -1])
        for row, value in enumerate(values):  # np.int64 scalars, not int
            pipeline.write_element(1, row, value)
        assert np.array_equal(pipeline.read_vr(1, signed=True), values)

    def test_arrays_alias_pipeline_storage(self, small_pipeline):
        small_pipeline.arrays[3].bits[5, 2] = True  # through the array ...
        assert small_pipeline.read_element(2, 5) == 1 << 3  # ... seen by the VR
        small_pipeline.set_vr_bits(2, np.array([1 << 9]))  # and the other way
        assert small_pipeline.arrays[9].bits[0, 2]
        assert not small_pipeline.arrays[3].bits[5, 2]
        assert small_pipeline.arrays[9].read_column(2)[0]

    def test_gate_level_add_after_set_vr_bits(self, small_pipeline, rng):
        a = rng.integers(0, 2 ** 15, size=8)
        b = rng.integers(0, 2 ** 15, size=8)
        small_pipeline.set_vr_bits(0, a)
        small_pipeline.set_vr_bits(1, b)
        small_pipeline.add(2, 0, 1)
        assert np.array_equal(small_pipeline.read_vr(2), a + b)

    def test_standalone_array_owns_its_bits(self):
        array = DigitalArray(4, 8, oscar_family())
        assert array.bits.shape == (4, 8) and array.bits.base is None
        shared = np.zeros((4, 8), dtype=bool)
        assert DigitalArray(4, 8, oscar_family(), bits=shared).bits is shared
        for wrong in (np.zeros((8, 4), dtype=bool), np.zeros((4, 8), dtype=np.uint8)):
            with pytest.raises(ConfigurationError):
                DigitalArray(4, 8, oscar_family(), bits=wrong)


class TestWordOpCosts:
    def test_bitwise_cost_is_uops_per_bit(self):
        cost = WordOpCost("xor", WordOpKind.BITWISE, 5, 16, 64)
        assert cost.unpipelined_cycles == 5
        assert cost.pipelined_cycles == 5

    def test_carry_cost_scales_with_bits_unpipelined_only(self):
        cost = WordOpCost("add", WordOpKind.CARRY, 12, 16, 64)
        assert cost.unpipelined_cycles == 12 * 16
        assert cost.pipelined_cycles == 12

    def test_stream_cycles_pipelined_vs_not(self):
        costs = [WordOpCost("add", WordOpKind.CARRY, 12, 16, 64)] * 4
        assert stream_cycles(costs, pipelined=True) == 12 * 16 + 3 * 12
        assert stream_cycles(costs, pipelined=False) == 4 * 12 * 16

    def test_stream_cycles_empty(self):
        assert stream_cycles([]) == 0.0


class TestDce:
    def test_element_load_gathers_by_address(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=4, pipeline_depth=8, rows=16, cols=16))
        table = np.arange(16)[::-1]
        dce.pipeline(1).write_vr(0, table)
        dce.pipeline(0).write_vr(0, np.array([3, 0, 15, 7]))
        dce.element_load(0, 1, 0, 0, 1, 0, num_elements=4)
        assert np.array_equal(dce.pipeline(0).read_vr(1)[:4], table[[3, 0, 15, 7]])

    def test_element_store_scatters_by_address(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=4, pipeline_depth=8, rows=16, cols=16))
        dce.pipeline(0).write_vr(0, np.array([9, 8, 7, 6]))          # values
        dce.pipeline(0).write_vr(1, np.array([1, 3, 5, 7]))          # addresses
        dce.element_store(0, 0, 0, 1, 2, 0, num_elements=4)
        table = dce.pipeline(2).read_vr(0)
        assert table[1] == 9 and table[3] == 8 and table[5] == 7 and table[7] == 6

    def test_element_load_address_out_of_range(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=2, pipeline_depth=8, rows=16, cols=16))
        dce.pipeline(0).write_vr(0, np.array([4000]))
        with pytest.raises(ExecutionError):
            dce.element_load(0, 1, 0, 0, 1, 0, num_elements=1)

    def test_copy_vr_between_pipelines(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=2, pipeline_depth=8, rows=8, cols=16))
        values = np.arange(8)
        dce.pipeline(0).write_vr(0, values)
        dce.copy_vr_between_pipelines(0, 0, 1, 3)
        assert np.array_equal(dce.pipeline(1).read_vr(3), values)

    def test_reserve_and_release_pipeline(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=2, pipeline_depth=8, rows=8, cols=16))
        dce.reserve_pipeline(1)
        assert dce.is_reserved(1)
        dce.release_pipeline(1)
        assert not dce.is_reserved(1)

    def test_pipeline_index_bounds(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=2, pipeline_depth=8, rows=8, cols=16))
        with pytest.raises(CapacityError):
            dce.pipeline(5)

    def test_capacity_accounting(self):
        config = DceConfig(num_pipelines=64, pipeline_depth=64, rows=64, cols=64)
        assert config.total_arrays == 4096
        assert config.capacity_bits == 4096 * 64 * 64
