"""Tests for the digital (Boolean) PUM substrate."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.digital import (
    BitPipeline,
    BooleanSynthesizer,
    DceConfig,
    DigitalArray,
    DigitalComputeElement,
    MicroOp,
    WordOpCost,
    WordOpKind,
    get_family,
    ideal_family,
    oscar_family,
)
from repro.errors import CapacityError, ConfigurationError, ExecutionError
from repro.plan.ir import PlanCostModel


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
        small_pipeline.multiply(2, 0, 1)
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

    def test_set_vr_words_is_set_vr_bits_unpacked_when_read(self, small_pipeline, rng):
        """Pending words: another VR's store unpacks them first, the same
        VR's replaces them; the checks are ``set_vr_planes``'s, raised at
        once, leaving the pending words in place."""
        pipeline = small_pipeline
        twin = BitPipeline(depth=16, rows=8, cols=16)
        a, b, c = (rng.integers(-100, 100, size=n) for n in (8, 5, 3))
        for target in (pipeline, twin):
            for vr in (1, 2, 3):
                target.set_vr_bits(vr, np.full(8, -1))  # stale bits in every row

        def planes(values):
            return (values & pipeline.bit_weights) != 0

        for stores, expected in (
            ([("words", 1, a), ("words", 2, b)], [(1, a), (2, b)]),
            ([("words", 1, c), ("planes", 3, a)], [(1, c), (3, a)]),
            ([("words", 1, b), ("planes", 1, c)], [(1, c)]),
            ([("words", 2, a), ("words", 2, c)], [(2, c)]),
            ([("words", 3, b), ("bits", 1, a)], [(3, b), (1, a)]),
        ):
            for kind, vr, values in stores:
                if kind == "words":
                    pipeline.set_vr_words(vr, values)
                elif kind == "planes":
                    pipeline.set_vr_planes(vr, planes(values))
                else:
                    pipeline.set_vr_bits(vr, values)
            for vr, values in expected:
                twin.set_vr_bits(vr, values)
            assert np.array_equal(pipeline._store, twin._store), stores

        pipeline.set_vr_words(2, a)
        too_long = np.zeros(9, dtype=np.int64)
        for vr, rejected, message in (
            (pipeline.num_vrs, too_long, "vector register 8 out of range"),  # the VR first
            (-1, b, "vector register -1 out of range"),
            (0, too_long, "vector of 9 elements exceeds 8 rows"),
        ):
            with pytest.raises(CapacityError, match=message):
                pipeline.set_vr_words(vr, rejected)
        twin.set_vr_bits(2, a)
        assert np.array_equal(pipeline.read_vr(2), twin.read_vr(2))
        assert np.array_equal(pipeline._store, twin._store)

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


def ripple_per_plane(pipeline, a, b, sum_dst, carry_in, invert_b=False):
    """The carry chain as the arrays ripple it, one bit plane at a time
    through ``pipeline.arrays``: plane k's carry-out is written into plane
    k + 1's carry-in column before its full adder runs.  The oracle of
    ``BitPipeline._carry``; returns the same ``(µops per bit, top carry)``."""
    s = pipeline.scratch
    synth = BooleanSynthesizer(pipeline.family)
    carry = np.full(pipeline.rows, bool(carry_in))
    for array in pipeline.arrays:
        array.write_column(s.carry_in, carry)
        uops, addend = 0, b
        if b is None:
            array.write_column(s.t5, np.zeros(pipeline.rows, dtype=bool))
            addend = s.t5
        elif invert_b:
            uops, addend = synth.not_col(array, b, s.t5), s.t5
        uops += synth.full_adder(array, a, addend, sum_dst, s)
        carry = array.read_column(s.carry_out)
    return uops, carry


class TestCarryChain:
    """``BitPipeline._carry`` runs the full adder once over every plane on
    carries scheduled by one integer add; the per-plane ripple decides."""

    #: (label, dst, a, b, carry_in, invert_b): add, sub, increment and
    #: compare_lt's chains, with ``dst = a`` and ``a = b`` among them.
    CHAINS = (
        ("add", 4, 0, 1, 0, False), ("add_dst_a", 0, 0, 1, 0, False),
        ("sub", 4, 0, 1, 1, True), ("sub_a_b", 4, 2, 2, 1, True),
        ("increment", 4, 0, None, 1, False), ("compare", None, 0, 1, 1, True),
    )

    @pytest.mark.parametrize("family", ["oscar", "ideal"])
    @pytest.mark.parametrize("depth", [1, 8, 63, 64])
    def test_one_pass_matches_the_per_plane_ripple(self, family, depth, make_rng):
        rng = make_rng(f"carry-chain-{family}-{depth}")
        info = np.iinfo(np.int64)
        for label, dst, a, b, carry_in, invert_b in self.CHAINS:
            values = rng.integers(info.min, info.max, size=(3, 16), endpoint=True)
            values[:, 0] = (-1, 1, -1)  # a carry through every plane
            twins = [BitPipeline(depth=depth, rows=16, cols=16, family=get_family(family))
                     for _ in range(2)]
            for pipeline in twins:
                for vr, words in enumerate(values):
                    pipeline.set_vr_bits(vr, words)
            compiled, oracle = twins
            sum_dst = compiled.scratch.t4 if dst is None else dst
            got = compiled._carry(4 if dst is None else dst, a, b, sum_dst, carry_in, invert_b)
            want = ripple_per_plane(oracle, a, b, sum_dst, carry_in, invert_b)
            assert got[0] == want[0] and np.array_equal(got[1], want[1]), label
            assert np.array_equal(compiled._store, oracle._store), label
            assert compiled.ledger == oracle.ledger, label

    def test_a_carry_the_netlist_does_not_produce_is_an_execution_error(self, small_pipeline):
        pipeline = small_pipeline
        full_adder = pipeline._synth.full_adder

        def carry_flipped_in_plane_zero(array, a, b, sum_dst, s):
            uops = full_adder(array, a, b, sum_dst, s)
            array.bits[0, :, s.carry_out] ^= True
            return uops

        pipeline._synth.full_adder = carry_flipped_in_plane_zero
        pipeline.write_vr(0, np.arange(8))
        for op in (pipeline.add, pipeline.sub, pipeline.compare_lt):
            with pytest.raises(ExecutionError, match="carry scheduled into the next bit plane"):
                op(2, 0, 1)
        with pytest.raises(ExecutionError, match="carry scheduled into the next bit plane"):
            pipeline.increment(2, 0)


class TestWordOpCosts:
    def test_bitwise_cost_is_uops_per_bit(self):
        cost = WordOpCost("xor", WordOpKind.BITWISE, 5, 16, 64)
        assert cost.unpipelined_cycles == 5

    def test_carry_cost_scales_with_bits_unpipelined_only(self):
        cost = WordOpCost("add", WordOpKind.CARRY, 12, 16, 64)
        assert cost.unpipelined_cycles == 12 * 16

    # The Figure 10 ADD stream is priced in one place, the plan cost model.
    # Every other term is zero, so the breakdown is the stream alone.
    STREAM = PlanCostModel(per_step_analog=0.0, transfer=0.0, write=0.0,
                           depth=16, max_shift=0, steps_per_vector=1,
                           partials_per_vector=1)

    def test_stream_cycles_pipelined_vs_not(self):
        # Figure 10b: the first ADD pays the full 12 µops x 16 bits, each
        # later one enters the bit pipeline 12 µops behind it.
        _, pipelined = self.STREAM.predict(4, optimized=True)
        assert pipelined["pipelined_adds"] == 12 * 16 + 3 * 12
        # Figure 10a: every serialized step carries the full ADD.
        _, serial = self.STREAM.predict(4, optimized=False)
        assert serial["serialized_steps"] == 4 * 12 * 16

    def test_stream_cycles_empty(self):
        _, breakdown = self.STREAM.predict(0, optimized=True)
        assert breakdown["pipelined_adds"] == 0


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

    def test_reserve_and_release_pipeline(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=2, pipeline_depth=8, rows=8, cols=16))
        dce.reserve_pipeline(1)
        assert dce.pipeline(1).reserved
        dce.release_pipeline(1)
        assert not dce.pipeline(1).reserved

    def test_pipeline_index_bounds(self):
        dce = DigitalComputeElement(DceConfig(num_pipelines=2, pipeline_depth=8, rows=8, cols=16))
        with pytest.raises(CapacityError):
            dce.pipeline(5)

    def test_capacity_accounting(self):
        config = DceConfig(num_pipelines=64, pipeline_depth=64, rows=64, cols=64)
        assert config.total_arrays == 4096
        assert config.capacity_bits == 4096 * 64 * 64


class TestWordOpPin:
    """Every gate-level word op, pinned bit for bit and unit for unit.

    Each cell runs one fixed sequence on a fresh pipeline: for every op,
    fresh operands are written into VRs 0-3, then the op runs in each
    aliasing form (plain, ``dst = a``, ``dst = b``, ``a = b``; ``mux``
    also ``dst = select``).  After every op the whole ``(cols, depth,
    rows)`` bit tensor, scratch columns included, and the op's returned
    ``WordOpCost`` records go into one sha256; the ledger's integer
    ``cycle_units``, ``energy_units`` and both ``*_parts`` (in order) end
    it.  The operands come from a fixed seed, not ``REPRO_TEST_SEED``, so
    the digests must not move: they were computed while every word op
    still ran its netlist one bit plane at a time.
    """

    #: ``family-depth-rows`` -> sha256 of the sequence.
    EXPECTED = {
        "oscar-1-1": "8412529e0b9002031c05643eb46ed535489f0b13d98be2888ddd5a734a2b4141",
        "oscar-1-64": "a12f3ef3de39e1008a8d5fa5a7b394e33a74c95849cc8a1b28f3cacfc46ab2ff",
        "oscar-8-1": "559a4f5837aa7c74c9e0879cf30def9cb194429ed027e59a2d841d6ba0739e50",
        "oscar-8-64": "62493a06b3f29d60f6f29bbf595502761d7d6227dd93488455e2a5b1d4a26858",
        "oscar-32-1": "2fe684864f4cd8fa9f34227b9bb46cabcadfc1fa78e65f46430ac0af9090e4f1",
        "oscar-32-64": "36046e52b180cdf16c161c8d98a5588071014a7c1d94341d4cc306634d2f2168",
        "oscar-63-1": "f2759fdf744a7701b76187d52bf92966a52c276ac7669a9446084cb57ceac20d",
        "oscar-63-64": "1db7a3101a86f9677ade3e7cab59f65b735ec3c1693ab3029a1ddefb1ae535a1",
        "oscar-64-1": "2e1b3b90edc575fe1be76d9a6a36a336a13aeb5da5d38e17da7cea651c3ae844",
        "oscar-64-64": "930c11b0fa8df8f46c0d1fac3685066ad5914b6f72945f9e08ad801b54e8e7be",
        "ideal-1-1": "b607705ea87e4251b198b02d12346bd4e53d93de1af3c41c0a719685bf77d9b3",
        "ideal-1-64": "d548137afe84baf2056827a5d8c081ea5fdc859a778d08bbeb1be22c9929d278",
        "ideal-8-1": "d7732e8821a01111e23f1ebad981f1594b7ffe06c855cc350a48697122228a57",
        "ideal-8-64": "dd864627ead822db214281e23ef79f6c6110cdf2ae603b518ba065fa68da3e05",
        "ideal-32-1": "b481d593a4a7829879fee060158fe26d8b65492c185c060611d22e37a43e90db",
        "ideal-32-64": "22b3491c5673c7dc804b31f2c1e6f7769e7b4de5db48d8f24aea76cdb9d34c37",
        "ideal-63-1": "16f5e83f3f5595e18c4904e29c26101c620de4cf0751c1aff4ff41a8026c8dcf",
        "ideal-63-64": "6186cf930ccc1954441743e3d9b619a8000424626ace11eeebb51adbfadc7deb",
        "ideal-64-1": "7e7118eb5f2587d3dd7cf57d0cdf7231cdb03ff3a398a82584d433a0625c98dc",
        "ideal-64-64": "01854cb07ca947c0a2ce0caf624ff1b79b00937b0cdc48910fa65fcb26d5e202",
    }

    BINARY = ((4, 0, 1), (0, 0, 1), (1, 2, 1), (5, 3, 3))
    UNARY = ((4, 0), (0, 0), (5, 3))
    SEQUENCE = (
        ("add", BINARY), ("sub", BINARY), ("increment", UNARY),
        ("compare_lt", BINARY), ("max_", BINARY),
        ("mux", ((4, 0, 1, 2), (1, 0, 1, 2), (2, 0, 1, 2), (0, 0, 1, 2), (5, 3, 3, 3))),
        ("relu", UNARY), ("copy", UNARY), ("not_", UNARY), ("xor", BINARY),
        ("and_", BINARY), ("or_", BINARY), ("nor", BINARY), ("multiply", BINARY),
    )

    @staticmethod
    def _digest(family, depth, rows):
        pipeline = BitPipeline(depth=depth, rows=rows, cols=16, family=get_family(family))
        rng = np.random.default_rng(44)
        info = np.iinfo(np.int64)
        sha = hashlib.sha256()

        def absorb(costs):
            costs = costs if isinstance(costs, list) else [costs]
            sha.update(repr(costs).encode())
            sha.update(pipeline._store.tobytes())

        for name, forms in TestWordOpPin.SEQUENCE:
            for operands in forms:
                values = rng.integers(info.min, info.max, size=(4, rows), endpoint=True)
                values[:, 0] = (-1, 1, 0, -1)  # a carry through every plane
                if rows > 3:
                    values[:, 1:4] = ((0, -1, 1), (0, -1, -1), (-1, 0, 1), (info.min, 0, 1))
                for vr, words in enumerate(values):
                    absorb(pipeline.write_vr(vr, words))
                absorb(getattr(pipeline, name)(*operands))
        ledger = pipeline.ledger
        sha.update(repr((ledger.cycle_units, ledger.energy_units,
                         list(ledger.cycle_parts.items()),
                         list(ledger.energy_parts.items()))).encode())
        return sha.hexdigest()

    @pytest.mark.parametrize("family", ["oscar", "ideal"])
    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("depth", [1, 8, 32, 63, 64])
    def test_word_ops_are_pinned(self, family, depth, rows):
        assert self._digest(family, depth, rows) == self.EXPECTED[f"{family}-{depth}-{rows}"]
