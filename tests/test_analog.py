"""Tests for the analog PUM substrate."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from repro.testing import derive_rng
from hypothesis import given, settings, strategies as st

from repro.analog import (
    AceConfig,
    AnalogComputeElement,
    AnalogCrossbar,
    DifferentialPairs,
    OffsetSubtraction,
    ParasiticCompensation,
    RampAdc,
    SarAdc,
    ShiftAddPlan,
    make_adc,
    recombine,
    slice_inputs,
    slice_matrix,
)
from repro.core.config import HctConfig
from repro.errors import CapacityError, DeviceError, QuantizationError
from repro.reram import NoiseConfig


class TestAdcs:
    def test_sar_latency_scales_with_bitlines_per_adc(self):
        adc = SarAdc()
        assert adc.conversion_latency(64, num_adcs=2) == 32
        assert adc.conversion_latency(64, num_adcs=64) == 1

    def test_ramp_converts_all_bitlines_in_parallel(self):
        adc = RampAdc()
        assert adc.conversion_latency(64, num_adcs=1) == 256
        assert adc.conversion_latency(64, num_adcs=1, active_bits=2) == 4

    def test_quantisation_clips_to_range(self):
        adc = SarAdc(min_value=0, max_value=255)
        out = adc.convert(np.array([-5.0, 300.0, 100.4]))
        assert out[0] == 0 and out[1] == 255 and out[2] == pytest.approx(100.0)

    def test_make_adc_factory(self):
        assert make_adc("sar").kind == "sar"
        assert make_adc("ramp").kind == "ramp"
        with pytest.raises(Exception):
            make_adc("flash")

    def test_ramp_energy_accounts_for_early_termination(self):
        adc = RampAdc()
        assert adc.conversion_energy_pj(64, active_bits=2) < adc.conversion_energy_pj(64)


class TestBitSlicing:
    def test_slice_matrix_recombines(self):
        matrix = np.arange(16).reshape(4, 4)
        slices = slice_matrix(matrix, value_bits=4, bits_per_cell=2)
        assert len(slices) == 2
        recombined = slices[0] + (slices[1] << 2)
        assert np.array_equal(recombined, matrix)

    def test_slice_inputs_binary(self):
        bits = slice_inputs(np.array([5, 2]), input_bits=3)
        assert np.array_equal(bits[0], [1, 0])
        assert np.array_equal(bits[1], [0, 1])
        assert np.array_equal(bits[2], [1, 0])

    def test_negative_matrix_rejected(self):
        with pytest.raises(QuantizationError):
            slice_matrix(np.array([[-1]]), 4, 2)

    def test_recombine_matches_long_multiplication(self):
        partials = [np.array([3]), np.array([1])]
        assert recombine(partials, [0, 2])[0] == 3 + (1 << 2)

    def test_shift_add_plan_steps(self):
        plan = ShiftAddPlan(input_bits=3, weight_slices=2, bits_per_cell=2)
        steps = plan.steps
        assert len(steps) == 6
        assert plan.max_shift == 2 + 2
        assert plan.temporaries_needed() == 3

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4))
    def test_plan_shift_coverage(self, input_bits, slices):
        plan = ShiftAddPlan(input_bits=input_bits, weight_slices=slices, bits_per_cell=2)
        assert plan.num_partial_products == input_bits * slices
        assert len(plan.steps) == plan.num_partial_products


class TestNumberRepresentations:
    def test_differential_encoding_splits_sign(self):
        matrix = np.array([[3, -2], [0, -7]])
        encoded = DifferentialPairs(value_bits=4).encode(matrix)
        assert np.array_equal(encoded.positive - encoded.negative, matrix)
        assert encoded.positive.min() >= 0 and encoded.negative.min() >= 0

    def test_offset_encoding_and_decode(self):
        matrix = np.array([[3, -2]])
        scheme = OffsetSubtraction(value_bits=4)
        scheme.encode(matrix)
        decoded = scheme.decode_partial(np.array([10.0]), np.zeros(1), np.array([1.0]))
        assert decoded[0] == 10.0 - scheme.offset

    def test_magnitude_overflow_rejected(self):
        with pytest.raises(QuantizationError):
            DifferentialPairs(value_bits=2).encode(np.array([[9]]))


class TestCrossbar:
    def test_exact_mvm_without_noise(self):
        crossbar = AnalogCrossbar(rows=8, cols=8, bits_per_cell=2)
        matrix = np.arange(16).reshape(8, 2) % 4
        crossbar.program(matrix)
        x = np.array([1, 0, 1, 1, 0, 1, 0, 1])
        out = crossbar.mvm_1bit(x)
        assert np.array_equal(np.rint(out.values).astype(int), x @ matrix)

    def test_differential_programming_signed_result(self):
        crossbar = AnalogCrossbar(rows=4, cols=2, bits_per_cell=1)
        positive = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        negative = np.array([[0, 1], [1, 0], [0, 0], [1, 1]])
        crossbar.program_differential(positive, negative)
        x = np.ones(4, dtype=np.int64)
        out = crossbar.mvm_1bit(x)
        assert np.array_equal(np.rint(out.values).astype(int),
                              (positive - negative).sum(axis=0))

    def test_unprogrammed_crossbar_rejects_mvm(self):
        with pytest.raises(DeviceError):
            AnalogCrossbar(rows=4, cols=4).mvm_1bit(np.zeros(4, dtype=np.int64))

    def test_non_binary_input_rejected(self):
        crossbar = AnalogCrossbar(rows=4, cols=4)
        crossbar.program(np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(DeviceError):
            crossbar.mvm_1bit(np.array([0, 1, 2, 0]))

    def test_oversize_slice_rejected(self):
        crossbar = AnalogCrossbar(rows=4, cols=4)
        with pytest.raises(CapacityError):
            crossbar.program(np.zeros((8, 4), dtype=np.int64))

    def test_mvm_charges_latency_and_energy(self):
        crossbar = AnalogCrossbar(rows=4, cols=4)
        crossbar.program(np.ones((4, 4), dtype=np.int64))
        out = crossbar.mvm_1bit(np.ones(4, dtype=np.int64))
        assert out.latency_cycles > 0 and out.energy_pj > 0


class TestAce:
    def test_bit_sliced_mvm_is_exact(self, rng):
        ace = AnalogComputeElement(AceConfig(num_arrays=64, array_rows=16, array_cols=16))
        matrix = rng.integers(-100, 100, size=(40, 30))
        handle = ace.set_matrix(matrix, value_bits=8, bits_per_cell=2)
        x = rng.integers(0, 255, size=40)
        execution = ace.execute_mvm(handle, x, input_bits=8)
        assert np.array_equal(execution.reduce(), x @ matrix)

    def test_arrays_needed_and_capacity_error(self):
        ace = AnalogComputeElement(AceConfig(num_arrays=4, array_rows=16, array_cols=16))
        assert ace.arrays_needed((32, 32), 8, 2) == 16
        with pytest.raises(CapacityError):
            ace.set_matrix(np.zeros((32, 32), dtype=np.int64), 8, 2)

    def test_release_frees_arrays(self, rng):
        ace = AnalogComputeElement(AceConfig(num_arrays=8, array_rows=16, array_cols=16))
        handle = ace.set_matrix(rng.integers(0, 3, size=(16, 16)), value_bits=2, bits_per_cell=1)
        used = ace.arrays_used
        ace.release(handle)
        assert ace.arrays_used == used - handle.arrays_used

    def test_update_row_changes_result(self, rng):
        ace = AnalogComputeElement(AceConfig(num_arrays=8, array_rows=8, array_cols=8))
        matrix = rng.integers(0, 3, size=(8, 8))
        handle = ace.set_matrix(matrix, value_bits=3, bits_per_cell=1)
        new_row = np.ones(8, dtype=np.int64) * 3
        handle = ace.update_row(handle, 0, new_row)
        assert np.array_equal(ace.stored_matrix(handle)[0], new_row)

    def test_noise_injection_stays_close(self, rng):
        noisy = AnalogComputeElement(
            AceConfig(num_arrays=64, array_rows=16, array_cols=16),
            noise=NoiseConfig(programming_sigma=0.02, read_sigma=0.01),
        )
        matrix = rng.integers(-10, 10, size=(16, 16))
        handle = noisy.set_matrix(matrix, value_bits=5, bits_per_cell=1)
        x = rng.integers(0, 15, size=16)
        got = noisy.execute_mvm(handle, x, input_bits=4).reduce()
        want = x @ matrix
        assert np.abs(got - want).max() <= max(8, 0.2 * np.abs(want).max())


class TestProgrammedStateDigest:
    """What a registration leaves behind, pinned value for value.

    Per case, sha256 over every crossbar of the allocation in ``array_ids``
    order (levels and conductances of both planes, ``programmed_shape``),
    the shard kernel's ``exact`` flag and each tile's ``pos`` / ``neg`` /
    ``recombined``, and ``repr`` of the ACE's ledger.  A digest covers one
    noise configuration: {differential, offset} x ``bits_per_cell`` {1, 2}
    x three shapes, 4-bit values, each on a fresh ACE.  Two more follow one
    ACE under ``paper_default`` through an ``update_row`` and through a
    release and re-registration on the same arrays.  ``EXPECTED`` was
    computed at the commit before the write path was reworked (``eff2e5c``)
    and must not move; the matrices come from a fixed seed, not
    ``REPRO_TEST_SEED``, for that reason.
    """

    NOISE = {
        "ideal": NoiseConfig.ideal(),
        "paper_default": NoiseConfig.paper_default(),
        "sigma_zero": NoiseConfig(programming_noise=True, programming_sigma=0.0,
                                  read_noise=False, ir_drop=False),
        "stuck_at": NoiseConfig(read_noise=False, ir_drop=False, stuck_at_faults=True,
                                stuck_at_rate=0.03, seed=9),
    }
    #: shape -> ACE geometry (the ragged one on ``HctConfig.small()``'s
    #: 16x16 arrays, with enough of them for 5 x 2 tiles of 4 slices).
    SHAPES = {
        (64, 64): AceConfig(),
        (70, 20): dataclasses.replace(HctConfig.small().ace, num_arrays=64),
        (144, 16): AceConfig(),
    }
    VALUE_BITS = 4
    EXPECTED = {
        "ideal":
            "bcf5b21a5c12b9fb3501efddc07b16c730734a2348e033fa02688212716889fc",
        "paper_default":
            "0e5948aff0907f65e65543501d89270f81b8231a9875f2c59353a59e32a0dba7",
        "sigma_zero":
            "bcf5b21a5c12b9fb3501efddc07b16c730734a2348e033fa02688212716889fc",
        "stuck_at":
            "7b19f41628d271c9505387bbabe239fec05f648ab1b3865f11cc295f06cc5bf2",
        "update_row":
            "27c7ea96aae5d18f14ce20b9c37b2e81e37e3521b8cbc1892a89ff83d575ab2a",
        "reregister":
            "5b0b9301077710e142a844f5a33e475da0b4024c3bdb88b9ad7e17204f6abf39",
    }

    @staticmethod
    def _matrix(shape, label=0):
        rng = np.random.default_rng((22, label, *shape))
        return rng.integers(-8, 8, size=shape)

    @staticmethod
    def _absorb(digest, ace, handle):
        """Hash the programmed state of ``handle``; returns its ``exact`` flag."""
        for array_id in handle.array_ids:
            crossbar = ace.crossbar(array_id)
            for plane in (crossbar.positive_levels, crossbar.negative_levels):
                digest.update(np.ascontiguousarray(plane, dtype=np.int64).tobytes())
            for plane in (crossbar.positive_conductances, crossbar.negative_conductances):
                digest.update(np.ascontiguousarray(plane, dtype=np.float64).tobytes())
            digest.update(repr(tuple(int(n) for n in crossbar.programmed_shape)).encode())
        kernel = ace.kernel_for(handle)
        digest.update(repr(kernel.exact).encode())
        for tile in kernel.tiles:
            for block in (tile.pos, tile.neg, tile.recombined):
                digest.update(repr(block.shape).encode())
                digest.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
        digest.update(repr(ace.ledger).encode())
        return kernel.exact

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_every_registration_shape(self, noise):
        digest = hashlib.sha256()
        exact = {}
        for representation, bits_per_cell, shape in itertools.product(
            ("differential", "offset"), (1, 2), self.SHAPES
        ):
            ace = AnalogComputeElement(self.SHAPES[shape], noise=self.NOISE[noise], tile_id=3)
            handle = ace.set_matrix(self._matrix(shape), self.VALUE_BITS, bits_per_cell,
                                    representation)
            exact[bits_per_cell, shape] = self._absorb(digest, ace, handle)
        assert digest.hexdigest() == self.EXPECTED[noise]
        # The flag follows the programmed values and the ADC grid, never the
        # config's switches: write noise of sigma 0 moves nothing, and a
        # 2-bit cell on 64 rows overruns the 8-bit converter.
        lossless = noise in ("ideal", "sigma_zero")
        assert exact == {(bits, shape): lossless and (bits == 1 or shape == (70, 20))
                         for bits, shape in exact}

    def test_update_row_reprograms_the_same_arrays(self):
        ace = AnalogComputeElement(noise=self.NOISE["paper_default"], tile_id=1)
        first = ace.set_matrix(self._matrix((64, 64)), self.VALUE_BITS)
        digest = hashlib.sha256()
        self._absorb(digest, ace, first)
        second = ace.update_row(first, 5, self._matrix((64, 64), label=1)[5])
        assert second.array_ids == first.array_ids
        self._absorb(digest, ace, second)
        assert digest.hexdigest() == self.EXPECTED["update_row"]

    def test_release_then_reregister_restarts_the_stream(self):
        ace = AnalogComputeElement(noise=self.NOISE["paper_default"], tile_id=1)
        matrix = self._matrix((64, 64))
        first = ace.set_matrix(matrix, self.VALUE_BITS)
        before = [ace.crossbar(i).positive_conductances.copy() for i in first.array_ids]
        ace.crossbar(first.array_ids[0]).mvm_1bit(np.ones(64, dtype=np.int64))
        ace.release(first)
        again = ace.set_matrix(matrix, self.VALUE_BITS)
        assert again.array_ids == first.array_ids
        for array_id, conductances in zip(again.array_ids, before):
            assert np.array_equal(ace.crossbar(array_id).positive_conductances, conductances)
        ace.release(again)
        digest = hashlib.sha256()
        self._absorb(digest, ace, ace.set_matrix(self._matrix((64, 64), label=2),
                                                 self.VALUE_BITS))
        assert digest.hexdigest() == self.EXPECTED["reregister"]


class TestCompensation:
    def test_remap_and_recover_roundtrip(self, rng):
        compensation = ParasiticCompensation()
        matrix = rng.integers(0, 2, size=(16, 8))
        x = rng.integers(0, 2, size=16)
        remapped = compensation.remap(matrix)
        raw = x @ remapped
        recovered = compensation.recover(raw, x)
        assert np.array_equal(recovered, x @ matrix)

    def test_fixed_input_ones_factor(self):
        plan = ParasiticCompensation(fixed_input_ones=4).plan
        assert plan.factor(np.array([1, 1, 0, 0])) == 4

    def test_non_binary_matrix_rejected(self):
        with pytest.raises(QuantizationError):
            ParasiticCompensation().remap(np.array([[2]]))


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=12),
    cols=st.integers(min_value=1, max_value=8),
    bits=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_ace_mvm_matches_numpy(rows, cols, bits, seed):
    """Property: noise-free bit-sliced analog MVM equals the integer matmul."""
    rng = derive_rng("analog", seed)
    ace = AnalogComputeElement(AceConfig(num_arrays=64, array_rows=16, array_cols=16))
    magnitude = 2 ** (bits - 1)
    matrix = rng.integers(-magnitude, magnitude, size=(rows, cols))
    handle = ace.set_matrix(matrix, value_bits=bits, bits_per_cell=1)
    x = rng.integers(0, 2 ** bits, size=rows)
    execution = ace.execute_mvm(handle, x, input_bits=bits)
    assert np.array_equal(execution.reduce(), x @ matrix)
