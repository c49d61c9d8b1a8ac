"""Tests for the analog PUM substrate."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from digest_text import rendered

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
    slice_inputs,
    slice_matrix,
)
from repro import DevicePool, PumServer, StaticBatchingPolicy
from repro.core.config import ChipConfig, HctConfig
from repro.core.hct import HybridComputeTile
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

    def test_shift_add_plan_steps(self):
        plan = ShiftAddPlan(input_bits=3, weight_slices=2, bits_per_cell=2)
        steps = plan.steps
        assert len(steps) == 6
        assert plan.max_shift == 2 + 2

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4))
    def test_plan_shift_coverage(self, input_bits, slices):
        plan = ShiftAddPlan(input_bits=input_bits, weight_slices=slices, bits_per_cell=2)
        assert plan.num_partial_products == input_bits * slices
        assert len(plan.steps) == plan.num_partial_products


class TestNumberRepresentations:
    def test_differential_encoding_splits_sign(self):
        matrix = np.array([[3, -2], [0, -7]])
        encoded = DifferentialPairs(value_bits=4).encode(matrix)
        positive, negative = encoded.planes
        assert np.array_equal(positive - negative, matrix)
        assert positive.min() >= 0 and negative.min() >= 0

    def test_offset_encoding_and_decode(self):
        matrix = np.array([[3, -2]])
        scheme = OffsetSubtraction(value_bits=4)
        encoded = scheme.encode(matrix)
        assert encoded.offset == scheme.offset and not encoded.planes[1].any()
        assert np.array_equal(encoded.planes[0] - encoded.offset, matrix)

    def test_magnitude_overflow_rejected(self):
        with pytest.raises(QuantizationError):
            DifferentialPairs(value_bits=2).encode(np.array([[9]]))

    @pytest.mark.parametrize("value_bits", [1, 2, 3, 4, 6])
    def test_the_encoders_admit_exactly_what_slicing_holds(self, value_bits):
        """The slicer scans nothing: an encoder's check is the write path's
        one range check.  Every value it admits encodes to planes in ``[0,
        2**value_bits)`` whose slices recombine to them; one past either
        end is refused."""
        for encoding in (DifferentialPairs(value_bits), OffsetSubtraction(value_bits)):
            admitted = np.arange(encoding.low, encoding.high + 1)[None]
            planes = encoding.encode(admitted).planes
            assert planes.min() >= 0 and planes.max() < 1 << value_bits
            slices = slice_matrix(planes, value_bits, 2)
            recombined = sum(plane << (2 * s) for s, plane in enumerate(slices))
            assert np.array_equal(recombined[0] - recombined[1] - encoding.offset, admitted)
            for outside in (encoding.low - 1, encoding.high + 1):
                with pytest.raises(QuantizationError):
                    encoding.encode(np.array([[outside]]))

    def test_an_unsliceable_offset_value_is_refused_by_both_entries(self):
        """``+offset`` encodes one bit too wide: ``set_matrix`` and
        ``reprogram`` of a 3-bit offset matrix holding 4 both refuse it,
        leaving the arrays, the ledger and the shard kernel as they were."""
        ace = AnalogComputeElement(AceConfig(num_arrays=8, array_rows=8, array_cols=8))
        good = np.arange(-4, 4).reshape(2, 4)
        bad = good.copy()
        bad[1, 3] = 4
        handle = ace.set_matrix(good, value_bits=3, representation="offset")
        kernel = ace.kernel_for(handle)

        def state():
            return (repr(ace.ledger), ace.arrays_free, ace.stored_matrix(handle).tobytes(),
                    [plane.tobytes() for plane in ace.programmed_planes(handle)],
                    kernel.recombined.tobytes(), kernel.exact)

        before = state()
        with pytest.raises(QuantizationError):
            ace.set_matrix(bad, value_bits=3, representation="offset")
        with pytest.raises(QuantizationError):
            ace.reprogram(handle, bad)
        assert state() == before and ace.kernel_for(handle) is kernel


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


def raw_tile(noise=None):
    """A tile of 64 16x16 arrays in raw mode (``disable_digital_mode``): an
    MVM returns the analog shift-and-add reduction, no DCE in the way."""
    config = HctConfig(dce=HctConfig.small().dce,
                       ace=AceConfig(num_arrays=64, array_rows=16, array_cols=16))
    tile = HybridComputeTile(config, noise=noise)
    tile.disable_digital_mode()
    return tile


def raw_mvm(tile, handle, x, input_bits):
    """``x @ matrix`` through the ACE alone, one crossbar call per step."""
    return tile.execute_mvm_batch(handle, x[None], input_bits=input_bits,
                                  backend="reference").values[0]


class TestAce:
    def test_bit_sliced_mvm_is_exact(self, rng):
        tile = raw_tile()
        matrix = rng.integers(-100, 100, size=(40, 30))
        handle = tile.set_matrix(matrix, value_bits=8, bits_per_cell=2)
        x = rng.integers(0, 255, size=40)
        assert np.array_equal(raw_mvm(tile, handle, x, 8), x @ matrix)

    def test_arrays_needed_and_capacity_error(self):
        ace = AnalogComputeElement(AceConfig(num_arrays=4, array_rows=16, array_cols=16))
        assert ace.arrays_needed((32, 32), 8, 2) == 16
        with pytest.raises(CapacityError):
            ace.set_matrix(np.zeros((32, 32), dtype=np.int64), 8, 2)

    def test_release_frees_arrays(self, rng):
        ace = AnalogComputeElement(AceConfig(num_arrays=8, array_rows=16, array_cols=16))
        handle = ace.set_matrix(rng.integers(0, 3, size=(16, 16)), value_bits=2, bits_per_cell=1)
        free = ace.arrays_free
        ace.release(handle)
        assert ace.arrays_free == free + len(handle.array_ids) == 8

    def test_update_row_changes_result(self, rng):
        ace = AnalogComputeElement(AceConfig(num_arrays=8, array_rows=8, array_cols=8))
        matrix = rng.integers(0, 3, size=(8, 8))
        handle = ace.set_matrix(matrix, value_bits=3, bits_per_cell=1)
        new_row = np.ones(8, dtype=np.int64) * 3
        handle = ace.update_row(handle, 0, new_row)
        assert np.array_equal(ace.stored_matrix(handle)[0], new_row)

    def test_noise_injection_stays_close(self, rng):
        noisy = raw_tile(NoiseConfig(programming_sigma=0.02, read_sigma=0.01))
        matrix = rng.integers(-10, 10, size=(16, 16))
        handle = noisy.set_matrix(matrix, value_bits=5, bits_per_cell=1)
        x = rng.integers(0, 15, size=16)
        got = raw_mvm(noisy, handle, x, 4)
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
    and re-pinned over ``ca3b0f3`` when the ledger moved to integer units
    (``repr`` of a ledger then shows units); ``ROUNDED``, computed at
    ``ca3b0f3``, held across that move.  Neither may move in a pure
    optimisation; the matrices come from a fixed seed, not
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
            "b325ca55c6a4b0f57b0e71b81cdec8c2e98c342f571c864094895ac74c13e12f",
        "paper_default":
            "9bd4d97fbc7d24900f8fa963f0b9fcaff477d78c3dcbd9636cc1dde6855e16d6",
        "sigma_zero":
            "b325ca55c6a4b0f57b0e71b81cdec8c2e98c342f571c864094895ac74c13e12f",
        "stuck_at":
            "13bb83f5f49392d955f6038496c46baf16625b6ea53b1a7daf6302d9f8e91711",
        "update_row":
            "850142007d2e2838a137d43a426c38447e7f85d0cc9aa842446e268b25c27b21",
        "reregister":
            "62e178944492a21d56767f0ed023a86f14ff49e33f2bfe4315934588edba12e6",
    }
    #: The siblings: the same material through ``digest_text.rendered``.
    ROUNDED = {
        "ideal":
            "69a56ad8173e3aed8f72034e5857624e9d576c6d031e6c4251b464e0605cf4e9",
        "paper_default":
            "cdf42dff640d51705847b5263d128d41e663cfb1748f854c3173883cf50688d1",
        "sigma_zero":
            "69a56ad8173e3aed8f72034e5857624e9d576c6d031e6c4251b464e0605cf4e9",
        "stuck_at":
            "c68a4dd8f76545c1fe1c74ee7ec3b09cc4ceb1f58204e7318bfb6c421a38a615",
        "update_row":
            "302a3ea339d12dbb1c999a2eed5a3f348d74f0224a35f7b9ca773abdf9b0b654",
        "reregister":
            "4a87dd3aad3346c3185ec58dfe1935a65b1bddafbc09c207c184eb8d6df0eaa0",
    }

    @staticmethod
    def _matrix(shape, label=0):
        rng = np.random.default_rng((22, label, *shape))
        return rng.integers(-8, 8, size=shape)

    @staticmethod
    def _absorb(digest, ace, handle, text=None):
        """Hash the programmed state of ``handle``; returns its ``exact`` flag.

        ``text=None`` feeds the exact pin (raw bytes, ``repr``); the sibling
        passes :func:`~digest_text.rendered`.
        """
        def put(exact, value):
            digest.update(exact if text is None else text(value))

        for array_id in handle.array_ids:
            crossbar = ace.crossbar(array_id)
            for plane in (crossbar.positive_levels, crossbar.negative_levels):
                plane = np.ascontiguousarray(plane, dtype=np.int64)
                put(plane.tobytes(), plane)
            for plane in (crossbar.positive_conductances, crossbar.negative_conductances):
                plane = np.ascontiguousarray(plane, dtype=np.float64)
                put(plane.tobytes(), plane)
            shape = tuple(int(n) for n in crossbar.programmed_shape)
            put(repr(shape).encode(), shape)
        kernel = ace.kernel_for(handle)
        put(repr(kernel.exact).encode(), kernel.exact)
        for tile in kernel.tiles:
            for block in (tile.pos, tile.neg, tile.recombined):
                put(repr(block.shape).encode(), block.shape)
                block = np.ascontiguousarray(block, dtype=np.float64)
                put(block.tobytes(), block)
        put(repr(ace.ledger).encode(), ace.ledger)
        return kernel.exact

    def _registrations(self, noise, text=None):
        digest = hashlib.sha256()
        exact = {}
        for representation, bits_per_cell, shape in itertools.product(
            ("differential", "offset"), (1, 2), self.SHAPES
        ):
            ace = AnalogComputeElement(self.SHAPES[shape], noise=self.NOISE[noise], tile_id=3)
            handle = ace.set_matrix(self._matrix(shape), self.VALUE_BITS, bits_per_cell,
                                    representation)
            exact[bits_per_cell, shape] = self._absorb(digest, ace, handle, text)
        return digest.hexdigest(), exact

    def _update_row(self, text=None):
        ace = AnalogComputeElement(noise=self.NOISE["paper_default"], tile_id=1)
        first = ace.set_matrix(self._matrix((64, 64)), self.VALUE_BITS)
        digest = hashlib.sha256()
        self._absorb(digest, ace, first, text)
        second = ace.update_row(first, 5, self._matrix((64, 64), label=1)[5])
        assert second.array_ids == first.array_ids
        self._absorb(digest, ace, second, text)
        return digest.hexdigest()

    def _reregister(self, text=None):
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
                                                 self.VALUE_BITS), text)
        return digest.hexdigest()

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_every_registration_shape(self, noise):
        hexdigest, exact = self._registrations(noise)
        assert hexdigest == self.EXPECTED[noise]
        # The flag follows the programmed values and the ADC grid, never the
        # config's switches: write noise of sigma 0 moves nothing, and a
        # 2-bit cell on 64 rows overruns the 8-bit converter.
        lossless = noise in ("ideal", "sigma_zero")
        assert exact == {(bits, shape): lossless and (bits == 1 or shape == (70, 20))
                         for bits, shape in exact}

    def test_update_row_reprograms_the_same_arrays(self):
        assert self._update_row() == self.EXPECTED["update_row"]

    def test_release_then_reregister_restarts_the_stream(self):
        assert self._reregister() == self.EXPECTED["reregister"]

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_every_registration_shape_rounded(self, noise):
        assert self._registrations(noise, rendered)[0] == self.ROUNDED[noise]

    def test_update_row_rounded(self):
        assert self._update_row(rendered) == self.ROUNDED["update_row"]

    def test_reregister_rounded(self):
        assert self._reregister(rendered) == self.ROUNDED["reregister"]


class TestReprogramEquivalence:
    """Every kind of re-registration, pinned from the caller's side and the
    array's.

    One ``PumServer`` over ``DevicePool(replication=2, verify="full")`` on
    two small chips walks name ``"a"`` through a registration, new bytes of
    the same shape, the same bytes again, a new shape, a new
    ``element_size``, new bytes at that size, then ``update_row`` and
    ``update_col`` on every copy's device and a re-registration of what
    they left; name ``"b"`` sits beside it throughout.  After each step one
    sha256 absorbs the answers of a fixed wave to both names (statuses,
    results, latency ticks, energy, errors), and per copy of ``"a"`` each
    block's level and conductance planes, the shard kernel's ``exact`` flag
    and recombined weights and every crossbar's ``mvm_count``; then the
    ABFT checksums and ``repr`` of every ledger.  ``EXPECTED`` was computed
    at ``e3c05a5``, where every step released the old copies and placed
    new ones, on both ``REPRO_BACKEND`` legs: a step that reprograms in
    place must leave the same state behind.  It was re-pinned over
    ``ca3b0f3`` when the ledger moved to integer units (``repr`` of a
    ledger and the last bits of an energy moved); ``ROUNDED``, computed at
    ``ca3b0f3``, held across that move.
    """

    NOISE = {"ideal": NoiseConfig.ideal(), "paper_default": NoiseConfig.paper_default()}
    EXPECTED = {
        "ideal": "f3a19a2909b416d101d9898077b02e50d82524241e8edb187bb63611f3542192",
        "paper_default":
            "365cbc9990fb58df518d6e9a7d7b96e886e1dd4b1f5813862ac30ced988a55e8",
    }
    #: The siblings: the same material through ``digest_text.rendered``.
    ROUNDED = {
        "ideal": "761d2dfc52bc0fb64612e5ccc1839c1483464a030f5b754e50d73fbdb89b9eab",
        "paper_default":
            "cb2a6786cabcaa222fdd84148900f11c9bd13a1694a81f08b9c4cca781bf8fe3",
    }

    @staticmethod
    def _array(digest, array, text=None):
        array = np.ascontiguousarray(array)
        if text is not None:
            digest.update(text(array))
            return
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())

    def _copy(self, digest, device, device_allocation, text=None):
        for _, hct, handle in device._tiles(device_allocation):
            ace = hct.ace
            for block in ace.programmed_planes(handle):
                self._array(digest, block, text)
            kernel = ace.kernel_for(handle)
            digest.update(bytes([kernel.exact]))
            for tile in kernel.tiles:
                self._array(digest, tile.recombined, text)
            self._array(digest, [ace.crossbar(i).mvm_count for i in handle.array_ids], text)

    def _absorb(self, digest, server, vectors, text=None):
        for name in ("a", "b"):
            rows = server.allocation_for(name).shape[0]
            futures = server.submit_batch(name, vectors[:, :rows], input_bits=3)
            server.run_until_idle()
            *columns, errors = futures.columns()
            for column in columns:
                self._array(digest, column, text)
            digest.update(repr(sorted(errors.items())).encode())
        pool = server.pool
        allocation = server.allocation_for("a")
        for task in allocation.all_tasks:
            self._copy(digest, pool.devices[task.device_index], task.device_allocation, text)
        for band in pool.integrity._bands[allocation.allocation_id]:
            self._array(digest, [band.row_start, band.row_end], text)
            self._array(digest, band.check, text)
            self._array(digest, band.abs_check, text)
        for device in pool.devices:
            for ledger in (device.ledger, device.chip.total_ledger()):
                digest.update(repr(ledger).encode() if text is None else text(ledger))

    def _campaign(self, noise, text=None):
        rng = np.random.default_rng((30, 7))

        def matrix(shape, bits=4):
            return rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), size=shape)

        pool = DevicePool(num_devices=2, config=ChipConfig(hct=HctConfig.small(), num_hcts=8),
                          noise=self.NOISE[noise], replication=2, verify="full")
        server = PumServer(pool=pool, scheduling=StaticBatchingPolicy(8, 1))
        vectors = rng.integers(0, 8, size=(6, 40))
        server.register_matrix("b", matrix((20, 12)), element_size=4, input_bits=3)
        digest = hashlib.sha256()
        current = None
        for new, element_size in (
            (matrix((40, 20)), 4),     # registration
            (matrix((40, 20)), 4),     # new bytes, same shape
            (None, 4),                 # the same bytes, in a new array
            (matrix((24, 20)), 4),     # a new shape
            (None, 5),                 # the same bytes, a new element_size
            (matrix((24, 20), 5), 5),  # new bytes at that size
        ):
            current = current.copy() if new is None else new
            server.register_matrix("a", current, element_size=element_size, input_bits=3)
            self._absorb(digest, server, vectors, text)

        # update_row / update_col on every copy's device, each copy called
        # there directly (the pool's checksums still hold the registered
        # bytes), then the name re-registered with what they left.
        current[5] = matrix(20, 5)
        current[:, 3] = matrix(24, 5)
        for task in server.allocation_for("a").all_tasks:
            device = pool.devices[task.device_index]
            device.update_row(task.device_allocation, 5, current[5])
            device.update_col(task.device_allocation, 3, current[:, 3])
            self._array(digest, device.exec_mvm_batch(task.device_allocation,
                                                      vectors[:, :24], input_bits=3), text)
            self._copy(digest, device, task.device_allocation, text)
        server.register_matrix("a", current, element_size=5, input_bits=3)
        self._absorb(digest, server, vectors, text)
        return digest.hexdigest()

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_every_kind_of_reregistration(self, noise):
        assert self._campaign(noise) == self.EXPECTED[noise]

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_every_kind_of_reregistration_rounded(self, noise):
        assert self._campaign(noise, rendered) == self.ROUNDED[noise]


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
    tile = raw_tile()
    magnitude = 2 ** (bits - 1)
    matrix = rng.integers(-magnitude, magnitude, size=(rows, cols))
    handle = tile.set_matrix(matrix, value_bits=bits, bits_per_cell=1)
    x = rng.integers(0, 2 ** bits, size=rows)
    assert np.array_equal(raw_mvm(tile, handle, x, bits), x @ matrix)
