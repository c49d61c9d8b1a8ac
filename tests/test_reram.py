"""Tests for the ReRAM device and non-ideality models."""

import numpy as np
import pytest

from repro.testing import derive_rng
from hypothesis import given, strategies as st

from repro import DarthPumDevice
from repro.analog.crossbar import AnalogCrossbar, add_read_noise, read_noise_variance
from repro.errors import ConfigurationError, QuantizationError
from repro.reram import (
    ConductanceMapper,
    DeviceParameters,
    DriftModel,
    NoiseConfig,
    NoiseStack,
    ParasiticModel,
    StuckAtFaultModel,
)


class TestDeviceParameters:
    def test_defaults_valid(self):
        params = DeviceParameters()
        assert params.conductance_range > 0
        assert params.levels(1) == 2
        assert params.levels(8) == 256

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceParameters(g_min=1e-4, g_max=1e-6)
        with pytest.raises(ConfigurationError):
            DeviceParameters(g_min=-1.0)
        with pytest.raises(ConfigurationError):
            DeviceParameters().levels(20)


class TestConductanceMapper:
    @given(st.integers(min_value=1, max_value=8))
    def test_roundtrip_is_exact_for_all_levels(self, bits):
        params = DeviceParameters()
        mapper = ConductanceMapper(params, bits)
        values = np.arange(2 ** bits)
        conductances = mapper.value_to_conductance(values)
        levels = np.rint((conductances - params.g_min) / mapper.lsb_conductance())
        assert np.array_equal(levels, values)

    def test_out_of_range_value_rejected(self):
        # The mapper's range check is ``check``: ``value_to_conductance`` maps
        # levels a slicer's mask already bounds, without scanning them.
        mapper = ConductanceMapper(DeviceParameters(), 2)
        with pytest.raises(QuantizationError):
            mapper.check(np.array([4]))


class TestNoiseStack:
    def test_ideal_config_is_deterministic(self):
        stack = NoiseStack(DeviceParameters(), NoiseConfig.ideal())
        conductances = np.full((4, 4), 5e-5)
        assert np.array_equal(stack.program(conductances), conductances)
        assert not stack.read_noise_active

    def test_programming_noise_perturbs_but_stays_in_range(self):
        params = DeviceParameters(programming_noise_sigma=0.05)
        stack = NoiseStack(params, NoiseConfig(read_sigma=0.0))
        conductances = np.full((8, 8), 5e-5)
        programmed = stack.program(conductances)
        assert not np.array_equal(programmed, conductances)
        assert programmed.min() >= params.g_min and programmed.max() <= params.g_max

    def test_read_noise_changes_between_reads(self):
        stack = NoiseStack(DeviceParameters(), NoiseConfig(programming_sigma=0.0))
        conductances = np.full((4, 4), 5e-5)
        assert stack.read_noise_active
        first = stack.read_noise.apply(conductances, stack.rng)
        assert not np.array_equal(first, stack.read_noise.apply(conductances, stack.rng))

    #: Programming noise stated at strength 0, and no other source.
    SIGMA_ZERO = NoiseConfig(programming_sigma=0.0, read_sigma=0.0)

    def test_a_zero_strength_write_is_the_plane_itself(self, monkeypatch):
        """A source at strength 0 is off: the write returns the plane itself
        and builds no generator, and an in-place rewrite of a 64x64 4-bit
        device builds none either."""
        stack = NoiseStack(DeviceParameters(), self.SIGMA_ZERO)
        plane = np.full((4, 4), 5e-5)
        assert stack.program(plane) is plane
        assert stack._rng is None
        rng = derive_rng("reram-zero-strength")
        device = DarthPumDevice(noise=self.SIGMA_ZERO)
        allocation = device.set_matrix(rng.integers(-8, 8, size=(64, 64)), element_size=4)
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: built.append(args) or default_rng(*args))
        device.update_matrix(allocation, rng.integers(-8, 8, size=(64, 64)))
        assert built == []

    def test_seed_reproducibility(self):
        config = NoiseConfig(seed=42)
        a = NoiseStack(DeviceParameters(), config).program(np.full((4, 4), 5e-5))
        b = NoiseStack(DeviceParameters(), config).program(np.full((4, 4), 5e-5))
        assert np.array_equal(a, b)


class TestBulkReadNoise:
    """The bitline read-noise term the MVM paths execute
    (``repro.analog.crossbar.add_read_noise``) against the per-device
    definition it stands for (``ReadNoiseModel.apply``).

    Nothing else can gate this: ``benchmarks/test_sec75_accuracy.py`` runs
    ``section75_accuracy``, which injects output-referred ``noise_lsb``
    through ``NoisyInferenceEngine`` and never builds a ``NoiseStack``.
    """

    DRAWS = 16000
    ROWS, COLS = 12, 5

    @pytest.mark.parametrize("sigma", [0.002, 0.05])
    def test_bitline_draw_matches_per_device_model_in_distribution(self, sigma):
        rng = derive_rng("bitline-read-noise", sigma)
        params = DeviceParameters()
        model = NoiseStack(params, NoiseConfig(read_sigma=sigma)).read_noise
        lsb = ConductanceMapper(params, 1).lsb_conductance()
        positive = rng.uniform(params.g_min, params.g_max, size=(self.ROWS, self.COLS))
        negative = rng.uniform(params.g_min, params.g_max, size=(self.ROWS, self.COLS))
        positive[:, 0] = negative[:, 0] = params.g_min  # a column of g_min-only pairs
        negative[:, 1] = params.g_min
        positive[rng.random(positive.shape) < 0.3] = params.g_min
        patterns = rng.integers(0, 2, size=(3, self.ROWS))
        patterns[0], patterns[1] = 0, 1  # nothing driven; every wordline driven

        variance = read_noise_variance(positive, negative, sigma / lsb)
        for x in patterns.astype(float):
            clean = (x @ positive - x @ negative) / lsb
            # Per device: every vector reads its own perturbed planes.
            stacked = (self.DRAWS, self.ROWS, self.COLS)
            pos_reads = model.apply(np.broadcast_to(positive, stacked), rng)
            neg_reads = model.apply(np.broadcast_to(negative, stacked), rng)
            per_device = (
                np.einsum("r,nrc->nc", x, pos_reads) - np.einsum("r,nrc->nc", x, neg_reads)
            ) / lsb - clean
            # At the bitline: one normal per (vector, column).
            bitline = np.zeros((self.DRAWS, self.COLS))
            add_read_noise(bitline, np.broadcast_to(x, (self.DRAWS, self.ROWS)), variance, rng)
            if not x.any():
                assert np.all(bitline == 0.0) and np.all(per_device == 0.0)
                continue
            standard_error = np.sqrt((per_device.var(axis=0) + bitline.var(axis=0)) / self.DRAWS)
            assert np.all(
                np.abs(per_device.mean(axis=0) - bitline.mean(axis=0)) <= 4 * standard_error
            )
            ratio = bitline.var(axis=0) / per_device.var(axis=0)
            assert np.all((0.93 <= ratio) & (ratio <= 1.07)), ratio
            # And both sit on the closed form the docstring states.
            assert np.allclose(bitline.var(axis=0), x @ variance, rtol=0.07)

    def test_inactive_read_noise_consumes_nothing(self):
        vectors = np.ones((3, 8), dtype=np.int64)
        for noise in (
            NoiseConfig.ideal(),
            NoiseConfig(read_sigma=0.0, seed=4),
            NoiseConfig(programming_sigma=0.0, read_sigma=0.0, seed=4),
        ):
            crossbar = AnalogCrossbar(rows=8, cols=4, noise=noise)
            crossbar.program_differential(
                np.eye(8, 4, dtype=np.int64), np.zeros((8, 4), dtype=np.int64)
            )
            assert not crossbar.noise.read_noise_active
            before = crossbar.noise.rng.bit_generator.state
            crossbar.mvm_batch(vectors)
            crossbar.mvm_1bit(vectors[0])
            assert crossbar.noise.rng.bit_generator.state == before


class TestDriftAndStuckAt:
    def test_drift_decays_toward_gmin(self):
        params = DeviceParameters()
        drift = DriftModel(params, drift_rate=0.1)
        conductances = np.array([params.g_max])
        later = drift.apply(conductances, elapsed=10)
        assert params.g_min < later[0] < params.g_max

    def test_drift_zero_elapsed_is_identity(self):
        params = DeviceParameters()
        drift = DriftModel(params, 0.1)
        values = np.array([5e-5])
        assert np.allclose(drift.apply(values, 0), values)

    def test_drift_config_is_refused(self):
        """No MVM path applies drift, so a drift config is refused rather
        than answered as if the devices held still (an ideal answer)."""
        with pytest.raises(ConfigurationError, match="drift is not modelled"):
            NoiseConfig(drift=True)

    def test_ir_drop_config_is_refused(self):
        """No MVM path reads ``ir_drop``: IR drop comes from a
        ``ParasiticModel`` on the tile, and the refusal says so."""
        with pytest.raises(ConfigurationError, match="ParasiticModel"):
            NoiseConfig(ir_drop=True)
        assert not NoiseConfig().ir_drop and not NoiseConfig.paper_default().ir_drop

    def test_stuck_at_fault_count_matches_rate(self):
        params = DeviceParameters()
        model = StuckAtFaultModel(params, rate=0.5)
        rng = derive_rng("reram")
        model.build_fault_map((100, 100), rng)
        assert 3000 < model.fault_count < 7000

    def test_stuck_at_zero_rate_is_identity(self):
        model = StuckAtFaultModel(DeviceParameters(), rate=0.0)
        values = np.full((4, 4), 5e-5)
        assert np.array_equal(model.apply(values, derive_rng("reram")), values)


class TestParasitics:
    def test_zero_wire_resistance_is_ideal(self):
        model = ParasiticModel(wire_resistance_ohm=0.0)
        conductances = np.full((8, 4), 5e-5)
        attenuation = model.attenuation(conductances, np.ones(8))
        assert np.allclose(attenuation, 1.0)

    def test_attenuation_grows_with_activated_rows(self):
        model = ParasiticModel(wire_resistance_ohm=50.0)
        conductances = np.full((16, 4), 1e-4)
        few = model.worst_case_drop_fraction(conductances[:2])
        many = model.worst_case_drop_fraction(conductances)
        assert many > few

    def test_balanced_matrix_has_less_positive_line_current(self):
        from repro.analog import ParasiticCompensation

        compensation = ParasiticCompensation()
        matrix = np.ones((16, 4), dtype=np.int64)
        improvement = compensation.ir_drop_improvement(matrix, ParasiticModel(10.0))
        assert improvement > 1.0
