"""Tests for the ReRAM device and non-ideality models."""

import numpy as np
import pytest

from repro.testing import derive_rng
from hypothesis import given, strategies as st

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
        assert np.array_equal(mapper.conductance_to_value(conductances), values)

    def test_out_of_range_value_rejected(self):
        mapper = ConductanceMapper(DeviceParameters(), 2)
        with pytest.raises(QuantizationError):
            mapper.value_to_conductance(np.array([4]))

    def test_quantisation_is_nearest_level(self):
        mapper = ConductanceMapper(DeviceParameters(), 1)
        midpoint = (mapper.params.g_min + mapper.params.g_max) / 2
        assert mapper.conductance_to_value(np.array([midpoint * 1.01]))[0] == 1


class TestNoiseStack:
    def test_ideal_config_is_deterministic(self):
        stack = NoiseStack(DeviceParameters(), NoiseConfig.ideal())
        conductances = np.full((4, 4), 5e-5)
        assert np.array_equal(stack.program(conductances), conductances)
        assert np.array_equal(stack.read(conductances), conductances)

    def test_programming_noise_perturbs_but_stays_in_range(self):
        params = DeviceParameters(programming_noise_sigma=0.05)
        stack = NoiseStack(params, NoiseConfig(programming_noise=True, read_noise=False))
        conductances = np.full((8, 8), 5e-5)
        programmed = stack.program(conductances)
        assert not np.array_equal(programmed, conductances)
        assert programmed.min() >= params.g_min and programmed.max() <= params.g_max

    def test_read_noise_changes_between_reads(self):
        stack = NoiseStack(DeviceParameters(), NoiseConfig(programming_noise=False, read_noise=True))
        conductances = np.full((4, 4), 5e-5)
        assert not np.array_equal(stack.read(conductances), stack.read(conductances))

    def test_seed_reproducibility(self):
        config = NoiseConfig(seed=42)
        a = NoiseStack(DeviceParameters(), config).program(np.full((4, 4), 5e-5))
        b = NoiseStack(DeviceParameters(), config).program(np.full((4, 4), 5e-5))
        assert np.array_equal(a, b)


class TestBulkReadNoise:
    """``apply_pair_bulk`` replays alternating ``apply`` calls exactly."""

    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_bulk_equals_alternating_apply(self, count):
        rng = derive_rng("bulk-read-noise")
        model = NoiseStack(DeviceParameters(), NoiseConfig(read_sigma=0.3)).read_noise
        # A wide sigma and zero-conductance cells exercise the clamp at 0.
        positive = rng.uniform(0.0, 1e-4, size=(6, 5))
        negative = rng.uniform(0.0, 1e-4, size=(6, 5))
        positive[0, 0] = negative[1, 1] = 0.0
        looped_rng, bulk_rng = (np.random.default_rng(9) for _ in range(2))
        looped = [
            (model.apply(positive, looped_rng), model.apply(negative, looped_rng))
            for _ in range(count)
        ]
        pos_stack, neg_stack = model.apply_pair_bulk(positive, negative, count, bulk_rng)
        assert pos_stack.shape == neg_stack.shape == (count, 6, 5)
        for index, (pos, neg) in enumerate(looped):
            assert np.array_equal(pos_stack[index], pos)
            assert np.array_equal(neg_stack[index], neg)
        assert (pos_stack >= 0).all() and (pos_stack == 0).any()
        # Same draws consumed: the two generators continue in lockstep.
        assert bulk_rng.bit_generator.state == looped_rng.bit_generator.state

    def test_inactive_read_noise_consumes_nothing(self):
        stack = NoiseStack(DeviceParameters(), NoiseConfig.ideal())
        before = stack.rng.bit_generator.state
        plane = np.full((3, 3), 5e-5)
        pos_stack, neg_stack = stack.read_pair_bulk(plane, plane, 4)
        assert pos_stack.shape == (4, 3, 3) and np.array_equal(pos_stack[2], plane)
        assert stack.rng.bit_generator.state == before


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
