"""Plan/compile/execute: planner caching, backend registry, sharded plans.

The tentpole invariants of the ExecutionPlan IR:

* plans are compiled once per ``(allocation, input_bits)`` and shared by
  every backend (cross-backend reuse), invalidated on release/reprogram
  alongside the shard-kernel cache;
* the serving hot path performs zero planning -- the planner runs at
  ``register_matrix`` time only, asserted via ``planner_builds()``;
* the cost-only ``"estimate"`` backend reproduces the real engines' ledgers
  and timelines without computing values;
* the registry accepts new backends and the ``REPRO_BACKEND`` environment
  variable flips the default for the whole stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import derive_rng

from repro import ChipConfig, DevicePool, HctConfig, PumServer, StaticBatchingPolicy
from repro.core.hct import HybridComputeTile
from repro.errors import ConfigurationError
from repro.plan import (
    BACKENDS,
    BackendRegistry,
    ExecutionBackend,
    ReferenceExecutor,
    VectorizedExecutor,
    default_backend,
    resolve_backend,
)


def _tile_with_matrix(noise=None):
    rng = derive_rng("plan")
    matrix = rng.integers(-8, 8, size=(32, 24))
    tile = HybridComputeTile(HctConfig.small(), noise=noise)
    handle = tile.set_matrix(matrix, value_bits=4, bits_per_cell=1)
    return tile, handle, matrix


class TestPlanCacheLifecycle:
    def test_plan_built_once_and_reused(self):
        tile, handle, _ = _tile_with_matrix()
        vectors = np.ones((2, 32), dtype=np.int64)
        assert tile.ace.cached_plans == 0
        tile.execute_mvm_batch(handle, vectors, input_bits=3)
        assert tile.planner.builds == 1
        assert tile.ace.cached_plans == 1
        plan = tile.planner.plan_for(handle, 3)
        tile.execute_mvm_batch(handle, vectors, input_bits=3)
        assert tile.planner.plan_for(handle, 3) is plan  # reused, not rebuilt
        assert tile.planner.builds == 1
        assert tile.planner.hits >= 2

    def test_distinct_input_bits_get_distinct_plans(self):
        tile, handle, _ = _tile_with_matrix()
        plan3 = tile.planner.plan_for(handle, 3)
        plan5 = tile.planner.plan_for(handle, 5)
        assert plan3 is not plan5
        assert tile.planner.builds == 2
        assert tile.ace.cached_plans == 2
        # Both plans share the one shard-kernel snapshot.
        assert plan3.kernel is plan5.kernel
        assert tile.ace.cached_kernels == 1

    def test_kernel_tensors_built_lazily_per_backend(self):
        """Step-walking interpreters never pay for the stacked tensors."""
        tile, handle, _ = _tile_with_matrix()
        vectors = np.ones((2, 32), dtype=np.int64)
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="reference")
        assert tile.ace.cached_plans == 1
        assert tile.ace.cached_kernels == 0  # plan compiled, tensors untouched
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="vectorized")
        assert tile.ace.cached_kernels == 1  # first tensor interpreter builds

    def test_cross_backend_plan_reuse(self):
        """Both executors interpret the *same* cached plan object."""
        tile, handle, matrix = _tile_with_matrix()
        vectors = np.arange(64, dtype=np.int64).reshape(2, 32) % 8
        ref = tile.execute_mvm_batch(handle, vectors, input_bits=3,
                                     backend="reference")
        vec = tile.execute_mvm_batch(handle, vectors, input_bits=3,
                                     backend="vectorized")
        assert tile.planner.builds == 1  # one plan, two interpreters
        assert np.array_equal(ref.values, vec.values)
        assert np.array_equal(vec.values, vectors @ matrix)

    def test_invalidated_on_release(self):
        tile, handle, _ = _tile_with_matrix()
        tile.planner.plan_for(handle, 3)
        tile.planner.plan_for(handle, 5)
        assert tile.ace.cached_plans == 2
        tile.release_matrix(handle)
        assert tile.ace.cached_plans == 0
        assert tile.ace.cached_kernels == 0

    def test_invalidated_on_reprogram(self):
        """update_row reprograms through release, so stale plans must drop."""
        tile = HybridComputeTile(HctConfig.small())
        matrix = np.eye(8, dtype=np.int64)
        handle = tile.set_matrix(matrix, value_bits=4)
        vectors = np.arange(16, dtype=np.int64).reshape(2, 8) % 4
        tile.execute_mvm_batch(handle, vectors, input_bits=2)
        assert tile.ace.cached_plans == 1
        new_handle = tile.ace.update_row(handle, 0, np.array([3, 0, 0, 0, 0, 0, 0, 1]))
        assert tile.ace.cached_plans == 0  # stale plan dropped with the kernel
        updated = matrix.copy()
        updated[0] = [3, 0, 0, 0, 0, 0, 0, 1]
        out = tile.execute_mvm_batch(new_handle, vectors, input_bits=2)
        assert np.array_equal(out.values, vectors @ updated)
        assert tile.planner.builds == 2  # one per programming


class TestServingHotPathDoesNotPlan:
    def test_planner_runs_at_registration_only(self):
        rng = derive_rng("plan-3")
        matrix = rng.integers(-8, 8, size=(16, 16))
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 1))
        assert server.planner_builds() == 0
        server.register_matrix("m", matrix, element_size=4, input_bits=4)
        builds_after_registration = server.planner_builds()
        assert builds_after_registration >= 1  # compiled ahead of time

        for wave in range(3):
            futures = [
                server.submit("m", np.full(16, (wave + i) % 16, dtype=np.int64),
                              input_bits=4)
                for i in range(8)
            ]
            server.run_until_idle()
            assert all(f.result().ok for f in futures)
        # The hot path never invoked the planner: registration compiled it all.
        assert server.planner_builds() == builds_after_registration

    def test_memoised_reregistration_keeps_plans_warm(self):
        rng = derive_rng("plan-5")
        matrix = rng.integers(-8, 8, size=(16, 16))
        server = PumServer(num_devices=2)
        first = server.register_matrix("m", matrix, element_size=4, input_bits=4)
        builds = server.planner_builds()
        again = server.register_matrix("m", matrix.copy(), element_size=4,
                                       input_bits=4)
        assert again is first
        assert server.registration_reuses == 1
        assert server.planner_builds() == builds  # sha256 memo hit: no rebuild

    def test_sharded_plan_is_the_allocations_own_table(self):
        rng = derive_rng("plan-17")
        config = ChipConfig(hct=HctConfig.small(), num_hcts=2)
        pool = DevicePool(num_devices=3, config=config, policy="round_robin")
        matrix = rng.integers(-100, 100, size=(96, 16))
        allocation = pool.set_matrix(matrix, element_size=8, precision=0)
        assert len(allocation.devices_used) > 1
        plan = pool.compile(allocation, input_bits=8)
        assert plan.num_shards == len(allocation.bands)
        assert plan is allocation  # one table
        builds = pool.planner_builds()
        vectors = rng.integers(0, 256, size=(2, 96))
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=8)
        assert np.array_equal(out, vectors @ matrix)
        assert pool.planner_builds() == builds  # compiled ahead of the call
        pool.release(allocation)
        assert allocation not in pool.allocations


class TestCostModelBackend:
    def test_estimate_matches_real_ledger_without_values(self):
        results = {}
        ledgers = {}
        for backend in ("vectorized", "estimate"):
            tile, handle, _ = _tile_with_matrix()
            vectors = np.arange(96, dtype=np.int64).reshape(3, 32) % 8
            results[backend] = tile.execute_mvm_batch(
                handle, vectors, input_bits=3, backend=backend
            )
            ledgers[backend] = tile.ledger
        est, vec = results["estimate"], results["vectorized"]
        assert est.estimated and not vec.estimated
        assert not est.values.any()
        assert est.optimized_cycles == vec.optimized_cycles
        assert est.unoptimized_cycles == vec.unoptimized_cycles
        assert est.breakdown == vec.breakdown
        assert est.energy_pj == vec.energy_pj
        assert est.iiu_slots_saved == vec.iiu_slots_saved
        assert ledgers["estimate"].cycles == ledgers["vectorized"].cycles
        assert ledgers["estimate"].energy_pj == ledgers["vectorized"].energy_pj
        assert (
            ledgers["estimate"].energy_breakdown
            == ledgers["vectorized"].energy_breakdown
        )

    def test_estimate_skips_noise_rng(self):
        """The estimator draws no read noise, so a later real run is clean."""
        from repro.reram import NoiseConfig

        noise = NoiseConfig(
            programming_noise=False, read_noise=True, ir_drop=False, seed=7
        )
        baseline_tile, baseline_handle, _ = _tile_with_matrix(noise=noise)
        vectors = np.ones((2, 32), dtype=np.int64)
        baseline = baseline_tile.execute_mvm_batch(
            baseline_handle, vectors, input_bits=2
        )

        tile, handle, _ = _tile_with_matrix(noise=noise)
        tile.execute_mvm_batch(handle, vectors, input_bits=2, backend="estimate")
        after_estimate = tile.execute_mvm_batch(handle, vectors, input_bits=2)
        assert np.array_equal(after_estimate.values, baseline.values)


class TestBackendRegistry:
    def test_custom_backend_drops_in(self):
        class CountingBackend(ExecutionBackend):
            name = "counting"

            def __init__(self):
                self.calls = 0
                self._inner = VectorizedExecutor()

            def execute_batch(self, tile, plan, vectors, **kwargs):
                self.calls += 1
                return self._inner.execute_batch(tile, plan, vectors, **kwargs)

        registry = BackendRegistry()
        backend = registry.register(CountingBackend())
        assert registry.get("counting") is backend
        with pytest.raises(ConfigurationError):
            registry.register(CountingBackend())  # duplicate name

        # An instance works everywhere a name does -- no registration needed
        # for the process-wide registry, nothing above it knows the set.
        tile, handle, matrix = _tile_with_matrix()
        vectors = np.ones((2, 32), dtype=np.int64)
        out = tile.execute_mvm_batch(handle, vectors, input_bits=1, backend=backend)
        assert backend.calls == 1
        assert np.array_equal(out.values, vectors @ matrix)

    def test_env_var_flips_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert default_backend() == "reference"
        assert isinstance(resolve_backend(None), ReferenceExecutor)
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None) is BACKENDS.get("vectorized")


class TestDescribe:
    def test_mvm_plan_describe_renders_schedule(self):
        tile, handle, _ = _tile_with_matrix()
        plan = tile.planner.plan_for(handle, 3)
        text = plan.describe()
        assert "MvmPlan: 32x24 matrix" in text
        assert "analog macro-steps/vector" in text
        assert "reduce" in text and "cost" in text
        # Truncation keeps the dump readable for big schedules.
        assert "more steps" in text
        full = plan.describe(max_steps=len(plan.steps))
        assert "more steps" not in full

    def test_sharded_plan_describe(self):
        rng = derive_rng("plan-19")
        config = ChipConfig(hct=HctConfig.small(), num_hcts=2)
        pool = DevicePool(num_devices=3, config=config, policy="round_robin")
        matrix = rng.integers(-100, 100, size=(96, 16))
        allocation = pool.set_matrix(matrix, element_size=8)
        plan = pool.compile(allocation, input_bits=2)
        text = plan.describe()
        assert "ShardedPlan" in text
        assert "shard 0" in text
        assert "precompiled input_bits: [2]" in text

    def test_plan_dump_entry_point_runs(self, capsys):
        from repro.plan.__main__ import main

        main()
        out = capsys.readouterr().out
        assert "MvmPlan" in out and "ShardedPlan" in out
        assert "registered backends" in out
