"""Unit coverage for the PR 8 integrity layer.

Three pieces, tested bottom-up:

* :mod:`repro.runtime.integrity` -- the ABFT column-sum checksum math
  (exact on the integer fast path, tolerance-banded under noise) and the
  :class:`DeviceHealth` EWMA used for quarantine decisions;
* :class:`DevicePool` wiring -- verify-mode validation, checksum
  registration lifecycle, and counters on clean traffic;
* :meth:`DevicePool.rebuild` / :meth:`PumServer.rebuild` -- live shard
  reconstruction: replication restored from the retained source matrix,
  the shard table updated in place (no planning stall),
  and the no-op / failure edges.

The end-to-end corruption and rebuild gates live in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import derive_rng
from repro.core import ChipConfig, HctConfig
from repro.errors import ConfigurationError, RebuildError
from repro.reram import NoiseConfig
from repro.runtime import (
    DeviceHealth,
    DevicePool,
    FaultInjector,
    IntegrityChecker,
    PumServer,
    StaticBatchingPolicy,
    band_check_vector,
)
from repro.runtime.integrity import DEFAULT_NOISE_TOLERANCE, VERIFY_MODES


def small_pool(**kwargs) -> DevicePool:
    kwargs.setdefault("num_devices", 2)
    kwargs.setdefault("config", ChipConfig(hct=HctConfig.small(), num_hcts=3))
    return DevicePool(**kwargs)


class TestBandCheckVector:
    def test_is_the_column_sum(self):
        rng = derive_rng("abft-check-vector")
        matrix = rng.integers(-9, 9, size=(6, 5))
        assert np.array_equal(band_check_vector(matrix), matrix.sum(axis=1))

    def test_checksum_identity_holds_for_any_input(self):
        # The load-bearing algebra: (x @ W) @ 1 == x @ (W @ 1).
        rng = derive_rng("abft-identity")
        matrix = rng.integers(-9, 9, size=(8, 6))
        vectors = rng.integers(-5, 5, size=(4, 8))
        assert np.array_equal(
            (vectors @ matrix).sum(axis=1), vectors @ band_check_vector(matrix)
        )


class TestIntegrityChecker:
    def _registered(self, rows=8, cols=5):
        rng = derive_rng("abft-checker", rows, cols)
        matrix = rng.integers(-9, 9, size=(rows, cols))
        checker = IntegrityChecker()
        checker.register(0, matrix, [(0, rows)])
        return checker, matrix

    def test_accepts_the_true_product(self):
        checker, matrix = self._registered()
        x = np.arange(8, dtype=np.int64).reshape(1, 8)
        assert checker.verify(0, 0, x, x @ matrix) is True

    def test_detects_every_single_bit_flip(self):
        # Exact mode: a flip of any bit of any element must perturb the
        # row sum, so detection is guaranteed, not probabilistic.
        checker, matrix = self._registered()
        x = np.arange(8, dtype=np.int64).reshape(1, 8)
        clean = x @ matrix
        for column in range(clean.shape[1]):
            for bit in range(8):
                corrupted = clean.copy()
                corrupted[0, column] ^= np.int64(1 << bit)
                assert checker.verify(0, 0, x, corrupted) is False

    def test_single_vector_input_is_promoted(self):
        checker, matrix = self._registered()
        x = np.ones(8, dtype=np.int64)  # 1-D, as exec_mvm passes it
        assert checker.verify(0, 0, x, x @ matrix) is True

    def test_unregistered_band_returns_none(self):
        checker, matrix = self._registered()
        x = np.ones((1, 8), dtype=np.int64)
        assert checker.verify(0, 99, x, x @ matrix) is None
        assert checker.verify(42, 0, x, x @ matrix) is None

    def test_multi_band_registration(self):
        rng = derive_rng("abft-bands")
        matrix = rng.integers(-9, 9, size=(10, 4))
        checker = IntegrityChecker()
        checker.register(7, matrix, [(0, 6), (6, 10)])
        x = rng.integers(0, 5, size=(3, 10))
        assert checker.verify(7, 0, x[:, 0:6], x[:, 0:6] @ matrix[0:6]) is True
        assert checker.verify(7, 1, x[:, 6:10], x[:, 6:10] @ matrix[6:10]) is True
        assert checker.verify(7, 1, x[:, 6:10], x[:, 0:6] @ matrix[0:6]) is False

    def test_forget_and_covers(self):
        checker, matrix = self._registered()
        assert checker.covers(0) is True
        checker.forget(0)
        assert checker.covers(0) is False
        x = np.ones((1, 8), dtype=np.int64)
        assert checker.verify(0, 0, x, x @ matrix) is None

    def test_tolerance_bands_absorb_noise_but_not_gross_corruption(self):
        checker, matrix = self._registered()
        checker.tolerance = 0.05
        x = np.full((1, 8), 4, dtype=np.int64)
        clean = x @ matrix
        budget = 0.05 * (np.abs(x) @ np.abs(matrix).sum(axis=1)) + 0.05
        within = clean.copy()
        within[0, 0] += int(budget[0] // 2)  # a noise-sized residual
        assert checker.verify(0, 0, x, within) is True
        gross = clean.copy()
        gross[0, 0] += int(budget[0] * 4) + 8  # far outside the band
        assert checker.verify(0, 0, x, gross) is False

    def test_noisy_default_and_explicit_zero(self):
        assert IntegrityChecker(noisy=True)._effective_tolerance() \
            == DEFAULT_NOISE_TOLERANCE
        assert IntegrityChecker(noisy=False)._effective_tolerance() == 0.0
        # Explicit 0.0 forces exact comparison even on a noisy pool.
        assert IntegrityChecker(tolerance=0.0, noisy=True) \
            ._effective_tolerance() == 0.0
        assert IntegrityChecker(tolerance=0.2, noisy=False) \
            ._effective_tolerance() == 0.2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            IntegrityChecker(tolerance=-0.1)


class TestDeviceHealth:
    def test_three_consecutive_events_cross_the_default_threshold(self):
        health = DeviceHealth()
        assert health.record_corruption() is False  # 0.25
        assert health.record_corruption() is False  # 0.4375
        assert health.record_corruption() is True   # 0.578
        assert health.corruptions == 3

    def test_isolated_glitches_wash_out(self):
        health = DeviceHealth()
        health.record_corruption()
        for _ in range(10):
            health.record_ok()
        assert health.score < 0.05
        # A later isolated failure still does not quarantine.
        assert health.record_failure() is False

    def test_mixed_corruptions_and_failures_share_the_score(self):
        health = DeviceHealth()
        assert health.record_corruption() is False
        assert health.record_failure() is False
        assert health.record_corruption() is True
        assert health.corruptions == 2
        assert health.failures == 1

    def test_reset_clears_score_but_keeps_lifetime_counters(self):
        health = DeviceHealth()
        for _ in range(3):
            health.record_corruption()
        health.quarantined = True
        health.reset()
        assert health.score == 0.0
        assert health.quarantined is False
        assert health.corruptions == 3  # lifetime telemetry survives restore


class TestPoolWiring:
    def test_verify_mode_is_validated(self):
        with pytest.raises(ConfigurationError, match="verify mode"):
            small_pool(verify="paranoid")
        pool = small_pool(verify="audit")
        assert pool.verify == "audit"
        pool.verify = "full"  # live switch via the property setter
        assert pool.verify == "full"
        with pytest.raises(ConfigurationError, match="verify mode"):
            pool.verify = "sometimes"
        assert set(VERIFY_MODES) == {"off", "audit", "full"}

    def test_checksums_follow_the_allocation_lifecycle(self):
        pool = small_pool(verify="full")
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        assert pool.integrity.covers(allocation.allocation_id)
        pool.release(allocation)
        assert not pool.integrity.covers(allocation.allocation_id)

    def test_clean_traffic_counts_checks_and_nothing_else(self):
        pool = small_pool(verify="full")
        rng = derive_rng("integrity-clean")
        matrix = rng.integers(-8, 8, size=(16, 8))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        vectors = rng.integers(0, 8, size=(4, 16))
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=3)
        assert np.array_equal(out, vectors @ matrix)
        assert pool.integrity_checks >= 1
        assert pool.corruptions_detected == 0
        assert pool.integrity_reexecutions == 0
        assert pool.quarantines == 0

    def test_verify_off_performs_no_checks(self):
        pool = small_pool(verify="off")
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        pool.exec_mvm_batch(
            allocation, np.ones((2, 8), dtype=np.int64), input_bits=1
        )
        assert pool.integrity_checks == 0

    def test_noisy_pool_verification_has_no_false_positives(self):
        # Under a noise preset the identity is tolerance-banded; ordinary
        # analog error must not be flagged as corruption.
        pool = small_pool(
            verify="full", noise=NoiseConfig.paper_default(), num_devices=1
        )
        rng = derive_rng("integrity-noisy")
        matrix = rng.integers(0, 4, size=(8, 4))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        vectors = rng.integers(0, 4, size=(3, 8))
        pool.exec_mvm_batch(allocation, vectors, input_bits=2)
        assert pool.integrity_checks >= 1
        assert pool.corruptions_detected == 0


class TestRebuild:
    def _pool(self, num_devices=4):
        pool = small_pool(num_devices=num_devices, replication=2)
        rng = derive_rng("rebuild-unit")
        matrix = rng.integers(-8, 8, size=(16, 8))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        return pool, allocation, matrix

    def test_healthy_allocation_is_a_noop(self):
        pool, allocation, _ = self._pool()
        bands_before = list(allocation.bands)
        report = pool.rebuild(allocation)
        assert report.changed is False
        assert report.bands_rebuilt == ()
        assert report.copies_programmed == ()
        assert allocation.bands == bands_before
        assert pool.rebuilds == 0

    def test_lost_replica_is_reprogrammed_on_a_healthy_device(self):
        pool, allocation, matrix = self._pool()
        holders = allocation.devices_used
        pool.mark_device_failed(holders[0])
        report = pool.rebuild(allocation)
        assert report.changed is True
        assert report.bands_rebuilt == (0,)
        assert report.replication == 2
        assert len(report.copies_programmed) == 1
        fresh = report.copies_programmed[0]
        assert fresh.device_index not in holders
        assert fresh.device_index not in pool.failed_devices
        assert pool.rebuilds == 1 and pool.bands_rebuilt == 1
        # The rebuilt copy serves exact results.
        rng = derive_rng("rebuild-unit-exec")
        vectors = rng.integers(0, 8, size=(3, 16))
        assert np.array_equal(
            pool.exec_mvm_batch(allocation, vectors, input_bits=3),
            vectors @ matrix,
        )

    def test_rebuild_splices_the_cached_plan_without_replanning(self):
        pool, allocation, matrix = self._pool()
        assert pool.compile(allocation, input_bits=1) is allocation
        builds = pool.planner_builds()
        holders = allocation.devices_used
        pool.mark_device_failed(holders[0])
        pool.mark_device_failed(holders[1])  # lose *every* copy of the band
        report = pool.rebuild(allocation)
        assert report.changed is True
        assert report.replication == 2
        # Same table, band swapped in place.
        assert allocation.prepared_input_bits == {1}
        assert not set(allocation.devices_used) & {holders[0], holders[1]}
        assert [task.replica for task in allocation.bands[0]] == [0, 1]
        # The fresh copies were compiled at the prepared precision during
        # the rebuild, so the next dispatch plans nothing.
        assert pool.planner_builds() == builds + 2
        vector = np.ones(16, dtype=np.int64)
        assert np.array_equal(
            pool.exec_mvm(allocation, vector, input_bits=1), vector @ matrix
        )
        assert pool.planner_builds() == builds + 2

    def test_degraded_band_is_left_serving_when_capacity_is_short(self):
        # 2 devices, R=2: once one device fails there is nowhere to put a
        # second copy, but the surviving copy must keep the band alive.
        pool = small_pool(num_devices=2, replication=2)
        matrix = np.eye(8, dtype=np.int64)
        allocation = pool.set_matrix(matrix, element_size=4)
        victim = allocation.bands[0][0].device_index
        pool.mark_device_failed(victim)
        report = pool.rebuild(allocation)
        assert report.changed is True  # the dead copy was dropped
        assert report.replication == 1  # degraded, not dead
        vectors = np.ones((2, 8), dtype=np.int64)
        assert np.array_equal(
            pool.exec_mvm_batch(allocation, vectors, input_bits=1), vectors
        )

    def test_unbuildable_band_raises_rebuild_error(self):
        pool = small_pool(num_devices=2, replication=2)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        pool.mark_device_failed(0)
        pool.mark_device_failed(1)
        with pytest.raises(RebuildError) as excinfo:
            pool.rebuild(allocation)
        assert excinfo.value.allocation_id == allocation.allocation_id
        assert excinfo.value.band == 0

    def test_allocation_without_retained_matrix_is_rejected(self):
        pool, allocation, _ = self._pool()
        allocation.matrix = None  # e.g. an allocation from an old pickle
        with pytest.raises(RebuildError, match="retained no source matrix"):
            pool.rebuild(allocation)

    def test_server_rebuild_api_counts_and_recovers(self):
        pool = small_pool(num_devices=4, replication=2)
        server = PumServer(pool=pool, scheduling=StaticBatchingPolicy(4, 1))
        rng = derive_rng("server-rebuild")
        matrix = rng.integers(-8, 8, size=(16, 8))
        allocation = server.register_matrix(
            "model", matrix, element_size=4, input_bits=3
        )
        injector = FaultInjector().attach(pool)
        holders = allocation.devices_used
        for device_index in holders:
            injector.kill(device_index)
            pool.mark_device_failed(device_index)
        report = server.rebuild("model")
        assert report.changed is True
        assert server.stats.rebuilds == 1
        futures = server.submit_batch(
            "model", rng.integers(0, 8, size=(3, 16)), input_bits=3
        )
        server.run_until_idle()
        assert all(f.result().status == "completed" for f in futures)


class TestRebuildErrorNormalization:
    """A bookkeeping bug mid-rebuild must surface as RebuildError, not leak
    a bare KeyError/IndexError from the placement walk -- and must roll
    back any copies programmed earlier in the same pass."""

    def test_policy_keyerror_is_normalized_and_rolled_back(self):
        pool = small_pool(num_devices=4, replication=2)
        rng = derive_rng("rebuild-normalize")
        matrix = rng.integers(-8, 8, size=(16, 8))
        allocation = pool.set_matrix(matrix, element_size=4, precision=0)
        victim = allocation.bands[0][0].device_index
        pool.mark_device_failed(victim)
        free_before = [pool.free_hcts(i) for i in range(pool.num_devices)]

        class BuggyPolicy:
            def choose(self, free, needed, holders):
                raise KeyError("stale device index")

        original = pool.placement_policy
        pool.placement_policy = BuggyPolicy()
        try:
            with pytest.raises(RebuildError) as excinfo:
                pool.rebuild(allocation)
        finally:
            pool.placement_policy = original
        assert excinfo.value.allocation_id == allocation.allocation_id
        assert "placing replacement copies" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, KeyError)
        # Nothing programmed by the aborted pass was left behind.
        assert [pool.free_hcts(i) for i in range(pool.num_devices)] \
            == free_before
        # The pool recovers: with the real policy back, rebuild succeeds.
        report = pool.rebuild(allocation)
        assert report.changed is True

    def test_index_error_is_normalized(self):
        pool = small_pool(num_devices=2, replication=2)
        allocation = pool.set_matrix(np.eye(8, dtype=np.int64), element_size=4)
        pool.mark_device_failed(allocation.bands[0][0].device_index)

        class BuggyPolicy:
            def choose(self, free, needed, holders):
                raise IndexError("device list out of range")

        pool.placement_policy = BuggyPolicy()
        with pytest.raises(RebuildError, match="IndexError"):
            pool.rebuild(allocation)
