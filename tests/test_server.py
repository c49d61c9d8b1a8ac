"""PumServer scheduler: batching, admission, deadlines, telemetry, threading."""

from __future__ import annotations

import hashlib
import inspect
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from digest_text import rendered
from flat_queue import install as install_flat_queue
from flat_queue import row_request

import repro
from repro.testing import derive_rng

from repro import (
    ChipConfig,
    CostAwarePolicy,
    DarthPumDevice,
    DevicePool,
    HctConfig,
    PumServer,
    StaticBatchingPolicy,
    ThreadedServerDriver,
)
from repro.errors import AdmissionError, QuantizationError, SchedulerError
from repro.metrics import percentile
from repro.plan.backends import resolve_backend
from repro.plan.ir import MvmPlan, PlanCostModel, PlanHandle
from repro.runtime import (
    IntegrityChecker,
    serve_aes_mixcolumns,
    serve_cnn_conv,
    serve_llm_projection,
)
from repro.runtime.cluster import CircuitBreaker, ClusterGateway
from repro.runtime.server import (
    PENDING_CODE,
    STATUS_CODES,
    TELEMETRY_WINDOW,
    ServingStats,
    admissible,
)
from repro.workloads.aes.gf import gf_mul
from repro.workloads.aes.reference import MIX_COLUMNS_MATRIX
from repro.workloads.cnn.layers import Conv2d


@pytest.fixture
def rng():
    return derive_rng("server")


def make_server(max_batch=4, max_wait_ticks=2, **kwargs):
    kwargs.setdefault("num_devices", 2)
    server = PumServer(
        scheduling=StaticBatchingPolicy(max_batch, max_wait_ticks), **kwargs
    )
    server.register_matrix("eye", np.eye(8, dtype=np.int64))
    return server


def submit_n(server, n, name="eye", **kwargs):
    return [
        server.submit(name, np.full(8, i % 4, dtype=np.int64), input_bits=3, **kwargs)
        for i in range(n)
    ]


class TestSchedulerEdgeCases:
    def test_empty_queue_tick_is_a_no_op(self):
        server = make_server()
        assert server.tick() == []
        assert server.tick() == []
        assert server.now == 2
        assert server.pending == 0
        assert list(server.stats.queue_depth_samples) == [0, 0]
        assert server.stats.batches == 0

    def test_deadline_expired_request_is_shed(self):
        server = make_server(max_batch=8, max_wait_ticks=10)
        future = server.submit("eye", np.ones(8, dtype=np.int64),
                               input_bits=3, deadline=2)
        assert server.tick() == []  # now=1: still within deadline, batch not due
        assert server.tick() == []  # now=2: deadline tick itself is still valid
        responses = server.tick()   # now=3: past the deadline -> shed
        assert len(responses) == 1
        assert responses[0].status == "shed"
        assert future.done()
        assert future.result().result is None
        assert server.stats.shed == 1
        assert server.pending == 0

    def test_single_request_batch_dispatches_after_max_wait(self):
        server = make_server(max_batch=8, max_wait_ticks=3)
        vector = np.arange(8, dtype=np.int64) % 4
        future = server.submit("eye", vector, input_bits=3)
        for _ in range(2):
            assert server.tick() == []
        responses = server.tick()  # oldest has now waited max_wait_ticks
        assert len(responses) == 1
        assert responses[0].batch_size == 1
        assert np.array_equal(future.result().result, vector)
        assert server.stats.batch_fill == {1: 1}

    def test_queue_full_rejects_newcomer(self):
        server = make_server(queue_capacity=2)
        admitted = submit_n(server, 2)
        rejected = server.submit("eye", np.ones(8, dtype=np.int64), input_bits=3)
        assert rejected.done()
        assert rejected.result().status == "rejected"
        assert server.stats.rejected == 1
        assert server.pending == 2
        server.run_until_idle()
        assert all(f.result().ok for f in admitted)

    def test_queue_full_rejects_a_higher_priority_newcomer(self):
        server = make_server(queue_capacity=2, max_batch=8, max_wait_ticks=10)
        low = submit_n(server, 2, priority=0)
        high = server.submit("eye", np.ones(8, dtype=np.int64),
                             input_bits=3, priority=5)
        # Priority orders dispatch only: nobody queued is evicted for it.
        assert high.result(timeout=0).status == "rejected"
        assert high.result(timeout=0).latency_ticks == 0
        assert not any(f.done() for f in low)
        assert (server.pending, server.stats.rejected, server.stats.shed) \
            == (2, 1, 0)
        server.run_until_idle()
        assert all(f.result().ok for f in low)

    def test_a_slot_freed_by_dispatch_admits_the_next_newcomer(self):
        server = make_server(queue_capacity=2, max_batch=2, max_wait_ticks=10)
        first = submit_n(server, 2)
        assert submit_n(server, 1)[0].result(timeout=0).status == "rejected"
        server.tick()  # a full batch dispatches and frees the queue
        assert all(f.result(timeout=0).ok for f in first)
        again = submit_n(server, 1)[0]
        assert not again.done() and server.pending == 1
        server.run_until_idle()
        assert again.result().ok

    def test_a_slot_freed_by_deadline_shedding_admits_the_next_newcomer(self):
        server = make_server(queue_capacity=1, max_batch=8, max_wait_ticks=10)
        doomed = server.submit("eye", np.ones(8, dtype=np.int64), input_bits=3,
                               deadline=0)
        assert submit_n(server, 1)[0].result(timeout=0).status == "rejected"
        server.tick()  # now=1: past the deadline, the row leaves by shedding
        assert doomed.result(timeout=0).status == "shed"
        later = submit_n(server, 1)[0]
        assert not later.done() and server.pending == 1
        server.run_until_idle()
        assert later.result().ok



class TestBatching:
    def test_full_batch_dispatches_immediately(self, rng):
        server = make_server(max_batch=4, max_wait_ticks=50)
        futures = submit_n(server, 4)
        responses = server.tick()
        assert len(responses) == 4
        assert all(r.batch_size == 4 for r in responses)
        assert server.stats.batch_fill == {4: 1}
        for i, future in enumerate(futures):
            assert np.array_equal(future.result().result,
                                  np.full(8, i % 4, dtype=np.int64))

    def test_results_bit_identical_to_direct_pool_execution(self, rng):
        matrix = rng.integers(-50, 50, size=(16, 12))
        vectors = rng.integers(0, 16, size=(10, 16))
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 1))
        server.register_matrix("m", matrix, element_size=8)
        futures = [server.submit("m", v, input_bits=4) for v in vectors]
        server.run_until_idle()
        served = np.stack([f.result().result for f in futures])
        assert np.array_equal(served, vectors @ matrix)

    def test_incompatible_input_bits_batch_separately(self):
        server = make_server(max_batch=8, max_wait_ticks=1)
        coarse = server.submit("eye", np.ones(8, dtype=np.int64), input_bits=2)
        fine = server.submit("eye", np.full(8, 3, dtype=np.int64), input_bits=4)
        server.run_until_idle()
        assert coarse.result().batch_size == 1
        assert fine.result().batch_size == 1
        assert server.stats.batches == 2

    def test_higher_priority_rides_the_first_batch(self):
        server = make_server(max_batch=2, max_wait_ticks=1)
        low_a, low_b = submit_n(server, 2, priority=0)
        high = server.submit("eye", np.full(8, 3, dtype=np.int64),
                             input_bits=3, priority=9)
        server.tick()
        assert high.done() and low_a.done()
        assert high.result().batch_size == 2
        assert low_b.done()  # remainder flushed by the same wait trigger
        assert low_b.result().batch_size == 1

    def test_submit_validates_name_and_shape(self):
        server = make_server()
        with pytest.raises(AdmissionError):
            server.submit("missing", np.ones(8, dtype=np.int64))
        with pytest.raises(QuantizationError):
            server.submit("eye", np.ones(9, dtype=np.int64))

    def test_submit_rejects_unrepresentable_values(self):
        server = make_server()
        with pytest.raises(QuantizationError, match="values must be"):
            server.submit("eye", np.full(8, -1, dtype=np.int64), input_bits=3)
        with pytest.raises(QuantizationError, match="values must be"):
            server.submit("eye", np.full(8, 8, dtype=np.int64), input_bits=3)

    def test_failing_batch_does_not_wedge_the_scheduler(self):
        server = make_server(max_batch=2, max_wait_ticks=1)
        def explode(*args, **kwargs):
            raise QuantizationError("chip fault")
        server.pool.exec_mvm_batch = explode
        doomed = submit_n(server, 2)
        responses = server.tick()
        assert [r.status for r in responses] == ["failed", "failed"]
        assert "chip fault" in doomed[0].result().error
        assert server.pending == 0
        assert server.stats.failed == 2
        assert server.tick() == []  # the loop is still alive

    @pytest.mark.parametrize("bad", [
        np.array([1.5, 2.7, 0.2, 3.9, 0.0, 1.0, 2.0, 3.0]),
        np.array([np.nan, 1, 2, 3, 0, 1, 2, 3]),
        np.array([np.inf, 1, 2, 3, 0, 1, 2, 3]),
        np.array(list("12301230")),
    ], ids=["float", "nan", "inf", "str"])
    def test_non_integer_vectors_are_refused_not_truncated(self, bad):
        server = make_server()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "invalid value in cast"
            with pytest.raises(QuantizationError, match="must be integers"):
                server.submit("eye", bad, input_bits=3)
            with pytest.raises(QuantizationError, match="must be integers"):
                server.submit_batch("eye", np.stack([bad, bad]), input_bits=3)
        # Refused before a request id was consumed.
        assert server.stats.submitted == 0 and server.pending == 0
        assert server.submit("eye", np.ones(8, dtype=np.int64)).request_id == 0

    @pytest.mark.parametrize("value, message", [
        (1 << 20, "input values exceed 3 bits"),
        (-1, "input bit-slicing expects non-negative inputs"),
    ], ids=["wide", "negative"])
    def test_a_vector_changed_after_submit_fails_typed_never_wrong(self, value, message):
        """The door keeps the caller's own int64 array, so a caller can still
        write into it before the batch runs.  The device checks the range of
        what it is handed, so the rows fail with the error text instead of
        being served an answer to a vector nobody validated."""
        server = make_server()
        vectors = np.tile(np.arange(8, dtype=np.int64) % 4, (4, 1))
        futures = server.submit_batch("eye", vectors, input_bits=3)
        vectors[2, 5] = value
        server.run_until_idle()
        statuses, _, _, _, errors = futures.columns()
        assert set(statuses) == {STATUS_CODES["failed"]}
        assert all(error == f"QuantizationError: {message}" for error in errors.values())
        assert [future.result().status for future in futures] == ["failed"] * 4

    def test_bool_and_narrow_integer_vectors_are_served(self):
        server = make_server()
        mask = np.array([True, False] * 4)
        small = np.arange(8, dtype=np.uint8) % 4
        futures = [server.submit("eye", mask, input_bits=3)]
        futures += server.submit_batch("eye", np.stack([mask, small]), input_bits=3)
        futures.append(server.submit("eye", small.tolist(), input_bits=3))
        server.run_until_idle()
        served = [f.result().result for f in futures]
        for got, sent in zip(served, (mask, mask, small, small)):
            assert np.array_equal(got, sent.astype(np.int64))

    def test_invalid_batching_config_rejected(self):
        with pytest.raises(SchedulerError, match="max_batch"):
            StaticBatchingPolicy(max_batch=0)
        with pytest.raises(SchedulerError, match="queue_capacity"):
            PumServer(num_devices=1, queue_capacity=0)
        with pytest.raises(SchedulerError, match="SchedulingPolicy instance"):
            PumServer(num_devices=1, scheduling="cost_aware")


class TestTelemetry:
    def test_latency_percentiles_and_energy(self, rng):
        server = make_server(max_batch=4, max_wait_ticks=3)
        submit_n(server, 10)
        server.run_until_idle()
        summary = server.stats.summary()
        assert summary["completed"] == 10
        assert summary["batches"] >= 3
        assert 1 <= summary["p50_latency_ticks"] <= summary["p99_latency_ticks"]
        assert summary["mean_energy_per_request_pj"] > 0
        assert summary["max_queue_depth"] >= 4

    def test_energy_matches_pool_ledger(self):
        server = make_server(max_batch=4, max_wait_ticks=1)
        programming_energy = server.pool.total_ledger().energy_pj
        submit_n(server, 8)
        server.run_until_idle()
        execution_energy = server.pool.total_ledger().energy_pj - programming_energy
        accounted = sum(server.stats.energy_per_request_pj)
        assert accounted == pytest.approx(execution_energy)

    def test_empty_stats_summary_is_well_defined(self):
        stats = PumServer(num_devices=1).stats
        summary = stats.summary()
        assert summary["p99_latency_ticks"] == 0.0
        assert summary["mean_batch_fill"] == 0.0


class TestMatrixRegistry:
    def test_reregistration_releases_the_old_allocation(self, rng):
        server = PumServer(pool=DevicePool(num_devices=2))
        first = server.register_matrix("m", rng.integers(-5, 5, size=(8, 8)))
        used_before = server.pool.utilization()
        second = server.register_matrix("m", rng.integers(-5, 5, size=(8, 6)))
        assert second is not first
        assert server.pool.utilization() == used_before
        # Placed anew where the most HCTs are free: the device it left.
        assert second.devices_used == first.devices_used
        # New values of the same shape are rewritten where they are.
        assert server.register_matrix("m", rng.integers(-5, 5, size=(8, 6))) is second
        assert server.pool.utilization() == used_before

    def test_a_same_shape_reregistration_is_never_moved(self, rng):
        """A release and a new placement would move ``a`` to the emptier
        device -- as a new shape does; new values of the live shape stay
        where they are."""
        config = ChipConfig(hct=HctConfig.small(), num_hcts=4)
        server = PumServer(pool=DevicePool(num_devices=2, config=config))

        def register(name, shape):
            matrix = rng.integers(-5, 5, size=shape)
            return server.register_matrix(name, matrix, element_size=4)

        first = register("a", (8, 8))
        register("b", (8, 8))
        register("c", (40, 8))  # device 0 full, device 1 one quarter used
        assert first.devices_used == [0] and server.pool.utilization() == [1.0, 0.25]
        assert register("a", (8, 8)) is first and first.devices_used == [0]
        assert register("a", (8, 6)).devices_used == [1]

    def test_a_float_matrix_is_refused_before_the_memo(self):
        """``m + 0.5`` truncates to ``m``: refused, never taken as a reuse
        of the live registration (as under a fresh name)."""
        server = PumServer(num_devices=1)
        matrix = np.eye(8, dtype=np.int64)
        allocation = server.register_matrix("m", matrix, element_size=4)
        for name in ("m", "fresh"):
            with pytest.raises(QuantizationError, match="integer"):
                server.register_matrix(name, matrix + 0.5, element_size=4)
        assert server.registration_reuses == 0
        assert server.matrix_names == ("m",) and server.allocation_for("m") is allocation

    def test_requests_use_the_latest_registration(self):
        server = make_server(max_batch=1, max_wait_ticks=1)
        server.register_matrix("eye", 2 * np.eye(8, dtype=np.int64), element_size=4)
        future = server.submit("eye", np.full(8, 2, dtype=np.int64), input_bits=3)
        server.run_until_idle()
        assert np.array_equal(future.result().result, np.full(8, 4, dtype=np.int64))


class TestThreadedDriver:
    def test_background_driver_serves_requests(self):
        server = make_server(max_batch=4, max_wait_ticks=2)
        with ThreadedServerDriver(server, tick_interval=1e-5):
            futures = submit_n(server, 6)
            responses = [f.result(timeout=5.0) for f in futures]
        assert all(r.ok for r in responses)
        assert server.pending == 0

    def test_waiters_on_rows_of_one_wave_each_get_their_row(self):
        """One condition per wave, a predicate per waiter: nine threads block
        on rows of a 64-row wave that resolves in four batches.  Nobody is
        handed a neighbour's response and nobody is stranded: ``wait_for``
        re-reads the predicate when its timeout ends, so a waiter that slept
        through its wake-up still returns -- five seconds late, which is what
        ``waited`` catches (a woken waiter needs milliseconds)."""
        server = make_server(max_batch=16, max_wait_ticks=1, queue_capacity=64)
        vectors = np.arange(64 * 8, dtype=np.int64).reshape(64, 8) % 7
        rows = (0, 1, 15, 16, 31, 32, 47, 48, 63)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per round
        try:
            for round_ in range(200):
                self.one_waiter_round(server, vectors, rows, round_)
        finally:
            sys.setswitchinterval(interval)
        assert server.stats.completed == 200 * 64

    @staticmethod
    def one_waiter_round(server, vectors, rows, round_):
        futures = server.submit_batch("eye", vectors, input_bits=3)
        got, waited = {}, {}

        def wait(row):
            started = time.monotonic()
            try:
                got[row] = futures[row].result(timeout=5)
            except Exception as exc:
                got[row] = exc
            waited[row] = time.monotonic() - started

        threads = [threading.Thread(target=wait, args=(row,)) for row in rows]
        for thread in threads:
            thread.start()
        with ThreadedServerDriver(server, tick_interval=1e-5):
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
        assert max(waited.values()) < 2.5, (round_, waited)
        for row in rows:
            response = got[row]
            assert response is futures[row].result(timeout=0), (round_, row, response)
            assert response.request_id == futures[row].request_id
            assert response.ok and np.array_equal(response.result, vectors[row])
        assert server.pending == 0 and all(f.done() for f in futures)

    def test_driver_start_stop_idempotent(self):
        server = make_server()
        driver = ThreadedServerDriver(server, tick_interval=0.0)
        driver.start()
        driver.start()
        driver.stop()
        driver.stop()
        with pytest.raises(SchedulerError):
            ThreadedServerDriver(server, tick_interval=-1.0)


class TestServingEntryPoints:
    def test_serve_aes_mixcolumns_matches_gf_reference(self, rng):
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 2))
        columns = rng.integers(0, 256, size=(6, 4))
        served = serve_aes_mixcolumns(server, columns)
        reference = np.zeros_like(columns)
        for n in range(columns.shape[0]):
            for i in range(4):
                acc = 0
                for j in range(4):
                    acc ^= gf_mul(int(MIX_COLUMNS_MATRIX[i, j]), int(columns[n, j]))
                reference[n, i] = acc
        assert np.array_equal(served, reference)
        # The bit matrix is registered once and reused on the next call.
        assert server.matrix_names.count("aes.mixcolumns") == 1
        serve_aes_mixcolumns(server, columns[:2])
        assert server.matrix_names.count("aes.mixcolumns") == 1

    def test_serve_cnn_conv_within_quantisation_tolerance(self, rng):
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 2))
        conv = Conv2d(3, 4, kernel=3, rng=rng)
        image = rng.standard_normal((1, 3, 8, 8))
        device, reference = serve_cnn_conv(server, conv, image, positions=6)
        scale = np.abs(reference).max()
        assert np.allclose(device, reference, atol=0.1 * scale + 1e-6)

    def test_serve_llm_projection_within_quantisation_tolerance(self, rng):
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(8, 2))
        weight = rng.standard_normal((16, 8))
        activations = rng.standard_normal((5, 16))
        device, reference = serve_llm_projection(server, weight, activations)
        scale = np.abs(reference).max()
        assert np.allclose(device, reference, atol=0.1 * scale + 1e-6)

    def test_workloads_larger_than_queue_capacity_are_served_in_waves(self, rng):
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 1),
                           queue_capacity=4)
        weight = rng.standard_normal((16, 8))
        activations = rng.standard_normal((11, 16))  # ~3x the queue capacity
        device, reference = serve_llm_projection(server, weight, activations)
        assert device.shape == reference.shape == (11, 8)
        assert server.stats.rejected == 0

    def test_a_request_that_does_not_complete_is_named_first_in_row_order(self, rng):
        """Competing traffic turns the wave's last row away at the door and a
        chip fault fails its first batch: the error names the first row that
        is not ok (the failed one), with its status and the fault's text."""
        server = make_server(max_batch=4, max_wait_ticks=1, queue_capacity=8)
        serve_aes_mixcolumns(server, rng.integers(0, 256, size=(2, 4)))  # registers
        squatter = server.submit("eye", np.ones(8, dtype=np.int64), input_bits=3)
        execute = server.pool.exec_mvm_batch

        def fail_once(*args, **kwargs):
            server.pool.exec_mvm_batch = execute
            raise QuantizationError("chip fault")

        server.pool.exec_mvm_batch = fail_once
        first = squatter.request_id + 1
        with pytest.raises(AdmissionError, match=(
                rf"request {first} against matrix 'aes.mixcolumns' ended failed "
                r"\(QuantizationError: chip fault\)")):
            serve_aes_mixcolumns(server, rng.integers(0, 256, size=(8, 4)))
        assert server.stats.rejected == 1 and server.stats.failed == 4


class TestSubmitBatch:
    def test_empty_batch_returns_no_futures(self):
        server = make_server()
        futures = server.submit_batch("eye", np.empty((0, 8), dtype=np.int64),
                                      input_bits=3)
        assert futures == []
        assert server.stats.submitted == 0
        assert server.pending == 0

    def test_results_match_per_vector_submission(self, rng):
        matrix = rng.integers(-50, 50, size=(16, 12))
        vectors = rng.integers(0, 16, size=(10, 16))
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 1))
        server.register_matrix("m", matrix, element_size=8, input_bits=4)
        futures = server.submit_batch("m", vectors, input_bits=4)
        server.run_until_idle()
        served = np.stack([f.result().result for f in futures])
        assert np.array_equal(served, vectors @ matrix)
        # Full batches of consecutive wave rows dispatch as zero-copy slices.
        assert server.stats.zero_copy_batches == server.stats.batches

    def test_bad_shape_is_rejected_synchronously(self):
        server = make_server()
        with pytest.raises(QuantizationError, match="submit_batch expects"):
            server.submit_batch("eye", np.ones((2, 9), dtype=np.int64))
        with pytest.raises(QuantizationError, match="submit_batch expects"):
            server.submit_batch("eye", np.ones(8, dtype=np.int64))

    def test_out_of_range_batch_rejected_in_one_pass(self):
        # "Mixed precision": one vector needs more bits than input_bits, so
        # the whole array is rejected before any request is created.
        server = make_server()
        vectors = np.ones((4, 8), dtype=np.int64)
        vectors[2, 5] = 8  # needs 4 bits
        with pytest.raises(QuantizationError, match="values must be"):
            server.submit_batch("eye", vectors, input_bits=3)
        with pytest.raises(QuantizationError, match="values must be"):
            server.submit_batch("eye", -vectors, input_bits=3)
        assert server.stats.submitted == 0
        assert server.pending == 0

    def test_partial_admission_rejects_overflow_rows(self):
        server = make_server(queue_capacity=4, max_batch=8, max_wait_ticks=1)
        vectors = np.ones((6, 8), dtype=np.int64)
        futures = server.submit_batch("eye", vectors, input_bits=3)
        assert len(futures) == 6
        # The first four rows were admitted; the overflow resolved instantly.
        assert server.pending == 4
        assert [f.done() for f in futures] == [False] * 4 + [True] * 2
        assert all(f.result().status == "rejected" for f in futures[4:])
        assert server.stats.rejected == 2
        server.run_until_idle()
        assert all(f.result().ok for f in futures[:4])

    def test_partial_admission_turns_away_higher_priority_overflow(self):
        server = make_server(queue_capacity=4, max_batch=8, max_wait_ticks=10)
        low = submit_n(server, 2, priority=0)
        futures = server.submit_batch("eye", np.ones((3, 8), dtype=np.int64),
                                      input_bits=3, priority=5)
        # The two rows that fit are admitted; the third is rejected, and the
        # queued low-priority rows are left alone.
        assert [f.done() for f in futures] == [False, False, True]
        assert futures[2].result().status == "rejected"
        assert not any(f.done() for f in low)
        assert server.pending == 4 and server.stats.shed == 0
        server.run_until_idle()
        assert all(f.result().ok for f in low + futures[:2])

    def test_deadline_expired_bulk_requests_all_resolve(self):
        server = make_server(max_batch=32, max_wait_ticks=10)
        futures = server.submit_batch("eye", np.ones((5, 8), dtype=np.int64),
                                      input_bits=3, deadline=1)
        assert server.tick() == []  # now=1: deadline tick itself still valid
        responses = server.tick()   # now=2: all five shed in id order
        assert [r.status for r in responses] == ["shed"] * 5
        assert [r.request_id for r in responses] == sorted(
            r.request_id for r in responses
        )
        assert all(f.done() for f in futures)
        assert server.pending == 0
        assert server.stats.shed == 5

    def test_failed_bulk_batch_resolves_every_future(self):
        server = make_server(max_batch=4, max_wait_ticks=1)
        def explode(*args, **kwargs):
            raise QuantizationError("chip fault")
        server.pool.exec_mvm_batch = explode
        futures = server.submit_batch("eye", np.ones((4, 8), dtype=np.int64),
                                      input_bits=3)
        responses = server.tick()
        assert [r.status for r in responses] == ["failed"] * 4
        assert all(f.done() for f in futures)
        assert server.pending == 0
        assert server.tick() == []  # the loop is still alive

    def test_mixed_ingress_batches_gather_through_the_arena(self):
        server = make_server(max_batch=4, max_wait_ticks=1)
        bulk = server.submit_batch("eye", np.full((2, 8), 2, dtype=np.int64),
                                   input_bits=3)
        single = server.submit("eye", np.full(8, 3, dtype=np.int64), input_bits=3)
        server.run_until_idle()
        assert all(f.result().ok for f in bulk + [single])
        assert np.array_equal(single.result().result, np.full(8, 3, dtype=np.int64))
        # A batch mixing bulk rows and a single submit cannot be a slice of
        # one source array; it is gathered into the reusable arena instead.
        assert server.stats.gathered_batches == 1
        assert server.stats.zero_copy_batches == 0

    def test_bulk_vectors_are_views_of_one_source_array(self):
        server = make_server(max_batch=8, max_wait_ticks=10)
        vectors = np.full((3, 8), 1, dtype=np.int64)
        futures = server.submit_batch("eye", vectors, input_bits=3)
        # One wave, queued as one run over the caller's own array.
        ((wave, start, stop),) = server.request_queue.take(("eye", 3), 8)
        assert (start, stop) == (0, 3)
        assert wave.source is vectors
        assert wave.futures == futures
        requests = [row_request(wave, row) for row in range(start, stop)]
        assert [r.request_id for r in requests] == [f.request_id for f in futures]
        assert all(np.shares_memory(r.vector, vectors) for r in requests)
        # A list (or a narrower dtype) is converted once, for the whole wave.
        server.submit_batch("eye", vectors.astype(np.uint8).tolist(), input_bits=3)
        ((wave, start, stop),) = server.request_queue.take(("eye", 3), 8)
        assert wave.source.dtype == np.int64 and wave.source.flags.c_contiguous
        assert np.shares_memory(row_request(wave, 2).vector, wave.source)


class TestWaves:
    """The wave is the unit the server queues; a request is a row of it."""

    def test_batch_spanning_two_waves_is_gathered_by_block(self, rng):
        matrix = rng.integers(-50, 50, size=(16, 12))
        first = rng.integers(0, 16, size=(3, 16))
        second = rng.integers(0, 16, size=(7, 16))
        for flat in (False, True):
            server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 1))
            if flat:
                install_flat_queue(server)
            server.register_matrix("m", matrix, element_size=8, input_bits=4)
            futures = server.submit_batch("m", first, input_bits=4)
            futures += server.submit_batch("m", second, input_bits=4)
            responses = server.run_until_idle()
            served = np.stack([f.result().result for f in futures])
            assert np.array_equal(served, np.vstack([first, second]) @ matrix)
            # Batches of 4: [a0 a1 a2 | b0] is two runs (gathered), then
            # [b1..b4] and the aged remainder [b5 b6] are one run each.
            assert [r.batch_size for r in responses] == [4] * 8 + [2] * 2
            assert server.stats.gathered_batches == 1
            assert server.stats.zero_copy_batches == 2
            assert server.stats.batches == 3

    def test_reregistration_between_submit_and_tick_serves_the_new_bytes(self):
        server = make_server(max_batch=4, max_wait_ticks=1)
        vectors = np.arange(32, dtype=np.int64).reshape(4, 8) % 4
        futures = server.submit_batch("eye", vectors, input_bits=3)
        server.register_matrix("eye", 3 * np.eye(8, dtype=np.int64), element_size=4)
        server.run_until_idle()
        served = np.stack([f.result().result for f in futures])
        assert np.array_equal(served, 3 * vectors)

    def test_wave_larger_than_the_queue_admits_a_prefix(self):
        for flat in (False, True):
            server = make_server(queue_capacity=5, max_batch=4, max_wait_ticks=1)
            if flat:
                install_flat_queue(server)
            low = submit_n(server, 2, priority=0)
            futures = server.submit_batch(
                "eye", np.ones((9, 8), dtype=np.int64), input_bits=3, priority=3)
            # Rows 0-2 fill the queue; the rest are turned away, whatever
            # their priority.
            admitted = 3
            assert [f.done() for f in futures] == \
                [False] * admitted + [True] * (9 - admitted)
            assert {f.result().status for f in futures[admitted:]} == {"rejected"}
            assert [f.done() for f in low] == [False] * 2
            assert server.pending == 5
            assert server.stats.rejected == 9 - admitted
            assert server.stats.shed == 0
            server.run_until_idle()
            assert all(f.result().ok for f in futures[:admitted])
            assert server.stats.submitted == 11 == (
                server.stats.completed + server.stats.rejected + server.stats.shed
            )

    def test_every_future_resolves_exactly_once(self, rng):
        """Each id gets one response, and the future holds that very object."""
        server = make_server(queue_capacity=12, max_batch=4, max_wait_ticks=2)
        futures, responses = [], []
        for step in range(12):
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 8)), 8))
            futures += server.submit_batch(
                "eye", rows, input_bits=3, priority=int(rng.integers(0, 3)),
                deadline=server.now + 1 if step % 3 == 0 else None)
            futures.append(server.submit("eye", rows[0], input_bits=3))
            if step % 2:
                responses += server.tick()
        responses += server.run_until_idle()
        by_id = {}
        for response in responses:
            assert response.request_id not in by_id
            by_id[response.request_id] = response
        assert [f.request_id for f in futures] == list(range(len(futures)))
        for future in futures:
            assert future.done()
            response = future.result(timeout=0)
            assert response.request_id == future.request_id
            if response.request_id in by_id:
                assert by_id[response.request_id] is response
            else:  # resolved at the door
                assert response.status == "rejected"
        assert {"completed", "rejected", "shed"} <= {
            f.result().status for f in futures
        }


def resolution_schedule(rng, observe=lambda waves: None):
    """A serving schedule that resolves rows every way the server can.

    ``submit`` and ``submit_batch`` waves of three priorities against two
    tenants, some with deadlines, into a 16-row queue (so waves are turned
    away at the door, or a suffix of them is), a vector
    refused before it gets an id, one batch failed by an injected
    ``ReproError``, and ticks between admissions.  ``observe`` sees what
    every ``submit_batch`` so far returned, after each step -- waves that are
    still queued, partly dispatched, shed in the middle.  Returns every
    future in id order and the request ids each ``tick()`` returned.
    """
    server = make_server(queue_capacity=16, max_batch=8, max_wait_ticks=3)
    server.register_matrix("mix", rng.integers(-7, 8, size=(8, 6)), element_size=4)
    futures, ticks, waves = [], [], []
    execute = server.pool.exec_mvm_batch

    def fail_once(*args, **kwargs):
        server.pool.exec_mvm_batch = execute
        raise AdmissionError("injected batch failure")

    for step in range(48):
        name = "eye" if rng.integers(0, 3) else "mix"
        priority = int(rng.integers(0, 3))
        deadline = server.now + int(rng.integers(1, 4)) if step % 4 == 1 else None
        rows = rng.integers(0, 8, size=(int(rng.integers(1, 12)), 8))
        if step % 3 == 2:
            futures.append(server.submit(name, rows[0], input_bits=3,
                                         priority=priority, deadline=deadline))
        else:
            waves.append(server.submit_batch(name, rows, input_bits=3,
                                             priority=priority, deadline=deadline))
            futures += waves[-1]
        if step == 7:
            with pytest.raises(QuantizationError):
                server.submit_batch(name, rows + 8, input_bits=3)
        if step == 20:
            server.pool.exec_mvm_batch = fail_once
        if step % 3 == 0 or step > 40:
            ticks.append([r.request_id for r in server.tick()])
        observe(waves)
    while server.pending:
        ticks.append([r.request_id for r in server.tick()])
    observe(waves)
    assert [f.request_id for f in futures] == list(range(len(futures)))
    return server, futures, ticks


class TestWaveResolution:
    """What a caller can read off the futures and off ``tick()``, pinned."""

    #: sha256 over every future's fields (id order) and the ids each tick
    #: returned, on a fixed seed, so it holds on every leg of the seed matrix
    #: and under both ``REPRO_BACKEND`` values.  Computed at ``3cc8e31``,
    #: the commit before a full queue only rejected (rows are shed only by
    #: their deadline); the pins it replaced, which also covered rows
    #: evicted by a higher-priority newcomer, dated from ``898eb79`` (before
    #: a wave resolved once per run) and ``ca3b0f3`` (integer ledger units).
    SURVIVING = "15bc045ae9442e4175a6e7db49ee687ab586394a8f0588369ba430254ab87c9e"
    #: The sibling: the same material through ``digest_text.rendered``.
    SURVIVING_ROUNDED = "b700164e8f3c1a27caf71bc4ec3afe64f00f03d640ac95c48aeccd2b26922795"

    @staticmethod
    def _digest(text=None):
        _, futures, ticks = resolution_schedule(np.random.default_rng(24))
        digest = hashlib.sha256()
        statuses = set()
        for future in futures:
            assert future.done()
            r = future.result(timeout=0)
            statuses.add(r.status)
            result = b"-" if r.result is None else \
                np.ascontiguousarray(r.result, dtype=np.int64).tobytes()
            fields = (r.request_id, r.name, r.status, result, r.arrival_tick,
                      r.completion_tick, r.batch_size, r.energy_pj, r.error)
            if text is None:
                fields = fields[:7] + (repr(r.energy_pj), r.error)
                digest.update(repr(fields).encode())
            else:
                digest.update(text(fields))
        digest.update(repr(ticks).encode())
        assert statuses == {"completed", "rejected", "shed", "failed"}
        return digest.hexdigest()

    def test_surviving_resolution_digest(self):
        assert self._digest() == self.SURVIVING

    def test_surviving_resolution_digest_rounded(self):
        assert self._digest(rendered) == self.SURVIVING_ROUNDED

    def test_columns_equal_the_futures_row_for_row(self):
        """``columns()`` against what iterating the futures gives, on every
        wave after every step of a seeded schedule."""
        seen = set()

        def compare(waves):
            for wave in waves:
                statuses, results, latency, energy, errors = wave.columns()
                assert len(wave) == len(statuses) == len(results)
                assert (statuses.dtype, results.dtype) == (np.uint8, np.int64)
                for row, future in enumerate(wave):
                    if not future.done():
                        assert statuses[row] == PENDING_CODE
                        expected = (None, 0, 0.0, None)
                    else:
                        r = future.result(timeout=0)
                        assert statuses[row] == STATUS_CODES[r.status]
                        expected = (r.result, r.latency_ticks, r.energy_pj, r.error)
                    if expected[0] is None:
                        assert not results[row].any()
                    else:
                        assert np.array_equal(results[row], expected[0])
                    assert (latency[row], energy[row]) == expected[1:3]
                    assert errors.get(row) == expected[3]
                seen.add(tuple(sorted(set(statuses.tolist()))))

        resolution_schedule(derive_rng("wave-resolution"), observe=compare)
        # Waves caught part resolved, and ending in more than one way.
        assert any(PENDING_CODE in kinds and len(kinds) > 1 for kinds in seen)
        assert any(PENDING_CODE not in kinds and len(kinds) > 1 for kinds in seen)
        assert {code for kinds in seen for code in kinds} == {0, 1, 2, 3, PENDING_CODE}

    def test_a_row_resolves_exactly_once(self):
        server = make_server(max_batch=4, max_wait_ticks=3)
        futures = server.submit_batch("eye", np.ones((6, 8), dtype=np.int64), input_bits=3)
        assert len(server.tick()) == 4 and [f.done() for f in futures] == [True] * 4 + [False] * 2
        with pytest.raises(SchedulerError, match="already resolved"):
            futures.resolve(3, 5, "shed", None, server.now, 0, 0.0)
        assert not futures[4].done()  # the refused run left nothing behind
        assert len(server.run_until_idle()) == 2 and futures[5].result().ok

    def test_the_returned_sequences_have_list_manners(self):
        server = make_server(max_batch=4, max_wait_ticks=1)
        futures = server.submit_batch("eye", np.ones((6, 8), dtype=np.int64), input_bits=3)
        single = server.submit("eye", np.ones(8, dtype=np.int64), input_bits=3)
        assert len(futures) == 6 and futures != [] and futures == list(futures)
        assert [f.request_id for f in futures[-2:]] == [4, 5] == [f.request_id for f in futures[4:]]
        assert futures[-1] == futures[5] and hash(futures[-1]) == hash(futures[5])
        assert futures[5] != single and len({*futures, *futures[::2]}) == 6
        assert [f.request_id for f in [single] + futures + [single]] == [6, 0, 1, 2, 3, 4, 5, 6]
        with pytest.raises(IndexError):
            futures[6]
        resolved = server.run_until_idle()
        assert len(resolved) == 7 and resolved and resolved != []
        assert resolved[0] is futures[0].result() and resolved[-1] is single.result()
        assert [r.request_id for r in resolved] == list(range(7))
        assert server.tick() == [] and not server.tick() and len(server.tick()) == 0


class TestEscapedExceptions:
    """Regression: a non-ReproError out of the pool used to strand every
    rider of the batch (0 of 16 futures done, 16 ``_futures`` entries kept)."""

    @staticmethod
    def exploding_server():
        server = make_server(max_batch=16, max_wait_ticks=1)

        def explode(*args, **kwargs):
            raise ValueError("plan kept past its device")

        server.pool.exec_mvm_batch = explode
        return server

    def test_unexpected_exception_fails_the_riders_then_propagates(self):
        server = self.exploding_server()
        futures = server.submit_batch("eye", np.ones((16, 8), dtype=np.int64),
                                      input_bits=3)
        with pytest.raises(ValueError, match="plan kept past its device"):
            server.run_until_idle()
        assert server.pending == 0
        assert [f.done() for f in futures] == [True] * 16
        for future in futures:
            response = future.result(timeout=0)
            assert response.status == "failed" and response.batch_size == 16
            assert response.error == "ValueError: plan kept past its device"
        assert server.stats.failed == 16
        assert server.tick() == []  # nothing left behind

    def test_driver_keeps_the_exception_and_reraises_it_on_stop(self):
        server = self.exploding_server()
        driver = ThreadedServerDriver(server, tick_interval=1e-5).start()
        futures = submit_n(server, 4)
        responses = [f.result(timeout=5.0) for f in futures]
        assert {r.status for r in responses} == {"failed"}
        driver._thread.join(timeout=5.0)
        assert not driver._thread.is_alive()  # stopped pumping
        assert isinstance(driver.error, ValueError)
        with pytest.raises(ValueError, match="plan kept past its device"):
            driver.stop()
        driver.stop()  # raised once; the driver is reusable
        assert driver.error is None

    def test_driver_context_manager_reraises_on_exit(self):
        server = self.exploding_server()
        with pytest.raises(ValueError, match="plan kept past its device"):
            with ThreadedServerDriver(server, tick_interval=1e-5):
                future = server.submit("eye", np.ones(8, dtype=np.int64),
                                       input_bits=3)
                assert future.result(timeout=5.0).status == "failed"


class TestDispatchOrder:
    """Regression pins for the queue rework (oldest-group-first dispatch)."""

    def expected_matrix(self, server, name):
        allocation = server.allocation_for(name)
        return server.pool.expected_mvm(allocation, np.eye(8, dtype=np.int64)).T

    def run_mixed_traffic(self, flat=False):
        server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(4, 3),
                           queue_capacity=32)
        if flat:
            install_flat_queue(server)
        server.register_matrix("a", np.eye(8, dtype=np.int64))
        server.register_matrix("b", 2 * np.eye(8, dtype=np.int64), element_size=4)
        responses = []
        # Tick 0: two b-requests age toward the wait trigger; tick 2: a full
        # a-batch (plus mixed priorities) and a doomed deadline request.
        server.submit_batch("b", np.full((2, 8), 1, dtype=np.int64), input_bits=3)
        responses.extend(server.tick())
        responses.extend(server.tick())
        for priority in (0, 5, 0, 2):
            server.submit("a", np.full(8, 2, dtype=np.int64), input_bits=3,
                          priority=priority)
        server.submit("b", np.full(8, 3, dtype=np.int64), input_bits=3,
                      deadline=2)
        responses.extend(server.run_until_idle())
        return server, responses

    def test_oldest_group_dispatches_first(self):
        server, responses = self.run_mixed_traffic()
        # At tick 3 both groups are due (b aged past max_wait, a full): the
        # older b-group dispatches first, and the expired b request is shed
        # ahead of any dispatch that tick.
        completed = [r.name for r in responses if r.status == "completed"]
        assert completed == ["b", "b", "a", "a", "a", "a"]
        assert [r.status for r in responses].count("shed") == 1
        assert responses[0].status == "shed"

    def test_priority_orders_rows_within_a_batch(self):
        server = make_server(max_batch=4, max_wait_ticks=10)
        ids = {}
        for priority in (0, 5, 0, 2):
            future = server.submit("eye", np.full(8, 1, dtype=np.int64),
                                   input_bits=3, priority=priority)
            ids[priority] = ids.get(priority, []) + [future.request_id]
        responses = server.tick()
        # Batch rows are ordered (-priority, arrival, id).
        assert [r.request_id for r in responses] == (
            ids[5] + ids[2] + ids[0]
        )

    def test_flat_and_indexed_queues_dispatch_identically(self):
        indexed_server, indexed = self.run_mixed_traffic()
        flat_server, flat = self.run_mixed_traffic(flat=True)
        assert [r.request_id for r in indexed] == [r.request_id for r in flat]
        assert [r.status for r in indexed] == [r.status for r in flat]
        assert [r.batch_size for r in indexed] == [r.batch_size for r in flat]
        for fast, slow in zip(indexed, flat):
            if fast.result is None:
                assert slow.result is None
            else:
                assert np.array_equal(fast.result, slow.result)
        fast_ledger = indexed_server.pool.total_ledger()
        slow_ledger = flat_server.pool.total_ledger()
        assert fast_ledger.cycles == slow_ledger.cycles
        assert fast_ledger.energy_pj == slow_ledger.energy_pj
        assert fast_ledger.cycle_breakdown == slow_ledger.cycle_breakdown


class TestQueueScans:
    def test_indexed_tick_loop_never_scans_the_queue(self):
        for depth in (16, 64):
            server = make_server(max_batch=4, max_wait_ticks=2,
                                 queue_capacity=depth)
            server.submit_batch(
                "eye", np.ones((depth, 8), dtype=np.int64), input_bits=3
            )
            server.run_until_idle()
            assert server.queue_scans() == 0

    def test_queue_scans_stay_flat_in_queue_depth(self):
        """Multi-tenant bulk ingress: 64 and 256 queued over 8 matrices."""
        rng = derive_rng("server-scans")
        matrices = [rng.integers(-7, 8, size=(16, 16)) for _ in range(8)]
        vectors = rng.integers(0, 16, size=(8, 32, 16))
        for per_matrix in (8, 32):
            server = PumServer(num_devices=2, queue_capacity=256,
                               scheduling=StaticBatchingPolicy(32, 4))
            for index, matrix in enumerate(matrices):
                server.register_matrix(f"m{index}", matrix, element_size=4,
                                       input_bits=4)
            futures = [
                server.submit_batch(f"m{index}", vectors[index][:per_matrix],
                                    input_bits=4)
                for index in range(8)
            ]
            server.run_until_idle()
            assert server.queue_scans() == 0
            assert server.stats.zero_copy_batches == server.stats.batches
            for index, group in enumerate(futures):
                served = np.stack([future.result().result for future in group])
                assert np.array_equal(
                    served, vectors[index][:per_matrix] @ matrices[index]
                )


class TestPublicSurface:
    """Ratchet: the serving tier's knob and name counts only go down."""

    def test_constructor_parameter_counts(self):
        for cls, limit in ((PumServer, 4), (DevicePool, 5), (ClusterGateway, 7),
                           (CircuitBreaker, 1), (IntegrityChecker, 1),
                           (StaticBatchingPolicy, 2), (CostAwarePolicy, 2)):
            assert len(inspect.signature(cls).parameters) <= limit, cls.__name__

    def test_a_server_built_from_a_device_count_owns_a_default_pool(self):
        """Every pool setting has one home: ``PumServer(num_devices=n)`` is
        ``PumServer(pool=DevicePool(num_devices=n))``."""
        pool = PumServer(num_devices=3).pool
        assert (pool.num_devices, pool._executor, pool.replication, pool.verify) \
            == (3, resolve_backend(None), 1, "off")

    def test_one_queue_and_one_construction_path(self):
        for name in ("FlatRequestQueue", "RequestQueue", "make_request_queue",
                     "make_scheduling_policy", "BatchingConfig"):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.runtime, name), name
        default = PumServer(num_devices=1).scheduling
        assert isinstance(default, StaticBatchingPolicy)
        assert (default.max_batch, default.max_wait_ticks) == (16, 4)


    def test_the_deleted_scheduler_surface_stays_deleted(self):
        """One admission rule and one policy surface: a full queue rejects,
        and a policy has its two knobs and nothing per tick."""
        from repro.runtime import queueing, scheduling

        for module, name in ((repro, "Autotuner"), (repro.runtime, "Autotuner"),
                             (scheduling, "Autotuner"),
                             (repro.runtime.server, "ADMISSION_MODES"),
                             (queueing, "victim_order"),
                             (scheduling.SchedulingPolicy, "on_tick"),
                             (scheduling.SchedulingPolicy, "victim_order"),
                             (queueing.IndexedRequestQueue, "victim"),
                             (queueing.IndexedRequestQueue, "discard"),
                             (PumServer, "predicted_batch_energy_pj"),
                             (DevicePool, "predicted_batch_energy_pj"),
                             (DarthPumDevice, "predicted_mvm_energy_pj"),
                             (MvmPlan, "predicted_energy_pj"),
                             (PlanCostModel, "timeline")):
            assert not hasattr(module, name), name
        assert "energy_per_vector_pj" not in inspect.signature(PlanHandle).parameters
        assert "energy_per_vector_pj" not in inspect.signature(
            PlanHandle.from_cost_samples).parameters
        assert "admission" not in inspect.signature(PumServer).parameters
        assert list(inspect.signature(CostAwarePolicy).parameters) \
            == ["max_batch", "max_wait_ticks"]

    def test_the_deleted_placement_surface_stays_deleted(self):
        """One placement rule and a backend table: no placement policies,
        no affinity hint, no backend registry."""
        for module in (repro, repro.runtime, repro.runtime.pool, repro.plan):
            for name in ("PlacementPolicy", "RoundRobinPolicy", "LeastLoadedPolicy",
                         "CacheAffinityPolicy", "make_placement_policy",
                         "BackendRegistry"):
                assert not hasattr(module, name), (module.__name__, name)
        for name in ("POLICIES", "policy", "placement_policy"):
            assert not hasattr(DevicePool, name), name
        assert "policy" not in inspect.signature(DevicePool).parameters
        assert "affinity" not in inspect.signature(DevicePool.set_matrix).parameters
        assert isinstance(repro.plan.BACKENDS, dict)

    def test_the_deleted_knobs_stay_deleted(self):
        """A keyword only tests set is a module constant they patch: the
        gateway's admission, liveness, hedging, supervision and fault knobs,
        the server's auto-rebuild, the pool's backend, the breaker's tuning
        and the ABFT tolerance.  The ABFT band is per allocation, decided by
        the devices, so the checker takes nothing."""
        from repro.runtime import server as server_module
        from repro.runtime.cluster import gateway as gateway_module

        gone = {
            ClusterGateway: ("queue_capacity", "inflight_window", "heartbeat_interval",
                             "stop_timeout", "batch_timeout", "auto_restart",
                             "transport_faults"),
            PumServer: ("auto_rebuild",),
            DevicePool: ("backend",),
            CircuitBreaker: ("threshold", "cooldown", "max_cooldown"),
            IntegrityChecker: ("tolerance", "noisy"),
        }
        for cls, names in gone.items():
            parameters = inspect.signature(cls).parameters
            for name in names:
                assert name not in parameters, (cls.__name__, name)
        assert list(inspect.signature(CircuitBreaker).parameters) == ["clock"]
        assert list(inspect.signature(IntegrityChecker).parameters) == []
        assert not hasattr(gateway_module, "_new_breaker")
        for module, name, value in (
                (gateway_module, "INFLIGHT_WINDOW", 1024),
                (gateway_module, "HEARTBEAT_INTERVAL", 0.05),
                (gateway_module, "STOP_TIMEOUT", 5.0),
                (gateway_module, "BATCH_TIMEOUT", None),
                (gateway_module, "AUTO_RESTART", False),
                (gateway_module, "TRANSPORT_FAULTS", None),
                (server_module, "AUTO_REBUILD", False)):
            assert getattr(module, name) == value, name


class TestLatencyPercentileCache:
    def make_stats_with(self, latencies_batches):
        stats = ServingStats()
        for batch in latencies_batches:
            stats.record_batch(len(batch), list(batch), energy_pj=1.0)
        return stats

    def test_matches_fresh_sort_at_window_boundaries(self):
        # Overflow the sliding window so old entries fall out mid-stream.
        stats = self.make_stats_with(
            [range(i, i + 7) for i in range(0, 2 * TELEMETRY_WINDOW, 7)]
        )
        assert len(stats.latencies) == TELEMETRY_WINDOW
        for q in (0, 50, 95, 99, 100):
            assert stats.latency_percentile(q) == percentile(
                list(stats.latencies), q
            )

    def test_cache_refreshes_after_each_recorded_batch(self):
        stats = self.make_stats_with([[10, 20, 30]])
        assert stats.latency_percentile(50) == 20.0
        stats.record_batch(2, [100, 200], energy_pj=1.0)
        assert stats.latency_percentile(50) == 30.0
        assert stats.latency_percentile(100) == 200.0

    def test_empty_window_is_zero(self):
        assert ServingStats().latency_percentile(99) == 0.0


class TestStatsSnapshot:
    """Regression: snapshot() must never observe a torn telemetry window."""

    def test_snapshot_blocks_on_the_stats_lock(self):
        # The mutators and snapshot() serialize on the same lock; a reader
        # arriving mid-record_batch must wait for the whole batch.
        import threading

        stats = ServingStats()
        stats.record_batch(2, [5, 7], energy_pj=4.0)
        acquired = threading.Event()
        release = threading.Event()
        observed = {}

        def hold_lock():
            with stats._stats_lock:
                acquired.set()
                release.wait(timeout=10)

        def read_snapshot():
            observed["summary"] = stats.snapshot()

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert acquired.wait(timeout=10)
        reader = threading.Thread(target=read_snapshot)
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive()  # blocked behind the writer's lock
        release.set()
        reader.join(timeout=10)
        holder.join(timeout=10)
        assert not reader.is_alive()
        assert observed["summary"]["completed"] == 2.0

    def test_snapshot_is_consistent_under_concurrent_recording(self):
        # Hammer record_batch from a writer thread while snapshotting:
        # completed is only ever bumped alongside its batch, so every
        # snapshot must satisfy completed == 2 * batches exactly.
        import threading

        stats = ServingStats()
        stop = threading.Event()

        def writer():
            tick = 0
            while not stop.is_set():
                stats.record_batch(2, [tick, tick + 1], energy_pj=2.0)
                tick += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                summary = stats.snapshot()
                assert summary["completed"] == 2 * summary["batches"]
        finally:
            stop.set()
            thread.join(timeout=10)

    def test_snapshot_matches_summary_when_quiescent(self):
        stats = ServingStats()
        stats.record_batch(3, [1, 2, 3], energy_pj=9.0)
        stats.observe_queue_depth(5)
        assert stats.snapshot() == stats.summary()


class TestFrontDoor:
    """``admissible``: the check ``submit``, ``submit_batch`` and a cluster
    worker run on request vectors before anything is queued or executed."""

    @pytest.mark.parametrize("input_bits, values, refused", [
        (4, [0, 15], None),
        (4, [0, 16], "[0, 2**4) (got range [0, 16])"),
        (4, [-1, 3], "[0, 2**4) (got range [-1, 3])"),
        (63, [0, 2**63 - 1], None),
        (63, [-(2**63), 5], f"[0, 2**63) (got range [{-(2**63)}, 5])"),
        (64, [-1, 2**63 - 1], f"[0, 2**64) (got range [-1, {2**63 - 1}])"),
        (64, [0, 2**63 - 1], None),
    ])
    def test_one_pass_for_a_valid_wave_the_full_range_for_a_refusal(
            self, input_bits, values, refused):
        vectors = np.array([values], dtype=np.int64)
        if refused is None:
            assert admissible("m", 2, vectors, input_bits) is vectors
        else:
            with pytest.raises(QuantizationError, match=re.escape(refused)):
                admissible("m", 2, vectors, input_bits)

    def test_shape_before_dtype_before_range(self):
        with pytest.raises(QuantizationError, match=r"an \(n, 2\) array for matrix 'm'"):
            admissible("m", 2, np.array([[0.5, -1.0, 2.0]]), 4)
        with pytest.raises(QuantizationError, match="must be integers"):
            admissible("m", 2, np.array([[0.5, -1.0]]), 4)
        with pytest.raises(QuantizationError, match=r"a \(2,\) vector"):
            admissible("m", 2, np.zeros(3, dtype=np.int64), 4, ndim=1)
