"""Cost-model-driven scheduling: policies and SLO classes.

Covers the pluggable :class:`~repro.runtime.scheduling.SchedulingPolicy`
surface end to end:

* the cost oracle -- ``predicted_batch_cycles`` exactly matches the
  optimized cycles execution charges, and is memoised (and invalidated on
  re-registration);
* :class:`CostAwarePolicy` determinism -- replaying one tick trace twice
  yields identical dispatch batches, responses, and shed sets -- plus its
  deadline-pressure dispatch;
* SLO classes filling in deadlines/priorities at admission;
* the queue-level ``group_keys`` / ``min_deadline`` extensions, on the
  indexed queue and its flat-list oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from flat_queue import FlatRequestQueue, row_request
from test_queueing import push as push_wave

from repro.errors import SloError
from repro.runtime import (
    CostAwarePolicy,
    PumServer,
    SloClass,
    StaticBatchingPolicy,
    resolve_slo,
)
from repro.runtime import scheduling
from repro.runtime.queueing import IndexedRequestQueue
from repro.testing import derive_rng


def make_server(max_batch=None, max_wait_ticks=None, **kwargs):
    """``max_batch`` / ``max_wait_ticks`` build the static policy here."""
    kwargs.setdefault("num_devices", 2)
    if max_batch is not None:
        kwargs["scheduling"] = StaticBatchingPolicy(max_batch, max_wait_ticks)
    server = PumServer(**kwargs)
    server.register_matrix("proj", np.eye(8, dtype=np.int64))
    return server


def queued_requests(server, key=("proj", 3)):
    """Per-row views of everything queued under ``key`` (taken off the queue:
    the queue holds waves, so a test that wants requests builds the flat
    oracle's row views)."""
    return [
        row_request(wave, row)
        for wave, start, stop in server.request_queue.take(key, server.queue_capacity)
        for row in range(start, stop)
    ]


def drive(server, trace):
    """Replay a deterministic trace: ``trace[t]`` arrives before tick t+1.

    Each trace entry is a list of ``(vector, kwargs)`` submissions.  Returns
    ``(responses, dispatch_batches, shed_ids)`` accumulated over the run.
    """
    responses = []
    for wave in trace:
        for vector, kwargs in wave:
            server.submit("proj", vector, input_bits=3, **kwargs)
        responses.extend(server.tick())
    responses.extend(server.run_until_idle())
    batches = [
        (r.request_id, r.batch_size) for r in responses if r.status == "completed"
    ]
    shed = sorted(r.request_id for r in responses if r.status == "shed")
    return responses, batches, shed


def random_trace(label, ticks=40, rate=3):
    rng = derive_rng("scheduling", label)
    trace = []
    for t in range(ticks):
        wave = []
        for _ in range(int(rng.integers(0, rate + 1))):
            vector = rng.integers(0, 8, size=8).astype(np.int64)
            kwargs = {}
            roll = rng.random()
            if roll < 0.3:
                kwargs["slo"] = "interactive"
            elif roll < 0.6:
                kwargs["slo"] = "batch"
            wave.append((vector, kwargs))
        trace.append(wave)
    return trace


class TestCostOracle:
    def test_prediction_matches_execution_exactly(self):
        # The oracle models the optimized MVM timeline -- the quantity the
        # device runtime charges under "runtime.mvm_batch" -- with the same
        # max-over-devices (critical path) semantics as the pool predictor.
        server = make_server(max_batch=8, max_wait_ticks=1)
        predicted = server.predicted_batch_cycles("proj", 3, 4)
        before = [device.ledger.cycle_breakdown.get("runtime.mvm_batch", 0.0)
                  for device in server.pool.devices]
        vectors = np.arange(32, dtype=np.int64).reshape(4, 8) % 8
        server.submit_batch("proj", vectors, input_bits=3)
        server.run_until_idle()
        after = [device.ledger.cycle_breakdown.get("runtime.mvm_batch", 0.0)
                 for device in server.pool.devices]
        charged = max(now - then for now, then in zip(after, before))
        assert charged == predicted

    def test_prediction_is_memoised_and_invalidated(self, monkeypatch):
        server = make_server()
        evaluated = []
        evaluate = server.pool.predicted_batch_cycles

        def counting(allocation, batch, input_bits=8):
            evaluated.append(allocation.allocation_id)
            return evaluate(allocation, batch, input_bits=input_bits)

        monkeypatch.setattr(server.pool, "predicted_batch_cycles", counting)
        first = server.predicted_batch_cycles("proj", 3, 4)
        assert server.predicted_batch_cycles("proj", 3, 4) == first
        assert evaluated == [server.allocation_for("proj").allocation_id]
        # New values of the same shape: the memo is geometry, so it stays.
        server.register_matrix("proj", np.ones((8, 8), dtype=np.int64))
        assert server.predicted_batch_cycles("proj", 3, 4) == first
        assert len(evaluated) == 1
        replaced = server.register_matrix("proj", np.ones((8, 6), dtype=np.int64))
        again = server.predicted_batch_cycles("proj", 3, 4)
        assert again > 0
        assert evaluated[1:] == [replaced.allocation_id]

    def test_batch_monotonicity(self):
        server = make_server()
        c1 = server.predicted_batch_cycles("proj", 3, 1)
        c8 = server.predicted_batch_cycles("proj", 3, 8)
        assert 0 < c1 < c8
        # Amortisation: per-request cost falls with batch size.
        assert c8 / 8 < c1


class TestSloClasses:
    def test_resolution(self):
        assert resolve_slo(None) is None
        interactive = resolve_slo("interactive")
        assert interactive.latency_target_ticks == 4
        custom = SloClass("gold", latency_target_ticks=2, shed_priority=99)
        assert resolve_slo(custom) is custom
        with pytest.raises(SloError, match="unknown SLO class"):
            resolve_slo("nope")

    def test_slo_fills_deadline_and_priority(self):
        server = make_server(max_batch=16, max_wait_ticks=50, queue_capacity=8)
        server.submit("proj", np.zeros(8, dtype=np.int64), input_bits=3,
                      slo="interactive")
        (request,) = queued_requests(server)
        assert request.deadline == server.now + 4
        assert request.priority == 20

    def test_explicit_arguments_win_over_slo(self):
        server = make_server(max_batch=16, max_wait_ticks=50)
        server.submit("proj", np.zeros(8, dtype=np.int64), input_bits=3,
                      slo="interactive", priority=7, deadline=1000)
        (request,) = queued_requests(server)
        assert request.deadline == 1000
        assert request.priority == 7

    def test_batch_slo_has_no_deadline(self):
        server = make_server(max_batch=16, max_wait_ticks=50)
        server.submit_batch("proj", np.zeros((2, 8), dtype=np.int64),
                            input_bits=3, slo="batch")
        requests = queued_requests(server)
        assert len(requests) == 2
        for request in requests:
            assert request.deadline is None
            assert request.priority == 0


class TestCostAwarePolicy:
    def test_deterministic_replay(self):
        trace = random_trace("replay", ticks=40)
        runs = []
        for _ in range(2):
            server = make_server(
                scheduling=CostAwarePolicy(max_batch=8, max_wait_ticks=6),
                queue_capacity=32,
            )
            runs.append(drive(server, trace))
        (r1, b1, s1), (r2, b2, s2) = runs
        assert b1 == b2
        assert s1 == s2
        for a, b in zip(r1, r2):
            assert (a.request_id, a.status, a.completion_tick) \
                == (b.request_id, b.status, b.completion_tick)
            if a.result is not None:
                assert np.array_equal(a.result, b.result)

    def test_deadline_pressure_dispatches_before_shedding(self, monkeypatch):
        # One tight request in a half-empty group: the static policy would
        # age it out past its deadline; the cost-aware policy dispatches
        # the moment slack dips below the predicted batch latency.
        monkeypatch.setattr(scheduling, "MARGIN_TICKS", 1)
        monkeypatch.setattr(scheduling, "AMORTIZATION_TOLERANCE", 0.0)
        policy = CostAwarePolicy(max_batch=16, max_wait_ticks=10)
        server = make_server(scheduling=policy)
        server.submit("proj", np.zeros(8, dtype=np.int64), input_bits=3,
                      slo="interactive")
        responses = server.run_until_idle()
        assert [r.status for r in responses] == ["completed"]
        assert responses[0].latency_ticks <= 4

        static = make_server(max_batch=16, max_wait_ticks=10)
        static.submit("proj", np.zeros(8, dtype=np.int64), input_bits=3,
                      slo="interactive")
        shed = static.run_until_idle()
        assert [r.status for r in shed] == ["shed"]

    def test_amortization_valve_dispatches_converged_groups(self, monkeypatch):
        # Deadline-free traffic whose per-request cost has converged should
        # not wait out the full max_wait_ticks.
        monkeypatch.setattr(scheduling, "AMORTIZATION_TOLERANCE", 10.0)
        policy = CostAwarePolicy(max_batch=4, max_wait_ticks=30)
        server = make_server(scheduling=policy)
        server.submit("proj", np.zeros(8, dtype=np.int64), input_bits=3)
        responses = server.run_until_idle()
        assert responses[0].status == "completed"
        assert responses[0].latency_ticks < 30

    def test_full_batch_dispatches_immediately(self):
        policy = CostAwarePolicy(max_batch=4, max_wait_ticks=30)
        server = make_server(scheduling=policy)
        server.submit_batch("proj", np.zeros((4, 8), dtype=np.int64),
                            input_bits=3)
        responses = server.tick()
        assert [r.batch_size for r in responses] == [4, 4, 4, 4]

    def test_full_queue_rejects_the_newcomer_whatever_its_cost(self):
        # Two matrices of very different cost: at a full queue the
        # higher-priority newcomer is turned away, and neither queued
        # request -- cheap or expensive -- is evicted for it.
        server = PumServer(num_devices=2, queue_capacity=2,
                           scheduling=CostAwarePolicy(max_batch=16,
                                                      max_wait_ticks=50))
        server.register_matrix("big", np.eye(128, dtype=np.int64))
        server.register_matrix("small", np.eye(4, dtype=np.int64))
        assert server.predicted_batch_cycles("big", 3, 1) \
            > server.predicted_batch_cycles("small", 3, 1)
        f_small = server.submit("small", np.zeros(4, dtype=np.int64),
                                input_bits=3)
        f_big = server.submit("big", np.zeros(128, dtype=np.int64),
                              input_bits=3)
        f_new = server.submit("small", np.zeros(4, dtype=np.int64),
                              input_bits=3, priority=5)
        assert f_new.done() and f_new.result().status == "rejected"
        assert not f_small.done() and not f_big.done()
        assert server.stats.shed == 0
        server.run_until_idle()
        assert f_small.result().ok and f_big.result().ok

    def test_tick_cycles_convert_predicted_cycles_to_ticks(self, monkeypatch):
        policy = CostAwarePolicy(max_batch=4, max_wait_ticks=30)
        server = make_server(scheduling=policy)
        cycles = server.predicted_batch_cycles("proj", 3, 2)
        assert policy.predicted_batch_ticks(server, ("proj", 3), 2) \
            == cycles / scheduling.TICK_CYCLES
        # Read at use: a patched constant takes effect without a new policy.
        monkeypatch.setattr(scheduling, "TICK_CYCLES", cycles)
        assert policy.predicted_batch_ticks(server, ("proj", 3), 2) == 1.0

    def test_ready_groups_tightest_slack_first(self):
        policy = CostAwarePolicy(max_batch=2, max_wait_ticks=50)
        server = PumServer(num_devices=2, scheduling=policy)
        server.register_matrix("loose", np.eye(8, dtype=np.int64))
        server.register_matrix("tight", np.eye(8, dtype=np.int64))
        server.submit_batch("loose", np.zeros((2, 8), dtype=np.int64),
                            input_bits=3)
        server.submit_batch("tight", np.zeros((2, 8), dtype=np.int64),
                            input_bits=3, slo="interactive")
        keys = policy.ready_groups(server, server.request_queue,
                                   server.now + 1)
        assert keys == [("tight", 3), ("loose", 3)]


class TestQueueExtensions:
    def push(self, queue, request_id, **kwargs):
        """Queue one request (a wave of one) in group ``(name, 2)``."""
        push_wave(queue, request_id, input_bits=2, **kwargs)

    @pytest.mark.parametrize("queue_cls",
                             [IndexedRequestQueue, FlatRequestQueue])
    def test_group_keys_and_min_deadline(self, queue_cls):
        queue = queue_cls()
        assert queue.group_keys() == []
        self.push(queue, 0, name="a", deadline=9)
        self.push(queue, 1, name="a", deadline=5)
        self.push(queue, 2, name="b")
        assert sorted(queue.group_keys()) == [("a", 2), ("b", 2)]
        assert queue.min_deadline(("a", 2)) == 5
        assert queue.min_deadline(("b", 2)) is None
        queue.pop_expired(now=6)  # request 1 (deadline 5) is shed
        assert queue.min_deadline(("a", 2)) == 9
        queue.pop_expired(now=10)
        assert queue.group_keys() == [("b", 2)]
        assert queue.min_deadline(("a", 2)) is None

    def test_indexed_group_keys_do_not_scan(self):
        queue = IndexedRequestQueue()
        for i in range(16):
            self.push(queue, i, deadline=100 + i)
        before = queue.scans
        queue.group_keys()
        queue.min_deadline(("m", 2))
        assert queue.scans == before

    def test_indexed_take_cleans_group_deadlines(self):
        queue = IndexedRequestQueue()
        self.push(queue, 0, deadline=10)
        self.push(queue, 1, deadline=11)
        queue.take(("m", 2), max_batch=2)
        assert queue.min_deadline(("m", 2)) is None
        assert not queue._group_deadlines
