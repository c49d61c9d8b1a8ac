"""Cost-model-driven scheduling: policies, SLO classes, and the autotuner.

Covers the pluggable :class:`~repro.runtime.scheduling.SchedulingPolicy`
surface end to end:

* the cost oracle -- ``predicted_batch_cycles`` exactly matches the
  optimized cycles execution charges, and is memoised (and invalidated on
  re-registration);
* :class:`CostAwarePolicy` determinism -- replaying one tick trace twice
  yields identical dispatch batches, responses, and shed sets -- plus its
  deadline-pressure dispatch and priced admission shedding;
* SLO classes filling in deadlines/priorities at admission;
* the :class:`Autotuner` nudging the static knobs from live telemetry;
* the queue-level ``group_keys`` / ``min_deadline`` / ``victim(order=)``
  extensions, on the indexed queue and its flat-list oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from flat_queue import FlatRequestQueue
from test_queueing import push as push_wave

from repro.errors import SloError
from repro.runtime import (
    Autotuner,
    CostAwarePolicy,
    PumServer,
    SloClass,
    StaticBatchingPolicy,
    resolve_slo,
)
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
    the queue holds waves, so a test that wants requests asks the wave)."""
    return [
        wave.request(row)
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

    def test_energy_prediction_positive_and_monotonic(self):
        server = make_server()
        e1 = server.predicted_batch_energy_pj("proj", 3, 1)
        e4 = server.predicted_batch_energy_pj("proj", 3, 4)
        assert 0 < e1 < e4

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

    def test_deadline_pressure_dispatches_before_shedding(self):
        # One tight request in a half-empty group: the static policy would
        # age it out past its deadline; the cost-aware policy dispatches
        # the moment slack dips below the predicted batch latency.
        policy = CostAwarePolicy(max_batch=16, max_wait_ticks=10,
                                 margin_ticks=1, amortization_tolerance=0.0)
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

    def test_amortization_valve_dispatches_converged_groups(self):
        # Deadline-free traffic whose per-request cost has converged should
        # not wait out the full max_wait_ticks.
        policy = CostAwarePolicy(max_batch=4, max_wait_ticks=30,
                                 amortization_tolerance=10.0)
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

    def test_priced_admission_victim(self):
        # Two matrices of very different cost at priority 0: when the queue
        # is full the cost-aware pricer sheds the *expensive* request,
        # where the default order would shed the oldest.
        server = PumServer(num_devices=2, queue_capacity=2,
                           admission="shed_lowest",
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
        assert f_big.done() and f_big.result().status == "shed"
        assert not f_small.done()
        assert not f_new.done()

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


class TestAutotuner:
    def test_sheds_lower_wait(self):
        tuner = Autotuner(max_batch=16, max_wait_ticks=6, interval_ticks=4)
        server = make_server(scheduling=tuner)
        # Interactive deadline (now+4) with wait 6: requests shed, and the
        # tuner reacts by lowering the wait knob at its next window.
        for _ in range(3):
            server.submit("proj", np.zeros(8, dtype=np.int64), input_bits=3,
                          slo="interactive")
            for _ in range(4):
                server.tick()
        assert any(knob == "max_wait_ticks" and new < old
                   for _, knob, old, new in tuner.history)
        assert tuner.max_wait_ticks < 6

    def test_saturated_fill_grows_batch(self):
        tuner = Autotuner(max_batch=2, max_wait_ticks=1, interval_ticks=2)
        server = make_server(scheduling=tuner, queue_capacity=64)
        for _ in range(4):
            server.submit_batch("proj", np.zeros((4, 8), dtype=np.int64),
                                input_bits=3)
            server.tick()
            server.tick()
        assert any(knob == "max_batch" and new > old
                   for _, knob, old, new in tuner.history)

    def test_sparse_fill_raises_wait(self):
        tuner = Autotuner(max_batch=8, max_wait_ticks=1, interval_ticks=2,
                          max_wait_ticks_limit=4)
        server = make_server(scheduling=tuner)
        for _ in range(4):
            server.submit("proj", np.zeros(8, dtype=np.int64), input_bits=3)
            server.tick()
            server.tick()
        assert any(knob == "max_wait_ticks" and new > old
                   for _, knob, old, new in tuner.history)
        assert tuner.max_wait_ticks <= 4

    def test_knobs_respect_bounds(self):
        tuner = Autotuner(max_batch=4, max_wait_ticks=1, interval_ticks=1,
                          min_wait_ticks=1, max_batch_limit=8)
        server = make_server(scheduling=tuner)
        for _ in range(20):
            server.submit_batch("proj", np.zeros((8, 8), dtype=np.int64),
                                input_bits=3)
            server.tick()
        assert 1 <= tuner.max_wait_ticks
        assert tuner.max_batch <= 8


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
        queue.discard(1)
        assert queue.min_deadline(("a", 2)) == 9
        queue.discard(0)
        assert queue.group_keys() == [("b", 2)]
        assert queue.min_deadline(("a", 2)) is None

    @pytest.mark.parametrize("queue_cls",
                             [IndexedRequestQueue, FlatRequestQueue])
    def test_victim_accepts_custom_order(self, queue_cls):
        queue = queue_cls()
        self.push(queue, 0, priority=5)
        self.push(queue, 1, priority=1)
        assert queue.victim().request_id == 1
        # Invert the order: the custom key wins.
        assert queue.victim(order=lambda r: -r.priority).request_id == 0

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
