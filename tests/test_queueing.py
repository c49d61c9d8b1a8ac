"""Conformance suite shared by the indexed queue and its flat-list oracle.

``IndexedRequestQueue`` is the scheduler's queue: it holds waves as runs
``(wave, start, stop)``.  ``tests/flat_queue.py`` is the flat list of rows it
replaced, kept as the differential oracle.  This suite drives both through
the same parametrized scenarios -- push/expire/ready/take, waves split
across batches, mixed priorities -- and additionally replays identical
randomized operation sequences (single rows and waves of 1-9 rows, sizes
that do not divide the take size) through both, asserting step-for-step
equality of the row ids each operation returns, so a queue change cannot
silently diverge from the contract in either direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from flat_queue import FlatRequestQueue, batch_order, row_request

from repro.runtime.queueing import IndexedRequestQueue, Wave, run_batch_order
from repro.testing import derive_rng

QUEUES = {"flat": FlatRequestQueue, "indexed": IndexedRequestQueue}


def make_wave(
    base_id,
    rows=1,
    name="m",
    input_bits=4,
    priority=0,
    deadline=None,
    arrival_tick=0,
):
    """A wave of ``rows`` requests with ids ``base_id, base_id + 1, ...``."""
    return Wave(base_id, name, input_bits, priority, deadline, arrival_tick,
                np.zeros((rows, 2), dtype=np.int64), [None] * rows, rows > 1)


def push(queue, base_id, rows=1, **kwargs):
    """Push a whole new wave; returns it."""
    wave = make_wave(base_id, rows, **kwargs)
    queue.push(wave, 0, rows)
    return wave


def ids(runs):
    """The request ids of ``runs``, flattened in order."""
    return [wave.base_id + row for wave, start, stop in runs
            for row in range(start, stop)]


@pytest.fixture(params=sorted(QUEUES))
def queue(request):
    return QUEUES[request.param]()


class TestConformance:
    """The queue contract, held by the indexed queue and the oracle alike."""

    def test_len_push_take_roundtrip(self, queue):
        for i in range(5):
            push(queue, i)
        assert len(queue) == 5
        assert ids(queue.take(("m", 4), max_batch=3)) == [0, 1, 2]
        assert len(queue) == 2

    def test_push_wave_equals_pushes(self, queue):
        push(queue, 0, rows=4, arrival_tick=1)
        assert len(queue) == 4
        assert queue.group_pending(("m", 4)) == 4
        assert ids(queue.take(("m", 4), 10)) == [0, 1, 2, 3]
        # The same wave admitted a row at a time (partial admission).
        wave = make_wave(10, rows=4, arrival_tick=1)
        for row in range(4):
            queue.push(wave, row, row + 1)
        assert len(queue) == queue.group_pending(("m", 4)) == 4
        assert ids(queue.take(("m", 4), 10)) == [10, 11, 12, 13]

    def test_take_splits_a_wave_across_batches(self, queue):
        wave = push(queue, 0, rows=7)
        first = queue.take(("m", 4), max_batch=3)
        assert ids(first) == [0, 1, 2]
        assert all(run[0] is wave for run in first)
        assert queue.group_pending(("m", 4)) == len(queue) == 4
        assert ids(queue.take(("m", 4), max_batch=3)) == [3, 4, 5]
        assert ids(queue.take(("m", 4), max_batch=3)) == [6]
        assert queue.take(("m", 4), max_batch=3) == []
        assert queue.group_keys() == []

    def test_group_pending_tracks_takes(self, queue):
        for i in range(4):
            push(queue, i)
        push(queue, 4, name="other")
        assert queue.group_pending(("m", 4)) == 4
        assert queue.group_pending(("other", 4)) == 1
        assert queue.group_pending(("missing", 4)) == 0
        assert ids(queue.take(("m", 4), max_batch=2)) == [0, 1]
        assert queue.group_pending(("m", 4)) == 2

    def test_pop_expired_returns_id_order(self, queue):
        push(queue, 0, deadline=5)
        push(queue, 1)  # no deadline: never expires
        push(queue, 2, deadline=3)
        push(queue, 3, deadline=9)
        assert ids(queue.pop_expired(now=7)) == [0, 2]
        assert len(queue) == 2
        assert queue.pop_expired(now=7) == []

    def test_pop_expired_takes_what_is_left_of_a_wave(self, queue):
        push(queue, 0, rows=6, deadline=5)
        push(queue, 6, rows=2)
        assert ids(queue.take(("m", 4), max_batch=2)) == [0, 1]
        assert queue.min_deadline(("m", 4)) == 5
        assert ids(queue.pop_expired(now=6)) == [2, 3, 4, 5]
        assert queue.min_deadline(("m", 4)) is None
        assert len(queue) == queue.group_pending(("m", 4)) == 2
        assert queue.pop_expired(now=99) == []
        assert ids(queue.take(("m", 4), 10)) == [6, 7]

    def test_deadline_boundary_is_exclusive(self, queue):
        # A request expires strictly *after* its deadline tick.
        push(queue, 0, deadline=5)
        assert queue.pop_expired(now=5) == []
        assert ids(queue.pop_expired(now=6)) == [0]

    def test_ready_groups_full_batch(self, queue):
        for i in range(3):
            push(queue, i, arrival_tick=0)
        assert queue.ready_groups(now=1, max_batch=3, max_wait_ticks=100) \
            == [("m", 4)]
        assert queue.ready_groups(now=1, max_batch=4, max_wait_ticks=100) == []

    def test_ready_groups_aged(self, queue):
        push(queue, 0, arrival_tick=0)
        assert queue.ready_groups(now=3, max_batch=8, max_wait_ticks=4) == []
        assert queue.ready_groups(now=4, max_batch=8, max_wait_ticks=4) \
            == [("m", 4)]

    def test_ready_groups_oldest_first(self, queue):
        push(queue, 0, name="b", arrival_tick=2)
        push(queue, 1, name="a", arrival_tick=0)
        ready = queue.ready_groups(now=10, max_batch=8, max_wait_ticks=1)
        assert ready == [("a", 4), ("b", 4)]

    def test_input_bits_split_groups(self, queue):
        push(queue, 0, input_bits=2)
        push(queue, 1, input_bits=8)
        assert queue.group_pending(("m", 2)) == 1
        assert queue.group_pending(("m", 8)) == 1
        assert ids(queue.take(("m", 8), 10)) == [1]

    def test_oldest_wait(self, queue):
        assert queue.oldest_wait(("m", 4), now=9) == -1
        push(queue, 0, arrival_tick=3)
        push(queue, 1, arrival_tick=5)
        assert queue.oldest_wait(("m", 4), now=9) == 6
        assert ids(queue.take(("m", 4), max_batch=1)) == [0]
        assert queue.oldest_wait(("m", 4), now=9) == 4

    def test_take_respects_priority_then_arrival(self, queue):
        push(queue, 0, priority=0, arrival_tick=0)
        push(queue, 1, priority=2, arrival_tick=1)
        push(queue, 2, priority=1, arrival_tick=1)
        push(queue, 3, priority=2, arrival_tick=2)
        assert ids(queue.take(("m", 4), max_batch=3)) == [1, 3, 2]
        assert ids(queue.take(("m", 4), 10)) == [0]

    def test_take_orders_waves_of_mixed_priority(self, queue):
        push(queue, 0, rows=3, priority=0)
        push(queue, 3, rows=3, priority=5, arrival_tick=1)
        push(queue, 6, rows=2, priority=0, arrival_tick=1)
        # The urgent wave first, split at the batch edge; then arrival order.
        assert ids(queue.take(("m", 4), max_batch=2)) == [3, 4]
        assert ids(queue.take(("m", 4), max_batch=4)) == [5, 0, 1, 2]
        assert queue.oldest_wait(("m", 4), now=3) == 2
        assert ids(queue.take(("m", 4), max_batch=4)) == [6, 7]

    def test_take_from_empty_group(self, queue):
        assert queue.take(("missing", 4), max_batch=4) == []

    def test_min_deadline_tracks_takes(self, queue):
        push(queue, 0, rows=3, deadline=4)
        push(queue, 3, rows=2, deadline=9, arrival_tick=1)
        push(queue, 5, arrival_tick=1)  # no deadline
        # A wave keeps its deadline while any row of it is queued.
        assert ids(queue.take(("m", 4), max_batch=2)) == [0, 1]
        assert queue.min_deadline(("m", 4)) == 4
        assert ids(queue.take(("m", 4), max_batch=1)) == [2]
        assert queue.min_deadline(("m", 4)) == 9
        assert ids(queue.take(("m", 4), max_batch=2)) == [3, 4]
        assert queue.min_deadline(("m", 4)) is None
        assert queue.pop_expired(now=99) == []  # nothing left to expire
        assert ids(queue.take(("m", 4), max_batch=2)) == [5]

    def test_pop_expired_spans_groups_in_id_order(self, queue):
        push(queue, 0, name="b", rows=2, deadline=3)
        push(queue, 2, name="a", deadline=1)
        push(queue, 3, name="b", deadline=8)
        push(queue, 4, name="a", rows=2, deadline=2)
        assert ids(queue.pop_expired(now=4)) == [0, 1, 2, 4, 5]
        assert queue.group_keys() == [("b", 4)]
        assert queue.group_pending(("a", 4)) == 0
        assert len(queue) == queue.group_pending(("b", 4)) == 1
        assert queue.min_deadline(("b", 4)) == 8

    def test_a_group_emptied_by_expiry_is_gone(self, queue):
        push(queue, 0, rows=3, deadline=2, arrival_tick=1)
        assert ids(queue.pop_expired(now=3)) == [0, 1, 2]
        assert len(queue) == 0 and queue.group_keys() == []
        assert queue.oldest_wait(("m", 4), now=5) == -1
        assert queue.min_deadline(("m", 4)) is None
        assert queue.ready_groups(now=9, max_batch=1, max_wait_ticks=0) == []
        assert queue.take(("m", 4), max_batch=4) == []

    def test_ready_groups_see_what_take_left(self, queue):
        push(queue, 0, rows=5, arrival_tick=0)
        push(queue, 5, arrival_tick=3)
        assert queue.ready_groups(now=3, max_batch=4, max_wait_ticks=9) \
            == [("m", 4)]
        assert ids(queue.take(("m", 4), max_batch=4)) == [0, 1, 2, 3]
        # Two rows left: not a full batch, and the oldest is row 4 (tick 0).
        assert queue.ready_groups(now=3, max_batch=4, max_wait_ticks=9) == []
        assert queue.ready_groups(now=9, max_batch=4, max_wait_ticks=9) \
            == [("m", 4)]
        assert ids(queue.take(("m", 4), max_batch=1)) == [4]
        assert queue.oldest_wait(("m", 4), now=9) == 6
        assert queue.ready_groups(now=9, max_batch=4, max_wait_ticks=9) == []

    def test_take_and_expire_churn_stays_consistent(self, queue):
        """Interleaved push/take/expire cycles never corrupt the counters:
        a row that leaves by either door is gone for good, not met later."""
        next_id = 0
        for cycle in range(6):
            tick = 10 * cycle
            push(queue, next_id, rows=5, deadline=tick + 1, arrival_tick=tick)
            push(queue, next_id + 5, rows=2, arrival_tick=tick)
            wave_ids = list(range(next_id, next_id + 7))
            next_id += 7
            assert ids(queue.take(("m", 4), max_batch=2)) == wave_ids[:2]
            assert queue.group_pending(("m", 4)) == len(queue) == 5
            assert ids(queue.pop_expired(now=tick + 2)) == wave_ids[2:5]
            assert queue.group_pending(("m", 4)) == len(queue) == 2
            assert queue.min_deadline(("m", 4)) is None
            assert ids(queue.take(("m", 4), max_batch=10)) == wave_ids[5:]
            assert len(queue) == 0 and queue.group_keys() == []


class TestSharedTieBreaks:
    def test_order_functions_are_shared(self):
        a, b = make_wave(0, priority=1, arrival_tick=5), make_wave(1, arrival_tick=2)
        assert row_request(a, 0).request_id == 0
        assert batch_order(row_request(a, 0)) < batch_order(row_request(b, 0))
        # A run sorts as its first row does.
        for wave in (a, b):
            assert run_batch_order((wave, 0, 1)) == batch_order(row_request(wave, 0))


class TestDualDriveEquivalence:
    """Replaying one random op sequence through both queues matches exactly."""

    @pytest.mark.parametrize("case", range(20))
    def test_randomized_sequences_bit_identical(self, case):
        rng = derive_rng("queue-conformance", case)
        flat, indexed = FlatRequestQueue(), IndexedRequestQueue()
        names = ["a", "b"]
        next_id = 0
        for step in range(80):
            op = rng.integers(0, 6)
            if op <= 1:  # push (weighted: keeps queues populated)
                # Half single rows, half waves of 2-9 rows; the take size
                # below is 4, so waves straddle batch edges.
                rows = int(rng.integers(2, 10)) if rng.integers(0, 2) else 1
                wave = make_wave(
                    next_id, rows,
                    name=names[int(rng.integers(0, len(names)))],
                    input_bits=int(rng.choice([2, 4])),
                    priority=int(rng.integers(0, 3)),
                    deadline=(
                        int(step + rng.integers(1, 6))
                        if rng.integers(0, 2) else None
                    ),
                    arrival_tick=step,
                )
                # Sometimes only a prefix is admitted (a full queue).
                admitted = int(rng.integers(1, rows + 1))
                flat.push(wave, 0, admitted)
                indexed.push(wave, 0, admitted)
                next_id += rows
            elif op == 3:  # expire
                assert ids(flat.pop_expired(step)) \
                    == ids(indexed.pop_expired(step))
            else:  # readiness + dispatch
                ready_flat = flat.ready_groups(step, 4, 3)
                assert ready_flat == indexed.ready_groups(step, 4, 3)
                for key in ready_flat:
                    taken_flat = flat.take(key, 4)
                    # Same runs of the same waves, not just the same ids.
                    assert taken_flat == indexed.take(key, 4)
                    assert len(ids(taken_flat)) <= 4
            assert len(flat) == len(indexed)
            assert sorted(flat.group_keys()) == sorted(indexed.group_keys())
            for key in flat.group_keys():
                assert flat.group_pending(key) == indexed.group_pending(key)
                assert flat.oldest_wait(key, step) == indexed.oldest_wait(key, step)
                assert flat.min_deadline(key) == indexed.min_deadline(key)
