"""Conformance suite shared by the indexed queue and its flat-list oracle.

``IndexedRequestQueue`` is the scheduler's queue; ``tests/flat_queue.py``
is the flat list it replaced, kept as the differential oracle.  This suite
drives both through the same parametrized scenarios --
push/discard/expire/ready/take/victim, tombstone churn, mixed priorities --
and additionally replays identical randomized operation sequences through
both, asserting step-for-step equality, so a queue change cannot silently
diverge from the contract in either direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from flat_queue import FlatRequestQueue

from repro.runtime.queueing import IndexedRequestQueue, batch_order, victim_order
from repro.runtime.server import Request
from repro.testing import derive_rng

QUEUES = {"flat": FlatRequestQueue, "indexed": IndexedRequestQueue}


def make_request(
    request_id,
    name="m",
    input_bits=4,
    priority=0,
    deadline=None,
    arrival_tick=0,
):
    return Request(
        request_id=request_id,
        name=name,
        vector=np.zeros(2, dtype=np.int64),
        input_bits=input_bits,
        priority=priority,
        deadline=deadline,
        arrival_tick=arrival_tick,
    )


@pytest.fixture(params=sorted(QUEUES))
def queue(request):
    return QUEUES[request.param]()


class TestConformance:
    """The queue contract, held by the indexed queue and the oracle alike."""

    def test_len_push_take_roundtrip(self, queue):
        for i in range(5):
            queue.push(make_request(i))
        assert len(queue) == 5
        batch = queue.take(("m", 4), max_batch=3)
        assert [r.request_id for r in batch] == [0, 1, 2]
        assert len(queue) == 2

    def test_push_wave_equals_pushes(self, queue):
        wave = [make_request(i, arrival_tick=1) for i in range(4)]
        queue.push_wave(wave)
        assert len(queue) == 4
        assert queue.group_pending(("m", 4)) == 4
        assert [r.request_id for r in queue.take(("m", 4), 10)] == [0, 1, 2, 3]

    def test_discard_removes_exactly_one(self, queue):
        for i in range(4):
            queue.push(make_request(i))
        removed = queue.discard(2)
        assert removed is not None and removed.request_id == 2
        assert queue.discard(2) is None
        assert queue.discard(99) is None
        assert [r.request_id for r in queue.take(("m", 4), 10)] == [0, 1, 3]

    def test_group_pending_tracks_discards(self, queue):
        for i in range(4):
            queue.push(make_request(i))
        queue.push(make_request(4, name="other"))
        assert queue.group_pending(("m", 4)) == 4
        assert queue.group_pending(("other", 4)) == 1
        assert queue.group_pending(("missing", 4)) == 0
        queue.discard(0)
        queue.discard(3)
        assert queue.group_pending(("m", 4)) == 2

    def test_pop_expired_returns_id_order(self, queue):
        queue.push(make_request(0, deadline=5))
        queue.push(make_request(1))  # no deadline: never expires
        queue.push(make_request(2, deadline=3))
        queue.push(make_request(3, deadline=9))
        expired = queue.pop_expired(now=7)
        assert [r.request_id for r in expired] == [0, 2]
        assert len(queue) == 2
        assert queue.pop_expired(now=7) == []

    def test_deadline_boundary_is_exclusive(self, queue):
        # A request expires strictly *after* its deadline tick.
        queue.push(make_request(0, deadline=5))
        assert queue.pop_expired(now=5) == []
        assert [r.request_id for r in queue.pop_expired(now=6)] == [0]

    def test_ready_groups_full_batch(self, queue):
        for i in range(3):
            queue.push(make_request(i, arrival_tick=0))
        assert queue.ready_groups(now=1, max_batch=3, max_wait_ticks=100) \
            == [("m", 4)]
        assert queue.ready_groups(now=1, max_batch=4, max_wait_ticks=100) == []

    def test_ready_groups_aged(self, queue):
        queue.push(make_request(0, arrival_tick=0))
        assert queue.ready_groups(now=3, max_batch=8, max_wait_ticks=4) == []
        assert queue.ready_groups(now=4, max_batch=8, max_wait_ticks=4) \
            == [("m", 4)]

    def test_ready_groups_oldest_first(self, queue):
        queue.push(make_request(0, name="b", arrival_tick=2))
        queue.push(make_request(1, name="a", arrival_tick=0))
        ready = queue.ready_groups(now=10, max_batch=8, max_wait_ticks=1)
        assert ready == [("a", 4), ("b", 4)]

    def test_input_bits_split_groups(self, queue):
        queue.push(make_request(0, input_bits=2))
        queue.push(make_request(1, input_bits=8))
        assert queue.group_pending(("m", 2)) == 1
        assert queue.group_pending(("m", 8)) == 1
        assert [r.request_id for r in queue.take(("m", 8), 10)] == [1]

    def test_oldest_wait(self, queue):
        assert queue.oldest_wait(("m", 4), now=9) == -1
        queue.push(make_request(0, arrival_tick=3))
        queue.push(make_request(1, arrival_tick=5))
        assert queue.oldest_wait(("m", 4), now=9) == 6
        queue.discard(0)
        assert queue.oldest_wait(("m", 4), now=9) == 4

    def test_take_respects_priority_then_arrival(self, queue):
        queue.push(make_request(0, priority=0, arrival_tick=0))
        queue.push(make_request(1, priority=2, arrival_tick=1))
        queue.push(make_request(2, priority=1, arrival_tick=1))
        queue.push(make_request(3, priority=2, arrival_tick=2))
        batch = queue.take(("m", 4), max_batch=3)
        assert [r.request_id for r in batch] == [1, 3, 2]
        assert [r.request_id for r in queue.take(("m", 4), 10)] == [0]

    def test_victim_is_lowest_priority_oldest(self, queue):
        assert queue.victim() is None
        queue.push(make_request(0, priority=1, arrival_tick=0))
        queue.push(make_request(1, priority=0, arrival_tick=2))
        queue.push(make_request(2, priority=0, arrival_tick=1))
        victim = queue.victim()
        assert victim.request_id == 2  # lowest priority, then oldest
        assert len(queue) == 3  # victim() must not remove

    def test_tombstone_churn_stays_consistent(self, queue):
        """Interleaved push/discard/take cycles never corrupt the counters."""
        next_id = 0
        for _ in range(6):
            ids = []
            for _ in range(5):
                queue.push(make_request(next_id, arrival_tick=next_id))
                ids.append(next_id)
                next_id += 1
            queue.discard(ids[0])
            queue.discard(ids[3])
            batch = queue.take(("m", 4), max_batch=2)
            assert [r.request_id for r in batch] == [ids[1], ids[2]]
            assert queue.group_pending(("m", 4)) == len(queue)
            leftover = queue.take(("m", 4), max_batch=10)
            assert [r.request_id for r in leftover] == [ids[4]]
            assert len(queue) == 0

    def test_take_from_empty_group(self, queue):
        assert queue.take(("missing", 4), max_batch=4) == []


class TestSharedTieBreaks:
    def test_order_functions_are_shared(self):
        a = make_request(0, priority=1, arrival_tick=5)
        b = make_request(1, priority=0, arrival_tick=2)
        assert batch_order(a) < batch_order(b)
        assert victim_order(b) < victim_order(a)


class TestDualDriveEquivalence:
    """Replaying one random op sequence through both queues matches exactly."""

    @pytest.mark.parametrize("case", range(20))
    def test_randomized_sequences_bit_identical(self, case):
        rng = derive_rng("queue-conformance", case)
        flat, indexed = FlatRequestQueue(), IndexedRequestQueue()
        names = ["a", "b"]
        next_id = 0
        for step in range(60):
            op = rng.integers(0, 5)
            if op <= 1:  # push (weighted: keeps queues populated)
                request_args = dict(
                    name=names[int(rng.integers(0, len(names)))],
                    input_bits=int(rng.choice([2, 4])),
                    priority=int(rng.integers(0, 3)),
                    deadline=(
                        int(step + rng.integers(1, 6))
                        if rng.integers(0, 2) else None
                    ),
                    arrival_tick=step,
                )
                flat.push(make_request(next_id, **request_args))
                indexed.push(make_request(next_id, **request_args))
                next_id += 1
            elif op == 2 and next_id:  # discard a (maybe absent) id
                victim_id = int(rng.integers(0, next_id))
                removed_flat = flat.discard(victim_id)
                removed_indexed = indexed.discard(victim_id)
                assert (removed_flat is None) == (removed_indexed is None)
            elif op == 3:  # expire
                expired_flat = flat.pop_expired(step)
                expired_indexed = indexed.pop_expired(step)
                assert [r.request_id for r in expired_flat] \
                    == [r.request_id for r in expired_indexed]
            else:  # readiness + dispatch
                ready_flat = flat.ready_groups(step, 4, 3)
                ready_indexed = indexed.ready_groups(step, 4, 3)
                assert ready_flat == ready_indexed
                for key in ready_flat:
                    taken_flat = flat.take(key, 4)
                    taken_indexed = indexed.take(key, 4)
                    assert [r.request_id for r in taken_flat] \
                        == [r.request_id for r in taken_indexed]
            assert len(flat) == len(indexed)
            victim_flat, victim_indexed = flat.victim(), indexed.victim()
            assert (victim_flat.request_id if victim_flat else None) \
                == (victim_indexed.request_id if victim_indexed else None)
