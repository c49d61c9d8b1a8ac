"""The request queue behind the :class:`~repro.runtime.server.PumServer`.

A flat list of pending requests makes the tick loop ``O(queue^2)`` even when
no work is ready: every tick re-scans all queued requests to find compatible
groups, re-scans them to find each group's oldest member, and removes
dispatched requests one ``O(queue)`` ``list.remove`` at a time.
:class:`IndexedRequestQueue` keeps one arrival-ordered deque of request ids
per ``(name, input_bits)`` group, a live count per group, and a lazy min-heap
of absolute deadlines instead.  ``ready_groups`` touches only the group
index (O(groups), not O(queue)), deadline shedding pops only expired heap
entries, and ``take`` removes a batch without ever scanning requests that
are not part of it -- the tick loop is O(ready work).

Scheduling ties resolve through two total orders (batch order
``(-priority, arrival_tick, request_id)``, victim order ``(priority,
arrival_tick, request_id)``).  The flat list survives in
``tests/flat_queue.py`` as the differential oracle: the test suite replays
identical operation sequences and whole serving schedules through both and
requires bit-identical batches in bit-identical order.  (A
:class:`~repro.runtime.scheduling.SchedulingPolicy` may hand ``victim`` an
*explicit* order -- cost-priced shedding -- but the default stays the total
order above.)  The ``scans`` counter records every pass whose cost is
proportional to the *whole* queue rather than to the work returned, which is
how tests prove the tick loop stays flat in queue depth.

Cost-aware scheduling additionally needs a *group-level* deadline view:
``group_keys()`` enumerates the live groups and ``min_deadline(key)``
returns the tightest absolute deadline among a group's members, both
without scanning requests (per-group lazy deadline heaps, maintained
alongside the global shedding heap).

>>> import numpy as np
>>> from repro.runtime.queueing import IndexedRequestQueue
>>> from repro.runtime.server import Request
>>> queue = IndexedRequestQueue()
>>> for i in range(3):
...     queue.push(Request(request_id=i, name="m",
...                        vector=np.zeros(2, dtype=np.int64), input_bits=2,
...                        priority=i, deadline=None, arrival_tick=0))
>>> queue.ready_groups(now=1, max_batch=2, max_wait_ticks=4)
[('m', 2)]
>>> [r.request_id for r in queue.take(("m", 2), max_batch=2)]
[2, 1]
>>> len(queue), queue.scans
(1, 0)
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import Request

__all__ = ["IndexedRequestQueue"]

#: A compatible-request group: requests against one matrix at one precision.
GroupKey = Tuple[str, int]


def batch_order(request: "Request") -> Tuple[int, int, int]:
    """Dispatch order within a group: higher priority first, then arrival."""
    return (-request.priority, request.arrival_tick, request.request_id)


def victim_order(request: "Request") -> Tuple[int, int, int]:
    """Admission-shedding order: lowest priority first, then oldest."""
    return (request.priority, request.arrival_tick, request.request_id)


class IndexedRequestQueue:
    """Per-group deques plus a deadline heap: the scheduler's pending store.

    Requests live in ``_requests`` (id -> request); each group keeps an
    arrival-ordered deque of ids and an exact live count.  Removal from the
    middle of a group (deadline shed, admission victim) just drops the id
    from ``_requests`` -- the deque entry becomes a tombstone skipped (and
    compacted) the next time the group's front is inspected, so no operation
    ever scans requests outside the group it is working on.  The deadline
    heap is likewise lazy: entries whose request already resolved are
    discarded as they surface.

    All mutating calls happen under the server's lock; the queue needs no
    synchronisation of its own.
    """

    def __init__(self) -> None:
        #: Full-queue scans performed so far (O(pending) passes).
        self.scans = 0
        self._requests: Dict[int, "Request"] = {}
        self._groups: Dict[GroupKey, Deque[int]] = {}
        self._live: Dict[GroupKey, int] = {}
        #: Live-request count per distinct priority within each group.  A
        #: group whose members all share one priority (the overwhelmingly
        #: common case -- bulk ingress submits whole waves at one priority)
        #: dispatches straight off the front of its deque in O(batch);
        #: only genuinely mixed-priority groups pay a sort.
        self._priorities: Dict[GroupKey, Dict[int, int]] = {}
        self._deadlines: List[Tuple[int, int]] = []
        #: Per-group lazy min-heaps of ``(deadline, request_id)``.  Ids are
        #: never reused and deadlines never change, so dead entries can be
        #: skipped lazily exactly like the global shedding heap's.
        self._group_deadlines: Dict[GroupKey, List[Tuple[int, int]]] = {}

    def __len__(self) -> int:
        """Live queued requests."""
        return len(self._requests)

    def push(self, request: "Request") -> None:
        """Admit one request (called in arrival order, ids monotonic)."""
        key = (request.name, request.input_bits)
        self._requests[request.request_id] = request
        self._groups.setdefault(key, deque()).append(request.request_id)
        self._live[key] = self._live.get(key, 0) + 1
        counts = self._priorities.setdefault(key, {})
        counts[request.priority] = counts.get(request.priority, 0) + 1
        if request.deadline is not None:
            entry = (request.deadline, request.request_id)
            heapq.heappush(self._deadlines, entry)
            heapq.heappush(self._group_deadlines.setdefault(key, []), entry)

    def push_wave(self, requests: List["Request"]) -> None:
        """Admit a homogeneous wave in one bookkeeping pass.

        Every request must share the same ``(name, input_bits)`` group,
        priority, and deadline (the :meth:`PumServer.submit_batch`
        contract); ids are in arrival order.
        """
        if not requests:
            return
        first = requests[0]
        key = (first.name, first.input_bits)
        count = len(requests)
        self._requests.update((r.request_id, r) for r in requests)
        self._groups.setdefault(key, deque()).extend(
            r.request_id for r in requests
        )
        self._live[key] = self._live.get(key, 0) + count
        counts = self._priorities.setdefault(key, {})
        counts[first.priority] = counts.get(first.priority, 0) + count
        if first.deadline is not None:
            group_heap = self._group_deadlines.setdefault(key, [])
            for request in requests:
                entry = (request.deadline, request.request_id)
                heapq.heappush(self._deadlines, entry)
                heapq.heappush(group_heap, entry)

    def _forget(self, key: GroupKey, request: "Request") -> None:
        """Update the group counters for one removed request."""
        live = self._live.get(key, 0) - 1
        counts = self._priorities.get(key)
        if counts is not None:
            remaining = counts.get(request.priority, 0) - 1
            if remaining > 0:
                counts[request.priority] = remaining
            else:
                counts.pop(request.priority, None)
        if live > 0:
            self._live[key] = live
        else:
            # Group is all tombstones now; drop the index entries (the
            # deque may still hold dead ids, which is fine -- a future
            # push recreates the group from scratch).
            self._live.pop(key, None)
            self._groups.pop(key, None)
            self._priorities.pop(key, None)
            self._group_deadlines.pop(key, None)

    def discard(self, request_id: int) -> Optional["Request"]:
        """Remove one queued request by id; returns it, or None if absent."""
        request = self._requests.pop(request_id, None)
        if request is not None:
            self._forget((request.name, request.input_bits), request)
        return request

    def pop_expired(self, now: int) -> List["Request"]:
        """Remove and return every request whose deadline passed, id order."""
        expired: List["Request"] = []
        while self._deadlines and self._deadlines[0][0] < now:
            _, request_id = heapq.heappop(self._deadlines)
            request = self.discard(request_id)
            if request is not None:
                expired.append(request)
        # Submission (= id) order, not heap (= deadline) order.
        expired.sort(key=lambda r: r.request_id)
        return expired

    def _front(self, key: GroupKey) -> Optional["Request"]:
        """Oldest live request of ``key``, compacting front tombstones."""
        ids = self._groups.get(key)
        if not ids:
            return None
        while ids:
            request = self._requests.get(ids[0])
            if request is not None:
                return request
            ids.popleft()
        return None

    def ready_groups(
        self, now: int, max_batch: int, max_wait_ticks: int
    ) -> List[GroupKey]:
        """Groups due for dispatch (full batch or aged), oldest-arrival first."""
        ready: List[Tuple[int, GroupKey]] = []
        for key in list(self._groups):
            pending = self._live.get(key, 0)
            front = self._front(key)
            if not pending or front is None:
                self._live.pop(key, None)
                self._groups.pop(key, None)
                self._priorities.pop(key, None)
                self._group_deadlines.pop(key, None)
                continue
            if pending >= max_batch or now - front.arrival_tick >= max_wait_ticks:
                ready.append((front.arrival_tick, key))
        ready.sort()
        return [key for _, key in ready]

    def group_pending(self, key: GroupKey) -> int:
        """Live requests queued under ``key``."""
        return self._live.get(key, 0)

    def oldest_wait(self, key: GroupKey, now: int) -> int:
        """Ticks the oldest live request of ``key`` has waited (-1 if empty)."""
        front = self._front(key)
        if front is None:
            return -1
        return now - front.arrival_tick

    def group_keys(self) -> List[GroupKey]:
        """Every group with at least one live request (stable order)."""
        # The live-count index is maintained exactly, so this is O(groups)
        # and never increments ``scans``.
        return [key for key, live in self._live.items() if live > 0]

    def min_deadline(self, key: GroupKey) -> Optional[int]:
        """Tightest absolute deadline among ``key``'s live requests.

        ``None`` when the group is empty or none of its members carry a
        deadline.
        """
        heap = self._group_deadlines.get(key)
        if not heap:
            return None
        requests = self._requests
        while heap:
            deadline, request_id = heap[0]
            if request_id in requests:
                return deadline
            heapq.heappop(heap)
        self._group_deadlines.pop(key, None)
        return None

    def take(self, key: GroupKey, max_batch: int) -> List["Request"]:
        """Remove and return up to ``max_batch`` requests of ``key`` in
        dispatch order (:func:`batch_order`)."""
        ids = self._groups.get(key)
        if not ids:
            return []
        counts = self._priorities.get(key, {})
        if len(counts) <= 1:
            # Uniform priority: dispatch order (-priority, arrival, id)
            # degenerates to arrival order, which *is* the deque order --
            # pop straight off the front, skipping tombstones.  O(batch),
            # with the group counters adjusted once for the whole batch.
            chosen: List["Request"] = []
            requests = self._requests
            while ids and len(chosen) < max_batch:
                request = requests.pop(ids.popleft(), None)
                if request is not None:
                    chosen.append(request)
            taken = len(chosen)
            if taken:
                live = self._live.get(key, 0) - taken
                if live > 0:
                    self._live[key] = live
                    priority = chosen[0].priority
                    counts[priority] = counts.get(priority, 0) - taken
                else:
                    self._live.pop(key, None)
                    self._groups.pop(key, None)
                    self._priorities.pop(key, None)
                    self._group_deadlines.pop(key, None)
            return chosen
        # Mixed priorities: fall back to the dispatch sort over the
        # group's live members (still touches only this group).
        arrivals = [r for r in (self._requests.get(i) for i in ids) if r is not None]
        chosen = sorted(arrivals, key=batch_order)[:max_batch]
        for request in chosen:
            del self._requests[request.request_id]
            self._forget(key, request)
        chosen_ids = {request.request_id for request in chosen}
        if self._live.get(key):
            self._groups[key] = deque(
                r.request_id for r in arrivals if r.request_id not in chosen_ids
            )
        return chosen

    def victim(self, order=None) -> Optional["Request"]:
        """The queued request first in victim order (not removed).

        ``order`` defaults to the :func:`victim_order` total order; a
        scheduling policy may supply its own key function (cost-priced
        shedding) without the queue knowing anything about costs.
        """
        if not self._requests:
            return None
        # Admission control only engages when the queue is at capacity, so
        # this O(pending) pass is bounded by queue_capacity and never runs
        # in the tick loop; it is still an honest full-queue scan.
        self.scans += 1
        return min(self._requests.values(), key=order or victim_order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedRequestQueue(pending={len(self)}, scans={self.scans})"
