"""The flat-list request queue: differential oracle for IndexedRequestQueue.

The scheduler's original pending-request store -- one list, every operation
a scan of it -- kept here because it is obviously right where
:class:`repro.runtime.queueing.IndexedRequestQueue` is fast: groups are
recomputed from scratch, ties are resolved by sorting with the same
``batch_order`` / ``victim_order`` keys, and nothing is cached, so there is
no index to fall out of step.  ``tests/test_queueing.py`` replays identical
operation sequences through both; ``tests/test_server.py`` and
``tests/test_invariants.py`` run whole serving schedules on a server whose
queue is this one.  Install it by assigning ``server.request_queue`` before
the first submit (:func:`install`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.runtime.queueing import GroupKey, batch_order, victim_order
from repro.runtime.server import PumServer, Request


class FlatRequestQueue:
    """Same method surface as ``IndexedRequestQueue``, O(queue) everywhere."""

    def __init__(self) -> None:
        self._queue: List[Request] = []

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, request: Request) -> None:
        self._queue.append(request)

    def push_wave(self, requests: List[Request]) -> None:
        self._queue.extend(requests)

    def discard(self, request_id: int) -> Optional[Request]:
        for request in self._queue:
            if request.request_id == request_id:
                self._queue.remove(request)
                return request
        return None

    def pop_expired(self, now: int) -> List[Request]:
        expired = [
            r for r in self._queue if r.deadline is not None and r.deadline < now
        ]
        for request in expired:
            self._queue.remove(request)
        return expired

    def ready_groups(
        self, now: int, max_batch: int, max_wait_ticks: int
    ) -> List[GroupKey]:
        groups: Dict[GroupKey, List[Request]] = {}
        for request in self._queue:
            groups.setdefault((request.name, request.input_bits), []).append(request)
        ready: List[Tuple[int, GroupKey]] = []
        for key, members in groups.items():
            oldest = min(r.arrival_tick for r in members)
            if len(members) >= max_batch or now - oldest >= max_wait_ticks:
                ready.append((oldest, key))
        return [key for _, key in sorted(ready)]

    def _members(self, key: GroupKey) -> List[Request]:
        return [r for r in self._queue if (r.name, r.input_bits) == key]

    def group_pending(self, key: GroupKey) -> int:
        return len(self._members(key))

    def oldest_wait(self, key: GroupKey, now: int) -> int:
        members = self._members(key)
        if not members:
            return -1
        return now - min(r.arrival_tick for r in members)

    def group_keys(self) -> List[GroupKey]:
        seen: Dict[GroupKey, None] = {}
        for request in self._queue:
            seen.setdefault((request.name, request.input_bits), None)
        return list(seen)

    def min_deadline(self, key: GroupKey) -> Optional[int]:
        deadlines = [
            r.deadline for r in self._members(key) if r.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def take(self, key: GroupKey, max_batch: int) -> List[Request]:
        members = self._members(key)
        members.sort(key=batch_order)
        batch = members[:max_batch]
        for request in batch:
            self._queue.remove(request)
        return batch

    def victim(self, order=None) -> Optional[Request]:
        if not self._queue:
            return None
        return min(self._queue, key=order or victim_order)


def install(server: PumServer) -> PumServer:
    """Swap ``server``'s (still empty) queue for the flat oracle."""
    assert len(server.request_queue) == 0
    server.request_queue = FlatRequestQueue()
    return server
