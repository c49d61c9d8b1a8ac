"""The flat-list request queue: differential oracle for IndexedRequestQueue.

The scheduler's original pending-request store -- one list, every operation
a scan of it -- kept here because it is obviously right where
:class:`repro.runtime.queueing.IndexedRequestQueue` is fast: it knows
nothing of runs.  ``push`` explodes a wave into one :class:`Request` view
per row, groups are recomputed from scratch, ties are resolved by sorting
rows with the same ``batch_order`` / ``victim_order`` keys, and nothing is
cached, so there is no index to fall out of step.  It speaks the queue
surface the server drives -- runs ``(wave, start, stop)`` in, runs out --
by answering with one-row runs; the server merges neighbouring rows of one
wave before it assembles a batch, so the two queues are observably
identical down to the copy counters.  ``tests/test_queueing.py`` replays
identical operation sequences through both; ``tests/test_server.py`` and
``tests/test_invariants.py`` run whole serving schedules on a server whose
queue is this one.  Install it by assigning ``server.request_queue`` before
the first submit (:func:`install`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.runtime.queueing import (
    GroupKey,
    Request,
    Run,
    Wave,
    batch_order,
    victim_order,
)
from repro.runtime.server import PumServer

#: One queued row: its view and the wave it is a row of.
Entry = Tuple[Request, Wave]


def one_row_run(entry: Entry) -> Run:
    request, wave = entry
    row = request.request_id - wave.base_id
    return (wave, row, row + 1)


class FlatRequestQueue:
    """Same method surface as ``IndexedRequestQueue``, O(queue) everywhere."""

    def __init__(self) -> None:
        self._queue: List[Entry] = []

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, wave: Wave, start: int, stop: int) -> None:
        self._queue.extend((wave.request(row), wave) for row in range(start, stop))

    def _remove(self, entries: List[Entry]) -> List[Run]:
        for entry in entries:
            self._queue.remove(entry)
        return [one_row_run(entry) for entry in entries]

    def discard(self, request_id: int) -> Optional[Run]:
        found = [e for e in self._queue if e[0].request_id == request_id]
        return self._remove(found)[0] if found else None

    def pop_expired(self, now: int) -> List[Run]:
        return self._remove([
            e for e in self._queue
            if e[0].deadline is not None and e[0].deadline < now
        ])

    def ready_groups(
        self, now: int, max_batch: int, max_wait_ticks: int
    ) -> List[GroupKey]:
        groups: Dict[GroupKey, List[Request]] = {}
        for request, _ in self._queue:
            groups.setdefault((request.name, request.input_bits), []).append(request)
        ready: List[Tuple[int, GroupKey]] = []
        for key, members in groups.items():
            oldest = min(r.arrival_tick for r in members)
            if len(members) >= max_batch or now - oldest >= max_wait_ticks:
                ready.append((oldest, key))
        return [key for _, key in sorted(ready)]

    def _members(self, key: GroupKey) -> List[Entry]:
        return [e for e in self._queue if (e[0].name, e[0].input_bits) == key]

    def group_pending(self, key: GroupKey) -> int:
        return len(self._members(key))

    def oldest_wait(self, key: GroupKey, now: int) -> int:
        members = self._members(key)
        if not members:
            return -1
        return now - min(request.arrival_tick for request, _ in members)

    def group_keys(self) -> List[GroupKey]:
        seen: Dict[GroupKey, None] = {}
        for request, _ in self._queue:
            seen.setdefault((request.name, request.input_bits), None)
        return list(seen)

    def min_deadline(self, key: GroupKey) -> Optional[int]:
        deadlines = [
            request.deadline for request, _ in self._members(key)
            if request.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def take(self, key: GroupKey, max_batch: int) -> List[Run]:
        members = self._members(key)
        members.sort(key=lambda entry: batch_order(entry[0]))
        return self._remove(members[:max_batch])

    def victim(self, order=None) -> Optional[Request]:
        if not self._queue:
            return None
        return min((request for request, _ in self._queue),
                   key=order or victim_order)


def install(server: PumServer) -> PumServer:
    """Swap ``server``'s (still empty) queue for the flat oracle."""
    assert len(server.request_queue) == 0
    server.request_queue = FlatRequestQueue()
    return server
