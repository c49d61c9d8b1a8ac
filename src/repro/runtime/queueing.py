"""The request queue behind the :class:`~repro.runtime.server.PumServer`.

The server admits work a *wave* at a time -- one ``submit_batch`` array, or
one ``submit`` vector as a wave of one -- and the rows of a wave share
everything but their index: matrix, precision, priority, deadline, arrival
tick.  So the queue does not hold requests.  It holds one :class:`Wave`
record per admission and, per ``(name, input_bits)`` group, an
arrival-ordered deque of *runs* ``(wave, start, stop)``: the rows of that
wave still waiting.  ``take`` slices runs off the front of a group, a
mid-wave removal (admission victim) splits one, a partial admission pushes a
shorter one, and a wave's deadline is one heap entry however many rows it
has.  A :class:`Request` is the per-row *view* of a wave, materialised only
where something needs to look at a single row: the admission-victim scan
(and the policy's ``victim_order`` key it feeds) and the flat-list oracle.

``ready_groups`` touches only the group index (O(groups), not O(queue)),
deadline shedding pops only expired heap entries, and ``take`` never looks
at a run it does not return -- the tick loop is O(ready work).

Scheduling ties resolve through two total orders (batch order
``(-priority, arrival_tick, request_id)``, victim order ``(priority,
arrival_tick, request_id)``).  Rows of one run are adjacent in both, in row
order, so ordering runs by their first row orders the rows.  The flat list
survives in ``tests/flat_queue.py`` as the differential oracle: it explodes
every wave into rows and answers ``take`` with one-row runs, and the test
suite replays identical operation sequences and whole serving schedules
through both, requiring the same row ids in the same order.  (A
:class:`~repro.runtime.scheduling.SchedulingPolicy` may hand ``victim`` an
*explicit* order -- cost-priced shedding -- but the default stays the total
order above.)  The ``scans`` counter records every pass whose cost is
proportional to the *whole* queue rather than to the work returned, which is
how tests prove the tick loop stays flat in queue depth.

Cost-aware scheduling additionally needs a *group-level* deadline view:
``group_keys()`` enumerates the live groups and ``min_deadline(key)``
returns the tightest absolute deadline among a group's queued rows, both
without scanning (per-group lazy heaps with one entry per wave, maintained
alongside the global shedding heap).

>>> import numpy as np
>>> from repro.runtime.queueing import IndexedRequestQueue, Wave
>>> queue = IndexedRequestQueue()
>>> rows = np.zeros((5, 2), dtype=np.int64)
>>> queue.push(Wave(0, "m", 2, 0, None, 0, rows, [None] * 5, True), 0, 5)
>>> queue.ready_groups(now=1, max_batch=2, max_wait_ticks=4)
[('m', 2)]
>>> [(start, stop) for _, start, stop in queue.take(("m", 2), max_batch=2)]
[(0, 2)]
>>> len(queue), queue.scans
(3, 0)
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["IndexedRequestQueue", "Request", "Wave"]

#: A compatible-request group: requests against one matrix at one precision.
GroupKey = Tuple[str, int]


@dataclass(eq=False, slots=True)
class Request:
    """One single-vector MVM request: the per-row view of a :class:`Wave`.

    The scheduler does not keep one of these per queued vector; it keeps the
    wave.  :meth:`Wave.request` builds the view for the few places that look
    at a single row -- admission-victim selection, a policy's
    ``victim_order`` key, the flat-list oracle, a test.  ``vector`` is a view
    of the wave's source array, not a copy.
    """

    request_id: int
    name: str
    vector: np.ndarray
    input_bits: int
    priority: int
    deadline: Optional[int]
    arrival_tick: int


@dataclass(eq=False, slots=True)
class Wave:
    """One admission: ``len(source)`` requests that differ only by row.

    Row ``r`` is request ``base_id + r``, its vector ``source[r]`` and its
    future ``futures[r]``.  ``source`` is the one contiguous int64 array the
    front door produced (the caller's own when it already was one), so a run
    of rows dispatches as the slice ``source[start:stop]``.  The wave lives
    as long as the queue holds a run of it; what outlives it is ``futures``,
    which does not point back here.
    """

    base_id: int
    name: str
    input_bits: int
    priority: int
    deadline: Optional[int]
    arrival_tick: int
    source: np.ndarray
    #: The wave's :class:`~repro.runtime.server.WaveFutures`: the sequence
    #: ``submit_batch`` returned, on which the scheduler records the outcome
    #: of each run of rows (``futures.resolve(start, stop, ...)``).  A row's
    #: ``ServerFuture`` is built when that sequence is indexed, not kept here.
    futures: Sequence
    #: Admitted by ``submit_batch``: a run of it dispatches as a slice of the
    #: caller's array (``zero_copy_batches``).  A ``submit`` vector is copied
    #: into the batch arena like any other gathered row.
    bulk: bool

    def request(self, row: int) -> Request:
        """The per-row view of row ``row``."""
        return Request(self.base_id + row, self.name, self.source[row],
                       self.input_bits, self.priority, self.deadline,
                       self.arrival_tick)


#: Rows ``start:stop`` of one wave.
Run = Tuple[Wave, int, int]


def batch_order(request: Request) -> Tuple[int, int, int]:
    """Dispatch order within a group: higher priority first, then arrival."""
    return (-request.priority, request.arrival_tick, request.request_id)


def victim_order(request: Request) -> Tuple[int, int, int]:
    """Admission-shedding order: lowest priority first, then oldest."""
    return (request.priority, request.arrival_tick, request.request_id)


def run_batch_order(run: Run) -> Tuple[int, int, int]:
    """:func:`batch_order` of a run's first row, which orders the whole run."""
    wave, start, _ = run
    return (-wave.priority, wave.arrival_tick, wave.base_id + start)


def first_id(run: Run) -> int:
    """Request id of a run's first row (runs never overlap: arrival order)."""
    return run[0].base_id + run[1]


class IndexedRequestQueue:
    """Per-group deques of runs plus a deadline heap of waves.

    Every group in ``_groups`` holds at least one run, oldest first, and
    ``_live`` its exact row count.  Removing rows from the middle of a group
    (admission victim) splits the run they sat in, so there is nothing dead
    to skip later and no operation scans rows outside the group it works on.
    The deadline heaps hold one ``(deadline, base_id)`` entry per wave and
    are lazy: an entry whose wave has no queued rows left
    (``_deadline_rows``) is discarded as it surfaces.

    All mutating calls happen under the server's lock; the queue needs no
    synchronisation of its own.
    """

    def __init__(self) -> None:
        #: Full-queue scans performed so far (O(pending) passes).
        self.scans = 0
        self._size = 0
        self._groups: Dict[GroupKey, Deque[Run]] = {}
        self._live: Dict[GroupKey, int] = {}
        #: Queued rows per distinct priority within each group.  A group
        #: whose rows all share one priority (the overwhelmingly common case
        #: -- bulk ingress submits whole waves at one priority) dispatches
        #: straight off the front of its deque; only genuinely
        #: mixed-priority groups pay a sort.
        self._priorities: Dict[GroupKey, Dict[int, int]] = {}
        #: ``(deadline, base_id, group)``, one per deadline-carrying wave
        #: (ids and keys only: a stale entry must not keep a wave alive).
        self._deadlines: List[Tuple[int, int, GroupKey]] = []
        self._group_deadlines: Dict[GroupKey, List[Tuple[int, int]]] = {}
        #: Queued rows of each deadline-carrying wave, by ``base_id``.
        self._deadline_rows: Dict[int, int] = {}

    def __len__(self) -> int:
        """Queued rows."""
        return self._size

    def push(self, wave: Wave, start: int, stop: int) -> None:
        """Admit rows ``start:stop`` of ``wave`` (called in arrival order)."""
        count = stop - start
        key = (wave.name, wave.input_bits)
        self._groups.setdefault(key, deque()).append((wave, start, stop))
        self._size += count
        self._live[key] = self._live.get(key, 0) + count
        counts = self._priorities.setdefault(key, {})
        counts[wave.priority] = counts.get(wave.priority, 0) + count
        if wave.deadline is not None:
            queued = self._deadline_rows.get(wave.base_id, 0)
            if not queued:
                entry = (wave.deadline, wave.base_id)
                heapq.heappush(self._deadlines, entry + (key,))
                heapq.heappush(self._group_deadlines.setdefault(key, []), entry)
            self._deadline_rows[wave.base_id] = queued + count

    def _forget(self, key: GroupKey, gone: List[Run]) -> None:
        """Update the counters for runs already unlinked from ``key``."""
        counts = self._priorities[key]
        total = 0
        for wave, start, stop in gone:
            count = stop - start
            total += count
            remaining = counts[wave.priority] - count
            if remaining:
                counts[wave.priority] = remaining
            else:
                del counts[wave.priority]
            if wave.deadline is not None:
                queued = self._deadline_rows[wave.base_id] - count
                if queued:
                    self._deadline_rows[wave.base_id] = queued
                else:
                    del self._deadline_rows[wave.base_id]
        self._size -= total
        live = self._live[key] - total
        if live:
            self._live[key] = live
        else:
            del self._live[key], self._groups[key], self._priorities[key]
            self._group_deadlines.pop(key, None)

    def discard(self, request_id: int) -> Optional[Run]:
        """Remove one queued row by request id; returns it as a one-row run
        (``None`` if absent).  Walks the runs, not the rows."""
        for key, runs in self._groups.items():
            for index, (wave, start, stop) in enumerate(runs):
                row = request_id - wave.base_id
                if start <= row < stop:
                    del runs[index]
                    if row + 1 < stop:
                        runs.insert(index, (wave, row + 1, stop))
                    if start < row:
                        runs.insert(index, (wave, start, row))
                    gone = (wave, row, row + 1)
                    self._forget(key, [gone])
                    return gone
        return None

    def pop_expired(self, now: int) -> List[Run]:
        """Remove and return every run whose deadline passed, id order."""
        doomed: Dict[GroupKey, set] = {}
        while self._deadlines and self._deadlines[0][0] < now:
            _, base_id, key = heapq.heappop(self._deadlines)
            if base_id in self._deadline_rows:
                doomed.setdefault(key, set()).add(base_id)
        expired: List[Run] = []
        # One pass over each group that lost a wave, however many it lost.
        for key, base_ids in doomed.items():
            runs = self._groups[key]
            gone = [run for run in runs if run[0].base_id in base_ids]
            self._groups[key] = deque(
                run for run in runs if run[0].base_id not in base_ids
            )
            self._forget(key, gone)
            expired += gone
        # Submission (= id) order, not heap (= deadline) order.
        expired.sort(key=first_id)
        return expired

    def ready_groups(
        self, now: int, max_batch: int, max_wait_ticks: int
    ) -> List[GroupKey]:
        """Groups due for dispatch (full batch or aged), oldest-arrival first."""
        ready: List[Tuple[int, GroupKey]] = []
        for key, runs in self._groups.items():
            arrival = runs[0][0].arrival_tick
            if self._live[key] >= max_batch or now - arrival >= max_wait_ticks:
                ready.append((arrival, key))
        ready.sort()
        return [key for _, key in ready]

    def group_pending(self, key: GroupKey) -> int:
        """Rows queued under ``key``."""
        return self._live.get(key, 0)

    def oldest_wait(self, key: GroupKey, now: int) -> int:
        """Ticks the oldest queued row of ``key`` has waited (-1 if empty)."""
        runs = self._groups.get(key)
        if not runs:
            return -1
        return now - runs[0][0].arrival_tick

    def group_keys(self) -> List[GroupKey]:
        """Every group with at least one queued row (stable order)."""
        return list(self._groups)

    def min_deadline(self, key: GroupKey) -> Optional[int]:
        """Tightest absolute deadline among ``key``'s queued rows.

        ``None`` when the group is empty or none of its rows carry a
        deadline.
        """
        heap = self._group_deadlines.get(key)
        while heap:
            deadline, base_id = heap[0]
            if base_id in self._deadline_rows:
                return deadline
            heapq.heappop(heap)
        return None

    def take(self, key: GroupKey, max_batch: int) -> List[Run]:
        """Remove and return up to ``max_batch`` rows of ``key`` as runs in
        dispatch order (:func:`batch_order`), splitting the last if needed."""
        runs = self._groups.get(key)
        if not runs:
            return []
        # Uniform priority: dispatch order degenerates to arrival order,
        # which *is* the deque order.  Mixed: sort the group's runs (still
        # touches only this group) and put the rest back in arrival order.
        mixed = len(self._priorities[key]) > 1
        if mixed:
            runs = deque(sorted(runs, key=run_batch_order))
        chosen: List[Run] = []
        room = max_batch
        while runs and room:
            wave, start, stop = run = runs.popleft()
            if stop - start > room:
                runs.appendleft((wave, start + room, stop))
                run = (wave, start, start + room)
            chosen.append(run)
            room -= run[2] - start
        if mixed:
            self._groups[key] = deque(sorted(runs, key=first_id))
        self._forget(key, chosen)
        return chosen

    def victim(self, order=None) -> Optional[Request]:
        """The queued row first in victim order, as a view (not removed).

        ``order`` defaults to the :func:`victim_order` total order; a
        scheduling policy may supply its own key function (cost-priced
        shedding) without the queue knowing anything about costs.  Ties
        under such a key go to the lowest request id.
        """
        if not self._size:
            return None
        # Admission control only engages when the queue is at capacity, so
        # this O(pending) pass is bounded by queue_capacity and never runs
        # in the tick loop; it is still an honest full-queue scan.
        self.scans += 1
        runs = sorted(
            (run for runs in self._groups.values() for run in runs), key=first_id
        )
        return min(
            (wave.request(row) for wave, start, stop in runs
             for row in range(start, stop)),
            key=order or victim_order,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedRequestQueue(pending={len(self)}, scans={self.scans})"
