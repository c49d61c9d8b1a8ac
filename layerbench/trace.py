"""Benchmark-owned tracing: spans recorded by shims round public methods.

A span is ``(name, start, end, parent, wave)``.  Spans are written into
lists allocated before the traced phase starts, and dumped to
``layerbench/results/trace_<workload>.json`` when the workload ends.  A
layer's self time is its spans' duration minus the part of each interval
its child spans cover (the union: the pool fans shards out to threads, so
children of one parent may overlap, and then share the wall clock they
cover in proportion to their durations).
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Spans kept per traced phase; later ones are counted in ``dropped``.
CAPACITY = 1 << 18
#: Spans written to the trace file (the summary always covers all of them).
FILE_SPANS = 50_000


class Recorder:
    """Preallocated span store with a per-thread open-span stack."""

    def __init__(self, capacity: int = CAPACITY) -> None:
        self.capacity = capacity
        self.name = [0] * capacity
        self.start = [0.0] * capacity
        self.end = [0.0] * capacity
        self.parent = [-1] * capacity
        self.wave = [-1] * capacity
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._next = itertools.count()
        self._local = threading.local()
        #: Parent given to a span opened on a thread with no open span: the
        #: pool shim points it at its own span while it fans out to threads.
        self.fanout = -1
        #: Wave id stamped on every span; the load generator sets it.
        self.current_wave = -1
        self.dropped = 0
        self.count = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name_id: int) -> int:
        index = next(self._next)
        if index >= self.capacity:
            self.dropped += 1
            return -1
        stack = self._stack()
        self.name[index] = name_id
        self.parent[index] = stack[-1] if stack else self.fanout
        self.wave[index] = self.current_wave
        stack.append(index)
        self.start[index] = time.perf_counter()
        return index

    def finish(self, index: int) -> None:
        now = time.perf_counter()
        if index >= 0:
            self.end[index] = now
            self._stack().pop()

    def close(self) -> int:
        """Stop recording; returns (and remembers) the number of spans kept."""
        self.count = min(self.capacity, next(self._next))
        return self.count


class Shims:
    """Installs and removes span-recording wrappers."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, name: str, inner: Callable, fanout: bool) -> Callable:
        rec = self.recorder
        name_id = rec.name_id(name)
        if inspect.iscoroutinefunction(inner):
            async def async_shim(*args: Any, **kwargs: Any) -> Any:
                index = rec.begin(name_id)
                try:
                    return await inner(*args, **kwargs)
                finally:
                    rec.finish(index)
            return async_shim
        if fanout:
            def fanout_shim(*args: Any, **kwargs: Any) -> Any:
                index = rec.begin(name_id)
                outer, rec.fanout = rec.fanout, index
                try:
                    return inner(*args, **kwargs)
                finally:
                    rec.fanout = outer
                    rec.finish(index)
            return fanout_shim

        def shim(*args: Any, **kwargs: Any) -> Any:
            index = rec.begin(name_id)
            try:
                return inner(*args, **kwargs)
            finally:
                rec.finish(index)
        return shim

    def on_instance(self, obj: Any, attr: str, name: str,
                    fanout: bool = False) -> None:
        """Shadow ``obj.attr`` (a bound method) with a recording wrapper."""
        setattr(obj, attr, self._wrap(name, getattr(obj, attr), fanout))
        self._undo.append(lambda: delattr(obj, attr))

    def on_namespace(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) in place."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, False))
        self._undo.append(lambda: setattr(owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(shims: Shims, layers: Dict[str, Any]) -> None:
    """Shim every instance a workload exposes (see ``Workload.layers``)."""
    for device in layers.get("devices", ()):
        shims.on_instance(device, "exec_mvm_batch", "session.exec")
        shims.on_instance(device, "set_matrix", "session.set_matrix")
        shims.on_instance(device, "release", "session.release")
        shims.on_instance(device, "compile", "plan.compile")
    pool = layers.get("pool")
    if pool is not None:
        shims.on_instance(pool, "exec_mvm_batch", "pool.exec", fanout=True)
        shims.on_instance(pool, "set_matrix", "pool.set_matrix")
        shims.on_instance(pool, "release", "pool.release")
        shims.on_instance(pool, "compile", "pool.compile")
    server = layers.get("server")
    if server is not None:
        shims.on_instance(server, "submit_batch", "server.submit")
        shims.on_instance(server, "tick", "server.tick")
        shims.on_instance(server, "register_matrix", "server.register")
    gateway = layers.get("gateway")
    if gateway is not None:
        from repro.runtime.cluster import gateway as gateway_module
        from repro.runtime.cluster.transport import ShmRing

        shims.on_instance(gateway, "submit_batch", "gateway.submit")
        shims.on_namespace(gateway_module, "encode_message", "messages.encode")
        shims.on_namespace(gateway_module, "decode_message", "messages.decode")
        for attr in ("push", "peek", "advance"):
            shims.on_namespace(ShmRing, attr, f"transport.{attr}")


class Tracer:
    """A recorder plus the shims of one workload, switched on and off.

    The traced pass alternates traced and untraced slices on the same
    objects, so the two rates it compares share the host's mood and the
    program's drift; the difference is the tracing overhead.
    """

    def __init__(self, layers: Dict[str, Any],
                 capacity: int = CAPACITY) -> None:
        self.rec = Recorder(capacity)
        self.layers = layers
        self.shims = Shims(self.rec)
        self.loadgen = self.rec.name_id("loadgen.step")
        self.on = False

    def switch(self, on: bool) -> None:
        if on == self.on:
            return
        self.on = on
        if on:
            install(self.shims, self.layers)
        else:
            self.shims.remove()


def analyse(rec: Recorder) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, busy seconds, self seconds and durations."""
    count = rec.count
    start = np.asarray(rec.start[:count])
    end = np.asarray(rec.end[:count])
    parent = np.asarray(rec.parent[:count], dtype=np.int64)
    name = np.asarray(rec.name[:count], dtype=np.int64)
    duration = np.maximum(end - start, 0.0)
    covered = np.zeros(count)
    child_sum = np.zeros(count)
    current, reach = -2, 0.0
    for index in np.lexsort((start, parent)):
        owner = parent[index]
        if owner < 0:
            continue
        child_sum[owner] += duration[index]
        if owner != current:
            current, reach = owner, start[index]
        if end[index] > reach:
            covered[owner] += end[index] - max(start[index], reach)
            reach = end[index]
    # Children that overlap (threads) share the wall clock they jointly
    # cover in proportion to their durations, all the way down, so the
    # self times of a tree sum to its root's duration.
    share = np.divide(covered, child_sum, out=np.ones(count),
                      where=child_sum > 0)
    weight = np.ones(count)
    for index in range(count):  # a parent's index is below its children's
        if parent[index] >= 0:
            weight[index] = weight[parent[index]] * share[parent[index]]
    self_time = (duration - covered) * weight
    out: Dict[str, Dict[str, Any]] = {}
    for name_id, label in enumerate(rec.names):
        mask = name == name_id
        out[label] = {
            "calls": int(mask.sum()),
            "busy_s": float(duration[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "durations": duration[mask],
        }
    return out


def split_by_child(rec: Recorder, parent_name: str,
                   child_name: str) -> Tuple[np.ndarray, np.ndarray]:
    """Durations of ``parent_name`` spans with / without a ``child_name``
    child -- tells a reprogramming registration from a memo reuse."""
    if parent_name not in rec.names:
        return np.zeros(0), np.zeros(0)
    count = rec.count
    names = np.asarray(rec.name[:count])
    duration = np.asarray(rec.end[:count]) - np.asarray(rec.start[:count])
    mine = names == rec.names.index(parent_name)
    has_child = np.zeros(count, dtype=bool)
    if child_name in rec.names:
        owners = np.asarray(rec.parent[:count])[
            names == rec.names.index(child_name)]
        has_child[owners[owners >= 0]] = True
    return duration[mine & has_child], duration[mine & ~has_child]


def write_trace(path: Path, workload: str, seed: int, rec: Recorder,
                summary: Dict[str, Dict[str, Any]]) -> None:
    """Dump the spans (microseconds from the first span) as JSON."""
    count = rec.count
    origin = min(rec.start[:count]) if count else 0.0
    kept = min(count, FILE_SPANS)
    spans = [
        [rec.name[i], round((rec.start[i] - origin) * 1e6, 1),
         round((rec.end[i] - origin) * 1e6, 1), rec.parent[i], rec.wave[i]]
        for i in range(kept)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "names": rec.names,
        "columns": ["name", "start_us", "end_us", "parent", "wave"],
        "spans_recorded": count,
        "spans_written": kept,
        "spans_dropped": rec.dropped,
        "summary": {
            label: {key: value for key, value in row.items()
                    if key != "durations"}
            for label, row in summary.items()
        },
        "spans": spans,
    }))
