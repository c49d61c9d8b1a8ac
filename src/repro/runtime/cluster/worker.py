"""Cluster device worker: one OS process owning chips and a server shard.

Each worker is a separate interpreter running its own
:class:`~repro.runtime.server.PumServer` over its own
:class:`~repro.runtime.pool.DevicePool` -- its own chips, plan caches,
batch arenas, and (crucially) its own GIL.  Within one server the Python
slices of the pipeline (planning glue, noise modelling, batch assembly)
serialize on one GIL; moving each shard into a process is what makes
those slices scale.

``worker_main`` is the process entry point: it attaches to the two
:class:`~repro.runtime.cluster.transport.ShmRing` segments the gateway
created (requests in, replies out) plus the heartbeat board, builds the
server described by its spec, announces ``READY``, and then runs a
command loop -- beat the heartbeat, pop one message, execute, reply --
that *blocks on the request ring's doorbell* when the ring is empty, with
the heartbeat period as the only timeout: an idle worker wakes to beat,
not to poll.  Request vectors are decoded as zero-copy views of the
request ring and flow straight into ``submit_batch`` (whose bulk admission
copy is the single copy the data ever takes on this side); result matrices
are written directly into the response ring, one frame per wave.

The loop is deliberately synchronous per message: a ``SUBMIT`` runs the
batch to completion (``run_until_idle``) before its ``RESULTS`` frame is
pushed, so replies never interleave and the worker's scheduler keeps the
deterministic tick clock of the single-process server -- which is what
makes gateway results bit-identical to a local :class:`PumServer` on the
same trace.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ...core.config import ChipConfig, HctConfig
from ...errors import ReproError, SchedulerError, TransportError
from ...reram import NoiseConfig
from ..scheduling import StaticBatchingPolicy
from ..server import PumServer, WaveFutures
from .messages import (
    K_ACK,
    K_DRAIN,
    K_ERROR,
    K_READY,
    K_REGISTER,
    K_REGISTERED,
    K_RESULTS,
    K_STOP,
    K_STRAGGLE,
    K_SUBMIT,
    batch_of,
    decode_message,
    encode_message,
)
from .transport import HeartbeatBoard, ShmRing

__all__ = ["WorkerState", "build_worker_server", "worker_main"]

#: Completed-batch reply frames kept for duplicate suppression.  A dup
#: can only trail its original by the transport's reorder horizon plus
#: one hedge round-trip, both of which are a handful of frames -- 64 is
#: generous without letting result matrices accumulate.
REPLY_CACHE_FRAMES = 64

#: Back-off between tries of the two cold spins left in a worker -- a reply
#: ring the gateway has let fill up, and the STRAGGLE chaos sleep -- both of
#: which beat the heartbeat on every turn.  Nothing idle waits on it.
SPIN_BACKOFF = 2e-4

_NOISE_PRESETS = {
    None: lambda: None,
    "ideal": NoiseConfig.ideal,
    "paper_default": NoiseConfig.paper_default,
}


def build_worker_server(spec: Dict[str, Any]) -> PumServer:
    """Construct the :class:`PumServer` a worker spec describes.

    The spec is a plain dict of scalars/strings (it crosses the process
    boundary at spawn time): the server's ``queue_capacity``; the
    ``max_batch`` / ``max_wait_ticks`` of its
    :class:`~repro.runtime.scheduling.StaticBatchingPolicy`; plus ``chip``
    (``None`` for paper-default chips, ``"small"`` for the fast functional
    configuration, with ``num_hcts``) and ``noise`` (``None`` / ``"ideal"``
    / ``"paper_default"``).  The pool is not configurable: one device,
    ``"cache_affinity"`` placement, the library's default backend, no
    replication and ABFT ``"off"`` -- a worker's replicas are other
    workers.  Keys the spec carries beyond these are ignored.
    """
    chip = spec.get("chip")
    if chip is None:
        config = None
    elif chip == "small":
        config = ChipConfig(
            hct=HctConfig.small(), num_hcts=int(spec.get("num_hcts", 3))
        )
    else:
        raise ReproError(f"unknown worker chip preset {chip!r}")
    noise_name = spec.get("noise")
    try:
        noise = _NOISE_PRESETS[noise_name]()
    except KeyError:
        raise ReproError(f"unknown worker noise preset {noise_name!r}") from None
    from ..pool import DevicePool

    pool = DevicePool(num_devices=1, config=config, noise=noise,
                      policy="cache_affinity")
    knobs = {
        knob: spec[knob]
        for knob in ("max_batch", "max_wait_ticks")
        if spec.get(knob) is not None
    }
    return PumServer(
        pool=pool,
        scheduling=StaticBatchingPolicy(**knobs),
        queue_capacity=int(spec.get("queue_capacity", 4096)),
        admission="reject",
    )


def _result_frame(server: PumServer, header: Dict[str, Any],
                  futures: WaveFutures) -> List[bytes]:
    """Assemble the RESULTS frame for a drained batch, in row order, from the
    wave's columns: no row's future or response is built on the way."""
    statuses, results, latency, energy, errors = futures.columns()
    reply = {"batch": header.get("batch"), "name": header.get("name")}
    if errors:
        reply["errors"] = {str(row): error for row, error in errors.items()}
    return encode_message(K_RESULTS, reply, [statuses, results, latency, energy])


class WorkerState:
    """Per-process chaos/idempotency state threaded through the loop.

    * ``reply_cache`` remembers the RESULTS frame of the last
      :data:`REPLY_CACHE_FRAMES` batches by batch id, so a duplicated or
      hedged-back SUBMIT *replays* the original reply instead of
      re-executing -- the dup is byte-identical by construction and the
      server's stats are not double-counted.
    * ``straggle_batches`` / ``straggle_seconds`` implement the
      STRAGGLE chaos command: the next N SUBMITs sleep first, *while
      heartbeating*, so liveness stays green and only the gateway's
      per-batch timeout can catch the slowness (a gray failure).
    """

    def __init__(self) -> None:
        self.reply_cache: "OrderedDict[int, List[bytes]]" = OrderedDict()
        self.duplicates_suppressed = 0
        self.straggle_batches = 0
        self.straggle_seconds = 0.0

    def cached_reply(self, batch: Optional[int]) -> Optional[List[bytes]]:
        if batch is None or batch not in self.reply_cache:
            return None
        self.duplicates_suppressed += 1
        return self.reply_cache[batch]

    def remember_reply(self, batch: Optional[int],
                       reply: List[bytes]) -> None:
        if batch is None:
            return
        self.reply_cache[batch] = reply
        while len(self.reply_cache) > REPLY_CACHE_FRAMES:
            self.reply_cache.popitem(last=False)


def _drain_batch(server: PumServer, beat: Callable[[], None],
                 max_ticks: int = 100_000) -> None:
    """``run_until_idle`` with a heartbeat per tick.

    Beating from *inside* the dispatch loop is what distinguishes a long
    batch from a hang: the board advances while the scheduler makes
    progress, so the gateway's ``LIVENESS_TIMEOUT`` measures wedged-ness,
    not batch length.
    """
    for _ in range(max_ticks):
        if not server.pending:
            return
        server.tick()
        beat()
    if server.pending:
        raise SchedulerError(
            f"queue failed to drain within {max_ticks} ticks "
            f"({server.pending} requests pending)"
        )


def _handle(server: PumServer, kind: int, header: Dict[str, Any],
            arrays: List[np.ndarray],
            beat: Optional[Callable[[], None]] = None,
            state: Optional[WorkerState] = None) -> List[bytes]:
    """Execute one request message; returns the reply frame (or [] to stop)."""
    beat = beat if beat is not None else (lambda: None)
    state = state if state is not None else WorkerState()
    if kind == K_SUBMIT:
        cached = state.cached_reply(header.get("batch"))
        if cached is not None:
            return cached
        if state.straggle_batches > 0:
            state.straggle_batches -= 1
            deadline = time.monotonic() + state.straggle_seconds
            while time.monotonic() < deadline:
                beat()
                time.sleep(SPIN_BACKOFF)
        # The one copy this side of the boundary: admitted vectors alias
        # the array handed to submit_batch, which must outlive the ring
        # frame -- so lift the payload out of shared memory here.
        # A header that names no matrix is refused by the server like any
        # unregistered name: typed, and answered with the batch id.
        futures = server.submit_batch(
            header.get("name"), np.array(arrays[0]),
            input_bits=int(header.get("input_bits", 8)),
        )
        _drain_batch(server, beat)
        reply = _result_frame(server, header, futures)
        state.remember_reply(header.get("batch"), reply)
        return reply
    if kind == K_REGISTER:
        # Lift the matrix out of the ring frame before handing it to the
        # registry, which may keep references past the frame's lifetime.
        allocation = server.register_matrix(
            header["name"],
            np.array(arrays[0]),
            element_size=int(header.get("element_size", 8)),
            precision=int(header.get("precision", 0)),
            input_bits=int(header.get("input_bits", 8)),
        )
        handle = server.plan_handle(
            header["name"], input_bits=int(header.get("input_bits", 8))
        )
        return encode_message(K_REGISTERED, {
            "name": header["name"],
            "shape": list(allocation.shape),
            "handle": handle.to_bytes().hex(),
        })
    if kind == K_DRAIN:
        return encode_message(K_ACK, {
            "drain": True, "stats": server.stats.snapshot(),
            "duplicates_suppressed": state.duplicates_suppressed,
        })
    if kind == K_STRAGGLE:
        state.straggle_batches = int(header.get("batches", 1))
        state.straggle_seconds = float(header.get("seconds", 0.0))
        return encode_message(K_ACK, {
            "straggle": True,
            "batches": state.straggle_batches,
            "seconds": state.straggle_seconds,
        })
    if kind == K_STOP:
        return []
    raise TransportError(f"unknown message kind {kind}")


def _answer(server: PumServer, payload: memoryview,
            beat: Callable[[], None], state: WorkerState) -> List[bytes]:
    """The reply to one request frame (``[]`` for STOP).

    A bad message fails *that message*, never the worker: the loop stays up
    and the ERROR reply names the batch whenever the frame's prefix decoded,
    so the gateway can resolve its riders whatever else was wrong with it.
    """
    header: Dict[str, Any] = {}
    try:
        kind, header, arrays = decode_message(payload)
        return _handle(server, kind, header, arrays, beat=beat, state=state)
    except Exception as exc:
        error = {
            "error": f"{type(exc).__name__}: {exc}",
            "batch": header.get("batch", batch_of(payload)),
            "name": header.get("name"),
        }
        if not isinstance(exc, ReproError):
            error["trace"] = traceback.format_exc(limit=4)
        return encode_message(K_ERROR, error)


def worker_main(spec: Dict[str, Any]) -> None:
    """Process entry point: serve the command loop until STOP.

    ``spec`` carries the transport attachment points (``request_ring``,
    ``response_ring``, ``board`` segment names, the ``request_bell`` /
    ``response_bell`` :class:`~repro.runtime.cluster.transport.Doorbell`
    of each ring, ``worker_id`` selecting the heartbeat slot and
    ``heartbeat_interval``, the longest an idle worker goes without a beat)
    alongside the server parameters of :func:`build_worker_server` and,
    under a chaos campaign, the gateway's
    :class:`~repro.runtime.cluster.faults.TransportFaultSpec` itself
    (``transport_faults``).
    """
    worker_id = int(spec["worker_id"])
    requests = ShmRing(name=spec["request_ring"], create=False,
                       bell=spec["request_bell"])
    replies = ShmRing(name=spec["response_ring"], create=False,
                      bell=spec["response_bell"])
    board = HeartbeatBoard(name=spec["board"], create=False)
    state = WorkerState()

    def beat() -> None:
        board.beat(worker_id)

    def send(parts: List[bytes]) -> None:
        # The gateway's inflight window bounds outstanding replies, so a
        # full response ring only means the gateway is behind; spin politely
        # and keep beating so the health monitor sees us alive.
        while not replies.push(parts):
            beat()
            time.sleep(SPIN_BACKOFF)

    try:
        server = build_worker_server(spec)
        # A chaos campaign ships its TransportFaultSpec in the spawn spec;
        # the reply direction's injector must live in *this* process because
        # this process is the reply ring's single producer.
        faults = spec.get("transport_faults")
        if faults is not None and "reply" in faults.directions:
            faults.injector_for(worker_id, "reply").attach(replies)
    except Exception as exc:  # pragma: no cover - config errors are fatal
        # Fails the gateway's READY wait at once; the rings still close.
        send(encode_message(K_ERROR, {
            "error": f"worker {worker_id} failed to start: {exc}",
        }))
        running = False
    else:
        send(encode_message(K_READY, {"worker": worker_id, "pid": os.getpid()}))
        running = True
    while running:
        beat()
        try:
            payload = requests.peek()
        except TransportError as exc:
            send(encode_message(K_ERROR, {"error": str(exc)}))
            continue
        if payload is None:
            # Beat, then block: the doorbell wakes the loop for a frame, the
            # timeout only for the next beat.  ``wait`` clears the bell and
            # the loop reads on until the ring is empty again (Doorbell's
            # order), so no frame is slept through.
            requests.bell.wait(spec["heartbeat_interval"])
            continue
        reply = _answer(server, payload, beat, state)
        # Drop the frame view so the segment has no exported pointers when
        # the rings close at shutdown.
        payload = None
        requests.advance()
        if reply:
            send(reply)
        else:
            send(encode_message(K_ACK, {"stopped": worker_id}))
            running = False

    requests.close()
    replies.close()
    board.close()
