"""A cluster gateway scripted without worker processes.

An un-started :class:`~repro.runtime.cluster.ClusterGateway` is marked
started, its worker 0 marked alive and given a stub request ring that takes
(or refuses) every frame, and reply frames are fed to the gateway by hand,
as the worker's reply bell would.  ``tests/test_cluster.py`` (routing,
control timeouts, reply frames, wave resolution) and
``tests/test_bounded_state.py`` (what a resolved wave keeps alive) drive
their gateways through these helpers, so there is one copy to keep in step
with the gateway's internals.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.cluster.gateway import _MatrixRecord
from repro.runtime.cluster.messages import K_RESULTS, decode_message, encode_message


class StubRing:
    """A request ring that accepts or refuses every frame, and counts them."""

    def __init__(self, accepts):
        self.accepts = accepts
        self.pushes = 0

    def push(self, parts):
        self.pushes += 1
        return self.accepts

    def close(self):
        pass


class StubHandle:
    def predicted_cycles(self, n):
        return 10.0 * n


def scripted_worker(gw, handle=None):
    """Script ``gw``'s worker 0 as alive, holding ``"m"``, its request ring a
    stub (every SUBMIT is accepted and goes nowhere)."""
    gw._started = True
    worker = gw._workers[0]
    worker.alive = True
    worker.requests = StubRing(accepts=True)
    worker.plan_handles["m"] = handle if handle is not None else StubHandle()
    gw._matrices["m"] = _MatrixRecord(
        fingerprint=("digest",), matrix=np.zeros((24, 16), dtype=np.int64),
        element_size=8, precision=0, input_bits=8, placement=[0],
    )
    return worker


def results_frame(batch, rows, cols=16, statuses=None, **extra):
    """Batch ``batch``'s RESULTS frame: ``rows`` rows of ones, latency 2
    ticks and 0.5 pJ each, every row completed unless ``statuses`` (one
    status code per row) says otherwise."""
    statuses = np.zeros(rows, dtype=np.uint8) if statuses is None else \
        np.asarray(statuses, dtype=np.uint8)
    return encode_message(K_RESULTS, {"batch": batch, "name": "m", **extra}, [
        statuses, np.ones((rows, cols), dtype=np.int64),
        np.full(rows, 2, dtype=np.int64), np.full(rows, 0.5, dtype=np.float64),
    ])


def deliver(gw, worker, frame):
    """Feed one reply frame to the gateway as ``worker``'s bell would."""
    payload = memoryview(b"".join(bytes(part) for part in frame))
    gw._on_reply(worker, *decode_message(payload))
