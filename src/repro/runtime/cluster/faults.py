"""Cluster chaos layer: the ring tier of the fault framework.

:mod:`repro.runtime.faults` made *device* failure a first-class,
deterministic, testable event, and holds the event, the seeded schedule and
the base injector every tier shares.  This module is the tier for the
faults a multi-process cluster adds on top of chip failure:

``drop``
    A pushed frame silently never arrives.  Models a lossy link or a
    receiver that died holding the frame.
``dup``
    A pushed frame is delivered twice.  Models retransmission by a
    transport that lost the ack, not the payload -- the reason the
    worker suppresses duplicate batches and the gateway ignores replies
    for batches it no longer tracks.
``delay``
    A pushed frame is held back and delivered after frames pushed later,
    i.e. out of order and late.  Models a congested or rerouted link;
    this is what makes "a late reply after the gateway already hedged"
    a reachable state instead of a theoretical one.
``corrupt``
    One bit of the written frame payload is flipped *after* its CRC was
    computed and *before* the frame is committed, so the consumer's CRC
    check fails and the frame is skipped
    (:class:`~repro.errors.TransportError`).  Models a torn write or bus
    corruption; exercises the ring's skip-past recovery end to end.

A ring is target 0 of its schedule and counts *faultable frames pushed*
(never wall clock); the corrupted bit derives from ``(seed, frame
index)``.  A seeded campaign is a :class:`TransportFaultSpec`, which
derives one :meth:`~repro.runtime.faults.FaultSchedule.from_seed` schedule
per ring.

The injector hooks the **producer** seam of :class:`ShmRing`
(``ring.fault_injector``, consulted by ``push``).  Every ring is
single-producer/single-consumer and every direction of the cluster
transport has its producer in exactly one process -- the gateway pushes
request rings, each worker pushes its reply ring -- so producer-side
injection covers both directions of the channel without a consumer-side
hook: :class:`~repro.runtime.cluster.gateway.ClusterGateway` attaches
injectors to the request rings it owns, and ships the
:class:`TransportFaultSpec` itself in each worker's spawn spec so the
worker attaches the reply-side injector itself.

Faults apply only to *data* frames (``SUBMIT`` requests, ``RESULTS``
replies, selected by the ``kinds`` filter); control traffic --
registration, readiness, drain, stop -- is never faulted, so a chaos
campaign degrades service, not cluster bring-up.  (The breaker that fences
a worker which keeps timing out is the gateway's:
:class:`~repro.runtime.cluster.gateway.CircuitBreaker`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ...errors import ClusterError
from ..faults import RING_MODES, FaultEvent, FaultSchedule, _Injector, check_faults
from .messages import K_RESULTS, K_SUBMIT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transport import ShmRing

__all__ = [
    "TransportFaultInjector",
    "TransportFaultSpec",
]


@dataclass(frozen=True)
class TransportFaultSpec:
    """Description of a whole-cluster transport-fault campaign.

    A frozen dataclass of scalars and tuples: it pickles as it is, which is
    how it crosses the process boundary inside a worker spawn spec (fork or
    spawn).  Each (worker, direction) pair gets its own
    :class:`TransportFaultInjector` with an independent schedule derived
    from ``(seed, worker_id, direction)`` -- deterministic for a given
    topology, distinct per ring.  A bad mode, count or horizon raises
    :class:`~repro.errors.FaultConfigError` (a ``ClusterError``) here, not
    later inside a worker.
    """

    seed: int
    num_events: int = 4
    horizon_frames: int = 32
    modes: Tuple[str, ...] = RING_MODES
    directions: Tuple[str, ...] = ("request", "reply")

    def __post_init__(self) -> None:
        check_faults(self.modes, RING_MODES,
                     num_events=(self.num_events, 0),
                     horizon_frames=(self.horizon_frames, 1))
        for direction in self.directions:
            if direction not in ("request", "reply"):
                raise ClusterError(
                    f"unknown transport direction {direction!r}; expected "
                    f"'request' or 'reply'"
                )

    def injector_for(self, worker_id: int,
                     direction: str) -> "TransportFaultInjector":
        """Build the injector of one ring (``direction`` of ``worker_id``)."""
        derived = int(
            np.random.default_rng(np.random.SeedSequence([
                int(self.seed), int(worker_id),
                0 if direction == "request" else 1,
            ])).integers(0, 2**31)
        )
        schedule = FaultSchedule.from_seed(
            derived,
            num_events=self.num_events,
            horizon=self.horizon_frames,
            modes=tuple(self.modes),
        )
        kinds = (K_SUBMIT,) if direction == "request" else (K_RESULTS,)
        return TransportFaultInjector(schedule, kinds=kinds)


class TransportFaultInjector(_Injector):
    """Drop, duplicate, delay, or bit-corrupt :class:`ShmRing` frames.

    Attach with :meth:`attach` (sets ``ring.fault_injector``; a ring holds
    one injector, as a pool does); the ring's ``push`` then routes every
    frame through :meth:`on_push`.  Faults can be armed from a seeded
    schedule or imperatively (:meth:`drop` / :meth:`duplicate` /
    :meth:`delay_next` / :meth:`corrupt`), which is what targeted chaos
    tests do.

    Only message kinds in ``kinds`` are ever faulted (``None``, the
    default, faults everything); other frames -- and every frame while no
    fault is active -- take the untouched :meth:`ShmRing.push_frame` path.
    """

    MODES = RING_MODES

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        seed: Optional[int] = None,
        kinds: Optional[Tuple[int, ...]] = None,
    ) -> None:
        super().__init__(schedule, seed)
        self.kinds = frozenset(kinds) if kinds is not None else None
        #: Held ``delay`` frames: (deliver-at faultable-frame index, blob).
        self._stash: List[Tuple[int, bytes]] = []
        #: Lifetime counters, exact (the chaos suite asserts against them).
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_delayed = 0
        self.frames_corrupted = 0

    @property
    def frames_seen(self) -> int:
        """Faultable frames pushed so far (the ring's ``after`` clock)."""
        return self._calls.get(0, 0)

    @property
    def faults_injected(self) -> int:
        """Total frames affected by any mode (the campaign's footprint)."""
        return (self.frames_dropped + self.frames_duplicated
                + self.frames_delayed + self.frames_corrupted)

    def drop(self, frames: int = 1) -> None:
        """Silently drop the next ``frames`` faultable frames."""
        self._arm(FaultEvent("drop", duration=frames))

    def duplicate(self, frames: int = 1) -> None:
        """Deliver each of the next ``frames`` faultable frames twice."""
        self._arm(FaultEvent("dup", duration=frames))

    def delay_next(self, frames: int = 1, by: int = 2) -> None:
        """Hold the next ``frames`` frames back by ``by`` later frames."""
        self._arm(FaultEvent("delay", duration=frames, delay=by))

    def corrupt(self, frames: int = 1) -> None:
        """Flip one bit in each of the next ``frames`` written frames."""
        self._arm(FaultEvent("corrupt", duration=frames))

    def on_push(self, ring: "ShmRing", parts) -> bool:
        """Route one ``push`` through the fault model; the ring's seam.

        Returns what the caller's ``push`` would have: ``True`` when the
        frame was accepted *from the producer's point of view* -- a
        dropped or delayed frame still reports success, exactly like a
        lossy link that accepted the send.  ``False`` propagates real
        backpressure only.
        """
        kind = parts[0][0] if parts and len(parts[0]) else None
        if self.kinds is not None and kind not in self.kinds:
            return ring.push_frame(parts)
        index, fault = self._consult(0)
        self._flush_due(ring, index)
        if fault is None:
            return ring.push_frame(parts)
        self._spend(0)
        mode = fault.mode
        if mode == "drop":
            self.frames_dropped += 1
            return True
        if mode == "delay":
            blob = b"".join(
                bytes(memoryview(part).cast("B")) for part in parts
            )
            self._stash.append((index + fault.delay, blob))
            self.frames_delayed += 1
            return True
        # A corrupting flip happens inside the write, ahead of the commit: a
        # consumer polling from another process never sees clean bytes.
        damage = partial(self._damage, index) if mode == "corrupt" else None
        if not ring.push_frame(parts, damage):
            return False
        if mode == "dup":
            # Best effort: a full ring simply loses the duplicate.
            ring.push_frame(parts)
            self.frames_duplicated += 1
        elif mode == "corrupt":
            self.frames_corrupted += 1
        return True

    def _flush_due(self, ring: "ShmRing", index: int) -> None:
        """Deliver held frames whose delay has elapsed (ring-full ones wait)."""
        still_held = []
        for deliver_at, blob in self._stash:
            if deliver_at <= index and ring.push_frame([blob]):
                continue
            still_held.append((deliver_at, blob))
        self._stash = still_held

    def _damage(self, index: int, data, start: int, length: int) -> None:
        """Flip one seeded bit of the ``length`` payload bytes at
        ``data[start:]`` -- the :meth:`ShmRing.push_frame` ``damage`` hook.

        The CRC in the frame header was computed before the flip, so the
        consumer's ``peek`` fails the check, raises ``TransportError``,
        and skips past -- the corruption is always *detected*, modelling
        a torn write rather than silent wrong data (the device tier's
        ``corrupt`` mode covers the silent case; the wire has a CRC).
        """
        if length:
            position, mask = self._flip(length, index)
            data[start + position] ^= mask
