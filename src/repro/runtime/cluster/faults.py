"""Cluster chaos layer: transport fault injection.

PR 6's :class:`~repro.runtime.faults.FaultInjector` made *device* failure
a first-class, deterministic, testable event.  This module extends the
same philosophy one tier up, to the faults that a multi-process cluster
adds on top of chip failure:

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

All modes are deterministic: triggers count *faultable frames pushed*
(never wall clock), and the corrupted bit position derives from
``(seed, frame_index)``, mirroring the device-level injector.  A seeded
campaign uses :meth:`TransportFaultSchedule.from_seed`, the transport
analogue of :meth:`~repro.runtime.faults.FaultSchedule.from_seed`.

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
from .messages import K_RESULTS, K_SUBMIT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transport import ShmRing

__all__ = [
    "TRANSPORT_FAULT_MODES",
    "TransportFaultEvent",
    "TransportFaultInjector",
    "TransportFaultSchedule",
    "TransportFaultSpec",
]

#: Supported transport fault modes.
FAULT_DROP = "drop"
FAULT_DUP = "dup"
FAULT_DELAY = "delay"
FAULT_CORRUPT = "corrupt"
TRANSPORT_FAULT_MODES = (FAULT_DROP, FAULT_DUP, FAULT_DELAY, FAULT_CORRUPT)


@dataclass(frozen=True)
class TransportFaultEvent:
    """One scheduled transport fault on one ring.

    ``after_frame`` is the faultable-frame index (0-based, counting only
    frames the injector's ``kinds`` filter admits) at which the fault
    arms; it then affects the next ``duration_frames`` faultable frames.
    ``delay_frames`` applies to ``delay`` events: the held frame is
    re-delivered after that many further faultable frames have been
    pushed (frames pushed in between arrive first -- the reorder).
    """

    after_frame: int
    mode: str
    duration_frames: int = 1
    delay_frames: int = 2

    def __post_init__(self) -> None:
        if self.mode not in TRANSPORT_FAULT_MODES:
            raise ClusterError(
                f"unknown transport fault mode {self.mode!r}; expected one "
                f"of {TRANSPORT_FAULT_MODES}"
            )
        if self.after_frame < 0:
            raise ClusterError("after_frame must be >= 0")
        if self.duration_frames < 1:
            raise ClusterError("duration_frames must be >= 1")
        if self.delay_frames < 1:
            raise ClusterError("delay_frames must be >= 1")


@dataclass(frozen=True)
class TransportFaultSchedule:
    """A reproducible list of :class:`TransportFaultEvent`, seed-derived."""

    events: Tuple[TransportFaultEvent, ...] = ()
    seed: int = 0

    @classmethod
    def from_seed(
        cls,
        seed: int,
        num_events: int = 4,
        horizon_frames: int = 32,
        modes: Tuple[str, ...] = TRANSPORT_FAULT_MODES,
    ) -> "TransportFaultSchedule":
        """Derive a deterministic random schedule from ``seed``.

        Mirrors :meth:`repro.runtime.faults.FaultSchedule.from_seed`:
        events spread uniformly over ``[0, horizon_frames)`` faultable
        frames, with bounded durations so a campaign always lets traffic
        through eventually.
        """
        if num_events < 0:
            raise ClusterError("num_events must be >= 0")
        if horizon_frames < 1:
            raise ClusterError("horizon_frames must be >= 1")
        for mode in modes:
            if mode not in TRANSPORT_FAULT_MODES:
                raise ClusterError(
                    f"unknown transport fault mode {mode!r}; expected one "
                    f"of {TRANSPORT_FAULT_MODES}"
                )
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), 0xC1A05])
        )
        events = tuple(
            TransportFaultEvent(
                after_frame=int(rng.integers(0, horizon_frames)),
                mode=modes[int(rng.integers(0, len(modes)))],
                duration_frames=int(rng.integers(1, 3)),
                delay_frames=int(rng.integers(1, 4)),
            )
            for _ in range(num_events)
        )
        return cls(events=events, seed=int(seed))


@dataclass(frozen=True)
class TransportFaultSpec:
    """Description of a whole-cluster transport-fault campaign.

    A frozen dataclass of scalars and tuples: it pickles as it is, which is
    how it crosses the process boundary inside a worker spawn spec (fork or
    spawn).  Each (worker, direction) pair gets its own
    :class:`TransportFaultInjector` with an independent schedule derived
    from ``(seed, worker_id, direction)`` -- deterministic for a given
    topology, distinct per ring.
    """

    seed: int
    num_events: int = 4
    horizon_frames: int = 32
    modes: Tuple[str, ...] = TRANSPORT_FAULT_MODES
    directions: Tuple[str, ...] = ("request", "reply")

    def __post_init__(self) -> None:
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
        schedule = TransportFaultSchedule.from_seed(
            derived,
            num_events=self.num_events,
            horizon_frames=self.horizon_frames,
            modes=tuple(self.modes),
        )
        kinds = (K_SUBMIT,) if direction == "request" else (K_RESULTS,)
        return TransportFaultInjector(schedule, kinds=kinds)


class _ActiveTransportFault:
    """Mutable state of the currently armed fault on one ring."""

    __slots__ = ("mode", "remaining", "delay_frames")

    def __init__(self, mode: str, remaining: int, delay_frames: int) -> None:
        self.mode = mode
        self.remaining = remaining
        self.delay_frames = delay_frames


class TransportFaultInjector:
    """Drop, duplicate, delay, or bit-corrupt :class:`ShmRing` frames.

    Attach with :meth:`attach` (sets ``ring.fault_injector``); the ring's
    ``push`` then routes every frame through :meth:`on_push`.  Faults can
    be armed from a seeded schedule or imperatively (:meth:`drop` /
    :meth:`duplicate` / :meth:`delay_next` / :meth:`corrupt`), which is
    what targeted chaos tests do.

    Only message kinds in ``kinds`` are ever faulted (``None`` faults
    everything); other frames -- and every frame while no fault is
    active -- take the untouched :meth:`ShmRing.push_frame` path.
    """

    def __init__(
        self,
        schedule: Optional[TransportFaultSchedule] = None,
        seed: Optional[int] = None,
        kinds: Optional[Tuple[int, ...]] = (K_SUBMIT, K_RESULTS),
    ) -> None:
        self.schedule = schedule if schedule is not None \
            else TransportFaultSchedule()
        self.seed = seed if seed is not None else self.schedule.seed
        self.kinds = frozenset(kinds) if kinds is not None else None
        self._pending: List[TransportFaultEvent] = sorted(
            self.schedule.events, key=lambda e: (e.after_frame, e.mode)
        )
        self._active: Optional[_ActiveTransportFault] = None
        #: Held ``delay`` frames: (deliver-at faultable-frame index, blob).
        self._stash: List[Tuple[int, bytes]] = []
        #: Lifetime counters, exact (the chaos suite asserts against them).
        self.frames_seen = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_delayed = 0
        self.frames_corrupted = 0

    # ------------------------------------------------------------------ #
    # Wiring                                                               #
    # ------------------------------------------------------------------ #
    def attach(self, ring: "ShmRing") -> "TransportFaultInjector":
        """Install this injector on ``ring`` (returns self for chaining)."""
        ring.fault_injector = self
        return self

    # ------------------------------------------------------------------ #
    # Imperative fault control                                             #
    # ------------------------------------------------------------------ #
    def _arm(self, mode: str, frames: int, delay_frames: int = 2) -> None:
        if frames < 1:
            raise ClusterError("a transport fault needs frames >= 1")
        self._active = _ActiveTransportFault(mode, frames, delay_frames)

    def drop(self, frames: int = 1) -> None:
        """Silently drop the next ``frames`` faultable frames."""
        self._arm(FAULT_DROP, frames)

    def duplicate(self, frames: int = 1) -> None:
        """Deliver each of the next ``frames`` faultable frames twice."""
        self._arm(FAULT_DUP, frames)

    def delay_next(self, frames: int = 1, by: int = 2) -> None:
        """Hold the next ``frames`` frames back by ``by`` later frames."""
        if by < 1:
            raise ClusterError("delay needs by >= 1")
        self._arm(FAULT_DELAY, frames, by)

    def corrupt(self, frames: int = 1) -> None:
        """Flip one bit in each of the next ``frames`` written frames."""
        self._arm(FAULT_CORRUPT, frames)

    @property
    def faults_injected(self) -> int:
        """Total frames affected by any mode (the campaign's footprint)."""
        return (self.frames_dropped + self.frames_duplicated
                + self.frames_delayed + self.frames_corrupted)

    # ------------------------------------------------------------------ #
    # Producer-seam hook                                                    #
    # ------------------------------------------------------------------ #
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
        index = self.frames_seen
        self.frames_seen += 1
        self._flush_due(ring, index)
        fault = self._consume_mode(index)
        if fault is None:
            return ring.push_frame(parts)
        mode, delay = fault
        if mode == FAULT_DROP:
            self.frames_dropped += 1
            return True
        if mode == FAULT_DELAY:
            blob = b"".join(
                bytes(memoryview(part).cast("B")) for part in parts
            )
            self._stash.append((index + delay, blob))
            self.frames_delayed += 1
            return True
        # A corrupting flip happens inside the write, ahead of the commit: a
        # consumer polling from another process never sees clean bytes.
        damage = partial(self._flip_bit, index) if mode == FAULT_CORRUPT else None
        if not ring.push_frame(parts, damage):
            return False
        if mode == FAULT_DUP:
            # Best effort: a full ring simply loses the duplicate.
            ring.push_frame(parts)
            self.frames_duplicated += 1
        elif mode == FAULT_CORRUPT:
            self.frames_corrupted += 1
        return True

    def flush(self, ring: "ShmRing") -> int:
        """Force-deliver every held ``delay`` frame; returns how many."""
        delivered = 0
        for _, blob in self._stash:
            if ring.push_frame([blob]):
                delivered += 1
        self._stash.clear()
        return delivered

    # ------------------------------------------------------------------ #
    # Internals                                                             #
    # ------------------------------------------------------------------ #
    def _consume_mode(self, index: int) -> Optional[Tuple[str, int]]:
        """Arm due scheduled events, then burn one frame of the active fault.

        Returns ``(mode, delay_frames)`` for the frame at ``index``, or
        ``None`` when no fault is active.
        """
        due = [e for e in self._pending if e.after_frame <= index]
        for event in due:
            self._pending.remove(event)
            self._arm(event.mode, event.duration_frames, event.delay_frames)
        fault = self._active
        if fault is None:
            return None
        mode, delay = fault.mode, fault.delay_frames
        fault.remaining -= 1
        if fault.remaining <= 0:
            self._active = None
        return mode, delay

    def _flush_due(self, ring: "ShmRing", index: int) -> None:
        """Deliver held frames whose delay has elapsed (ring-full ones wait)."""
        still_held = []
        for deliver_at, blob in self._stash:
            if deliver_at <= index and ring.push_frame([blob]):
                continue
            still_held.append((deliver_at, blob))
        self._stash = still_held

    def _flip_bit(self, index: int, data, start: int, length: int) -> None:
        """Flip one deterministic bit of the ``length`` payload bytes at
        ``data[start:]`` -- the :meth:`ShmRing.push_frame` ``damage`` hook.

        The CRC in the frame header was computed before the flip, so the
        consumer's ``peek`` fails the check, raises ``TransportError``,
        and skips past -- the corruption is always *detected*, modelling
        a torn write rather than silent wrong data (the device tier's
        ``corrupt`` mode covers the silent case; the wire has a CRC).
        """
        if length == 0:
            return
        rng = np.random.default_rng(
            np.random.SeedSequence([int(self.seed), int(index)])
        )
        data[start + int(rng.integers(0, length))] ^= 1 << int(rng.integers(0, 8))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransportFaultInjector(seen={self.frames_seen}, "
            f"dropped={self.frames_dropped}, dup={self.frames_duplicated}, "
            f"delayed={self.frames_delayed}, corrupt={self.frames_corrupted})"
        )

