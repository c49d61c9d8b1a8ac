"""Deterministic fault injection: one seeded framework, two tiers.

Resilience code is only as real as the machinery that exercises it.  This
module holds what every injector shares -- the event, the seeded schedule,
one validation body, and a base injector that arms events as they fall due,
counts them down, derives corrupting bit flips from the seed and attaches to
one host -- plus the device tier built on it.  The ring tier,
:class:`~repro.runtime.cluster.faults.TransportFaultInjector`, lives beside
the transport it faults.

A :class:`FaultEvent` arms ``mode`` on ``target`` once that target has been
consulted ``after`` times and affects the next ``duration`` consultations.  A
device counts its own calls (``target`` is the pool's device index); a ring
counts the frames its injector may fault (always target 0).  Nothing counts
wall clock, and every flip derives from ``(seed, *key)``, so a campaign
replays bit for bit under any interleaving.

The device tier, :class:`FaultInjector`, fails pool devices in three ways:

``kill``
    The device is dead: every call raises
    :class:`~repro.errors.DeviceFailedError` until :meth:`FaultInjector.heal`
    is called.  Models a crashed chip / lost node.
``hang``
    The device is unresponsive for a bounded number of calls (the transport
    layer's timeout is modelled as an immediate failure), then comes back by
    itself.  Models a transient stall.
``corrupt``
    The device silently returns corrupted results for a bounded number of
    calls: one deterministic bit flip per result array, keyed on ``(seed,
    device, call)``.  With verification off the pool serves the wrong answer
    (the chaos suite's negative control); with ``DevicePool(verify="full")``
    the ABFT checksum tier (:mod:`repro.runtime.integrity`) detects the flip
    and re-executes the band on a replica.

The pool consults the injector via :meth:`FaultInjector.before_call` /
:meth:`FaultInjector.after_call` around every device execution; attaching
one is one call::

    injector = FaultInjector(seed=7).attach(pool)
    injector.kill(1)            # device 1 is now dead
    ... serve traffic ...       # shards retry on replicas
    injector.heal(1)            # device 1 rejoins (health mark cleared)

A seeded campaign is :meth:`FaultSchedule.from_seed`; the cluster's chaos
campaign derives one per ring through
:class:`~repro.runtime.cluster.faults.TransportFaultSpec`.  A malformed
event, schedule or campaign raises :class:`~repro.errors.FaultConfigError`
where it is written.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import DeviceFailedError, FaultConfigError

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
]

#: What each tier can do to one consultation: a device call, a ring frame.
DEVICE_MODES = ("kill", "hang", "corrupt")
RING_MODES = ("drop", "dup", "delay", "corrupt")
_EVERY_MODE = tuple(dict.fromkeys(DEVICE_MODES + RING_MODES))


def check_faults(modes: Iterable[str], allowed: Tuple[str, ...] = _EVERY_MODE,
                 **lowest: Tuple[Optional[int], int]) -> None:
    """The one validation body of every event, schedule and campaign.

    ``modes`` must be non-empty and drawn from ``allowed``; each keyword is
    ``name=(value, least)`` and fails when ``value`` is below ``least``
    (``None`` passes: an event that lasts until healed).  Raises
    :class:`~repro.errors.FaultConfigError` naming what is wrong.
    """
    modes = tuple(modes)
    if not modes:
        raise FaultConfigError(f"no fault modes given; expected some of {allowed}")
    for mode in modes:
        if mode not in allowed:
            raise FaultConfigError(
                f"unknown fault mode {mode!r}; expected one of {allowed}"
            )
    for name, (value, least) in lowest.items():
        if value is not None and value < least:
            raise FaultConfigError(f"{name} must be >= {least} (got {value})")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: arm ``mode`` on ``target`` at its ``after``-th
    consultation (0-based; the fault fires starting with that one).

    ``duration`` bounds how many consultations the fault affects (``None``:
    until healed, what :meth:`FaultInjector.kill` arms); ``delay`` is how
    many later frames a ring's ``delay`` holds its frame back by.
    """

    mode: str
    after: int = 0
    duration: Optional[int] = 1
    target: int = 0
    delay: int = 2

    def __post_init__(self) -> None:
        check_faults((self.mode,), after=(self.after, 0),
                     duration=(self.duration, 1), target=(self.target, 0),
                     delay=(self.delay, 1))


@dataclass(frozen=True)
class FaultSchedule:
    """A reproducible list of :class:`FaultEvent`, usually seed-derived."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    @classmethod
    def from_seed(cls, seed: int, num_events: int = 4, horizon: int = 32,
                  modes: Tuple[str, ...] = RING_MODES,
                  num_targets: int = 1) -> "FaultSchedule":
        """Derive a deterministic schedule from ``seed``.

        Events spread uniformly over ``num_targets`` targets and ``[0,
        horizon)`` consultations, each lasting one or two (a ``kill`` too, so
        a campaign heals itself) and, for a ``delay``, holding its frame back
        by one to three.  ``modes`` defaults to the ring tier's, the tier
        :class:`~repro.runtime.cluster.faults.TransportFaultSpec` seeds;
        pass ``FaultInjector.MODES`` for a pool.
        """
        check_faults(modes, num_events=(num_events, 0), horizon=(horizon, 1),
                     num_targets=(num_targets, 1))
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC1A05]))
        events = tuple(
            FaultEvent(
                # One target draws nothing: ``integers(0, 1)`` is always 0.
                target=int(rng.integers(0, num_targets)),
                after=int(rng.integers(0, horizon)),
                mode=modes[int(rng.integers(0, len(modes)))],
                duration=int(rng.integers(1, 3)),
                delay=int(rng.integers(1, 4)),
            )
            for _ in range(num_events)
        )
        return cls(events=events, seed=int(seed))


class _Injector:
    """What both tiers share: the pending events of one schedule, the armed
    fault of each target, the per-target consultation counts, the seeded
    flip, and the one host (``host.fault_injector``) it drives."""

    #: The modes this tier arms.
    MODES: Tuple[str, ...] = ()

    def __init__(self, schedule: Optional[FaultSchedule] = None,
                 seed: Optional[int] = None) -> None:
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.seed = seed if seed is not None else self.schedule.seed
        for event in self.schedule.events:
            check_faults((event.mode,), self.MODES)
        # Events due on the same consultation arm in mode order, and the
        # last one armed is the one that fires.
        self._pending = sorted(
            self.schedule.events, key=lambda e: (e.after, e.target, e.mode)
        )
        #: target -> armed event; its ``duration`` is what is left of it.
        self._active: Dict[int, FaultEvent] = {}
        self._calls: Dict[int, int] = {}
        #: Faults armed per mode, scheduled or imperative (lifetime, exact).
        self.armed = dict.fromkeys(self.MODES, 0)
        self._host: Any = None

    def attach(self, host: Any) -> "_Injector":
        """Install this injector as ``host.fault_injector`` (returns self).

        Idempotent: re-attaching to the same host is a no-op, and attaching
        to a *different* host first detaches from the old one -- an injector
        drives at most one host, and a host holds at most one injector.
        Attaching over a different injector already installed on ``host``
        raises :class:`~repro.errors.FaultConfigError`; detach that one first
        (stacked injectors would double-count and fire faults twice).
        """
        installed = host.fault_injector
        if installed is self and self._host is host:
            return self
        if installed is not None and installed is not self:
            raise FaultConfigError(
                f"{type(host).__name__} already has a "
                f"{type(installed).__name__} attached; detach it before "
                f"attaching another one"
            )
        if self._host is not None and self._host is not host:
            self.detach()
        host.fault_injector = self
        self._host = host
        return self

    def detach(self) -> None:
        """Remove this injector from its host (faults stop firing).

        Idempotent, and a host whose injector was swapped out from under us
        is left alone.
        """
        if self._host is not None and self._host.fault_injector is self:
            self._host.fault_injector = None
        self._host = None

    def active_faults(self) -> Dict[int, str]:
        """Currently armed faults: target -> mode."""
        return {target: event.mode for target, event in self._active.items()}

    def _arm(self, event: FaultEvent) -> None:
        self.armed[event.mode] += 1
        self._active[event.target] = event

    def _consult(self, target: int) -> Tuple[int, Optional[FaultEvent]]:
        """Count one consultation of ``target``, arm what falls due at it,
        and return ``(its index, the armed fault or None)``."""
        index = self._calls.get(target, 0)
        self._calls[target] = index + 1
        if self._pending:
            for event in [e for e in self._pending
                          if e.target == target and e.after <= index]:
                self._pending.remove(event)
                self._arm(event)
        return index, self._active.get(target)

    def _spend(self, target: int) -> None:
        """Count one consultation off ``target``'s armed fault."""
        event = self._active[target]
        if event.duration is None:
            return
        if event.duration <= 1:
            del self._active[target]
        else:
            self._active[target] = replace(event, duration=event.duration - 1)

    def _flip(self, size: int, *key: int) -> Tuple[int, int]:
        """One deterministic ``(position, bit mask)`` within ``size`` items,
        derived from ``(seed, *key)`` alone."""
        rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), *key]))
        return int(rng.integers(0, size)), 1 << int(rng.integers(0, 8))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(active={self.active_faults()}, "
                f"pending={len(self._pending)}, armed={self.armed})")


class FaultInjector(_Injector):
    """Kill, hang, or corrupt pool devices deterministically.

    The pool consults it around every device execution: :meth:`before_call`
    counts the call, arms any scheduled events that are due, and raises
    :class:`~repro.errors.DeviceFailedError` while a kill/hang fault is
    active; :meth:`after_call` applies the bit flip of an active ``corrupt``
    fault.  Faults can also be armed imperatively (:meth:`kill` /
    :meth:`hang` / :meth:`corrupt`), which is what the chaos tests do to
    fail a specific device mid-load.  The injector is passive until
    ``attach(pool)``, which also lets :meth:`heal` clear the pool's health
    mark so traffic returns to the primary replica.
    """

    MODES = DEVICE_MODES

    def __init__(self, schedule: Optional[FaultSchedule] = None,
                 seed: Optional[int] = None) -> None:
        super().__init__(schedule, seed)
        #: Lifetime counters, exact (chaos tests assert against them).
        self.calls_blocked = 0
        self.results_corrupted = 0

    def kill(self, device_index: int) -> None:
        """Make ``device_index`` dead until :meth:`heal` is called."""
        self._arm(FaultEvent("kill", duration=None, target=device_index))

    def hang(self, device_index: int, calls: int = 1) -> None:
        """Make ``device_index`` unresponsive for the next ``calls`` calls."""
        self._arm(FaultEvent("hang", duration=calls, target=device_index))

    def corrupt(self, device_index: int, calls: int = 1) -> None:
        """Silently corrupt the next ``calls`` results of ``device_index``."""
        self._arm(FaultEvent("corrupt", duration=calls, target=device_index))

    def heal(self, device_index: int) -> None:
        """Clear any active fault and re-admit the device to scheduling.

        Also clears the pool's failed-device mark (when attached), so the
        next dispatch returns to this device wherever it is the primary
        replica -- this is the recovery the degraded-mode benchmark times.
        """
        self._active.pop(device_index, None)
        if self._host is not None:
            self._host.restore_device(device_index)

    def before_call(self, device_index: int) -> None:
        """Account one device call; raise if a kill/hang fault is active."""
        _, fault = self._consult(device_index)
        if fault is None or fault.mode == "corrupt":
            return
        # Hangs count down and clear themselves; kills persist until healed.
        self._spend(device_index)
        self.calls_blocked += 1
        raise DeviceFailedError(device_index, fault.mode)

    def after_call(self, device_index: int, result: np.ndarray) -> np.ndarray:
        """Apply an active ``corrupt`` fault to one device result."""
        fault = self._active.get(device_index)
        if fault is None or fault.mode != "corrupt":
            return result
        self._spend(device_index)
        corrupted = np.array(result, copy=True)
        flat = corrupted.reshape(-1)
        if flat.size:
            position, mask = self._flip(
                flat.size, device_index, self._calls.get(device_index, 0)
            )
            flat[position] ^= mask
            self.results_corrupted += 1
        return corrupted
