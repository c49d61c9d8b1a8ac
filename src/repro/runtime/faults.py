"""Deterministic fault injection for the serving pool (chaos harness).

Resilience code is only as real as the machinery that exercises it.  This
module can make any device of a :class:`~repro.runtime.pool.DevicePool`
fail on demand -- or on a *seeded schedule* -- in three ways:

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
    calls: one deterministic bit flip per result array.  With verification
    off the pool serves the wrong answer (the chaos suite's negative
    control); with ``DevicePool(verify="full")`` the ABFT checksum tier
    (:mod:`repro.runtime.integrity`) detects the flip and re-executes the
    band on a replica.

All three are deterministic: triggers count per-device calls (not wall
clock), and the corruption mask is derived from ``(seed, device, call)`` so
results do not depend on the order devices are driven in.  The pool consults
the injector via :meth:`before_call` / :meth:`after_call` around every
device execution; attaching an injector to a pool is one call::

    injector = FaultInjector(seed=7).attach(pool)
    injector.kill(1)            # device 1 is now dead
    ... serve traffic ...       # shards retry on replicas
    injector.heal(1)            # device 1 rejoins (health mark cleared)

A randomized chaos campaign uses :meth:`FaultSchedule.from_seed` to derive
a reproducible event list, which the property-based invariant suite drives
alongside randomized submit/tick schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..errors import DeviceFailedError, SchedulerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import DevicePool

__all__ = [
    "FAULT_MODES",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
]

#: Supported fault modes.
FAULT_KILL = "kill"
FAULT_HANG = "hang"
FAULT_CORRUPT = "corrupt"
FAULT_MODES = (FAULT_KILL, FAULT_HANG, FAULT_CORRUPT)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: arm ``mode`` on ``device_index`` at a call count.

    ``after_call`` is the per-device call index (0-based) at which the fault
    activates: the fault fires starting with that call.  ``duration_calls``
    bounds how many calls the fault affects; ``None`` means "until healed"
    (the default for ``kill``).
    """

    device_index: int
    mode: str
    after_call: int = 0
    duration_calls: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise SchedulerError(
                f"unknown fault mode {self.mode!r}; expected one of {FAULT_MODES}"
            )
        if self.after_call < 0:
            raise SchedulerError("after_call must be >= 0")
        if self.duration_calls is not None and self.duration_calls < 1:
            raise SchedulerError("duration_calls must be >= 1 (or None)")


@dataclass(frozen=True)
class FaultSchedule:
    """A reproducible list of :class:`FaultEvent`, usually seed-derived."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    @classmethod
    def from_seed(
        cls,
        seed: int,
        num_devices: int,
        num_events: int = 3,
        horizon_calls: int = 32,
        modes: Tuple[str, ...] = FAULT_MODES,
    ) -> "FaultSchedule":
        """Derive a deterministic random schedule from ``seed``.

        Events are spread uniformly over ``[0, horizon_calls)`` per-device
        call counts; ``kill`` events get a bounded duration too (so a
        randomized campaign self-heals and conservation checks can run the
        queue dry afterwards).
        """
        if num_devices < 1:
            raise SchedulerError("a fault schedule needs at least one device")
        for mode in modes:
            if mode not in FAULT_MODES:
                raise SchedulerError(
                    f"unknown fault mode {mode!r}; expected one of {FAULT_MODES}"
                )
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFA017]))
        events = tuple(
            FaultEvent(
                device_index=int(rng.integers(0, num_devices)),
                mode=modes[int(rng.integers(0, len(modes)))],
                after_call=int(rng.integers(0, horizon_calls)),
                duration_calls=int(rng.integers(1, 5)),
            )
            for _ in range(num_events)
        )
        return cls(events=events, seed=int(seed))


class _ActiveFault:
    """Mutable state of one armed fault on one device."""

    __slots__ = ("mode", "remaining")

    def __init__(self, mode: str, remaining: Optional[int]) -> None:
        self.mode = mode
        #: Calls left before the fault clears itself (None = until healed).
        self.remaining = remaining


class FaultInjector:
    """Kill, hang, or corrupt pool devices deterministically.

    The injector is consulted by the pool around every device execution:
    :meth:`before_call` counts the call, arms any scheduled events that are
    due, and raises :class:`~repro.errors.DeviceFailedError` while a
    kill/hang fault is active; :meth:`after_call` applies the deterministic
    bit flip of an active ``corrupt`` fault.  Faults can also be armed
    imperatively (:meth:`kill` / :meth:`hang` / :meth:`corrupt`), which is
    what the chaos tests do to fail a specific device mid-load.

    The injector is *passive* until attached: ``attach(pool)`` registers it
    as ``pool.fault_injector`` (and lets :meth:`heal` clear the pool's
    health mark so traffic returns to the primary replica).
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.seed = seed if seed is not None else self.schedule.seed
        self._pool: Optional["DevicePool"] = None
        self._active: Dict[int, _ActiveFault] = {}
        self._calls: Dict[int, int] = {}
        self._pending: List[FaultEvent] = sorted(
            self.schedule.events, key=lambda e: (e.after_call, e.device_index)
        )
        #: Lifetime counters, exact (chaos tests assert against them).
        self.kills_triggered = 0
        self.hangs_triggered = 0
        self.corruptions_triggered = 0
        self.calls_blocked = 0
        self.results_corrupted = 0

    # ------------------------------------------------------------------ #
    # Wiring                                                               #
    # ------------------------------------------------------------------ #
    def attach(self, pool: "DevicePool") -> "FaultInjector":
        """Install this injector on ``pool`` (returns self for chaining).

        Idempotent: re-attaching to the same pool is a no-op, and attaching
        to a *different* pool first detaches from the old one -- an injector
        drives at most one pool, and a pool holds at most one injector.
        Attaching over a different injector already installed on ``pool``
        raises :class:`~repro.errors.SchedulerError`; detach that one first
        (stacked injectors would double-count calls and fire faults twice).
        """
        installed = pool.fault_injector
        if installed is self and self._pool is pool:
            return self
        if installed is not None and installed is not self:
            raise SchedulerError(
                "pool already has a FaultInjector attached; detach it before "
                "attaching another one"
            )
        if self._pool is not None and self._pool is not pool:
            self.detach()
        pool.fault_injector = self
        self._pool = pool
        return self

    def detach(self) -> None:
        """Remove this injector from its pool (faults stop firing).

        Idempotent: detaching an unattached injector is a no-op, and a
        pool whose injector was swapped out from under us is left alone.
        """
        if self._pool is not None and self._pool.fault_injector is self:
            self._pool.fault_injector = None
        self._pool = None

    # ------------------------------------------------------------------ #
    # Imperative fault control                                             #
    # ------------------------------------------------------------------ #
    def _arm(self, device_index: int, mode: str,
             duration_calls: Optional[int]) -> None:
        if mode == FAULT_KILL:
            self.kills_triggered += 1
        elif mode == FAULT_HANG:
            self.hangs_triggered += 1
        else:
            self.corruptions_triggered += 1
        self._active[device_index] = _ActiveFault(mode, duration_calls)

    def kill(self, device_index: int) -> None:
        """Make ``device_index`` dead until :meth:`heal` is called."""
        self._arm(device_index, FAULT_KILL, None)

    def hang(self, device_index: int, calls: int = 1) -> None:
        """Make ``device_index`` unresponsive for the next ``calls`` calls."""
        if calls < 1:
            raise SchedulerError("hang needs calls >= 1")
        self._arm(device_index, FAULT_HANG, calls)

    def corrupt(self, device_index: int, calls: int = 1) -> None:
        """Silently corrupt the next ``calls`` results of ``device_index``."""
        if calls < 1:
            raise SchedulerError("corrupt needs calls >= 1")
        self._arm(device_index, FAULT_CORRUPT, calls)

    def heal(self, device_index: int) -> None:
        """Clear any active fault and re-admit the device to scheduling.

        Also clears the pool's failed-device mark (when attached), so the
        next dispatch returns to this device wherever it is the primary
        replica -- this is the recovery the degraded-mode benchmark times.
        """
        self._active.pop(device_index, None)
        if self._pool is not None:
            self._pool.restore_device(device_index)

    def active_faults(self) -> Dict[int, str]:
        """Currently armed faults: device index -> mode."""
        return {index: fault.mode for index, fault in self._active.items()}

    # ------------------------------------------------------------------ #
    # Pool-facing hooks                                                    #
    # ------------------------------------------------------------------ #
    def before_call(self, device_index: int) -> None:
        """Account one device call; raise if a kill/hang fault is active."""
        call_index = self._calls.get(device_index, 0)
        self._calls[device_index] = call_index + 1
        # Arm scheduled events that are due for this device.  The pending
        # list is small (a handful of events), so the scan is cheap.
        due = [
            event for event in self._pending
            if event.device_index == device_index and event.after_call <= call_index
        ]
        for event in due:
            self._pending.remove(event)
            self._arm(event.device_index, event.mode, event.duration_calls)
        fault = self._active.get(device_index)
        if fault is None or fault.mode == FAULT_CORRUPT:
            return
        # kill/hang: this call fails.  Hang durations count down and clear
        # themselves; kills persist until healed.
        self.calls_blocked += 1
        kind = fault.mode
        if fault.remaining is not None:
            fault.remaining -= 1
            if fault.remaining <= 0:
                self._active.pop(device_index, None)
        raise DeviceFailedError(device_index, kind)

    def after_call(self, device_index: int, result: np.ndarray) -> np.ndarray:
        """Apply an active ``corrupt`` fault to one device result."""
        fault = self._active.get(device_index)
        if fault is None or fault.mode != FAULT_CORRUPT:
            return result
        if fault.remaining is not None:
            fault.remaining -= 1
            if fault.remaining <= 0:
                self._active.pop(device_index, None)
        # One deterministic bit flip, derived from (seed, device, call) so
        # the corruption is reproducible under any fan-out interleaving.
        call_index = self._calls.get(device_index, 0)
        rng = np.random.default_rng(
            np.random.SeedSequence([int(self.seed), device_index, call_index])
        )
        corrupted = np.array(result, copy=True)
        flat = corrupted.reshape(-1)
        if flat.size:
            flat[int(rng.integers(0, flat.size))] ^= np.int64(
                1 << int(rng.integers(0, 8))
            )
            self.results_corrupted += 1
        return corrupted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(active={self.active_faults()}, "
            f"pending={len(self._pending)}, blocked={self.calls_blocked})"
        )
