"""The analog/digital arbiter (Section 4.2).

Analog instructions take hundreds of cycles (ADC and array I/O), digital
ones take tens.  Dispatching both from one instruction stream risks a
younger digital instruction interleaving with (and corrupting) the reduction
sequence of an older analog MVM.  The arbiter locks each resource -- a
digital pipeline or an analog array group -- to either analog or digital use
until explicitly released, which both prevents interference and provides the
serialisation that makes an MVM appear atomic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

from ..errors import ArbiterConflictError

__all__ = ["Domain", "AnalogDigitalArbiter", "reserve"]


class Domain(Enum):
    """Which side of the tile currently owns a resource."""

    ANALOG = "analog"
    DIGITAL = "digital"


@dataclass
class AnalogDigitalArbiter:
    """Tracks per-resource ownership and completion times."""

    #: resource name -> (owning domain, busy-until cycle)
    _owners: Dict[str, Tuple[Domain, float]] = field(default_factory=dict)
    #: The owning tile's cycle clock: where its MVMs' reservations start
    #: (:func:`reserve` advances it).
    now: float = 0.0
    #: Number of conflicts that stalled an instruction (statistics).
    stall_events: int = 0
    #: Total cycles of stall introduced by serialisation.
    stall_cycles: float = 0.0

    def acquire(self, resource: str, domain: Domain, now: float, duration: float) -> float:
        """Request ``resource`` for ``domain`` starting at cycle ``now``.

        Returns the cycle at which the operation can actually start: if the
        resource is held by the *other* domain, the start is delayed until
        the older operation completes (younger instructions never overtake).
        Holding the resource in the *same* domain simply serialises.
        """
        start = now
        if resource in self._owners:
            owner, busy_until = self._owners[resource]
            if busy_until > now:
                start = busy_until
                self.stall_events += 1
                self.stall_cycles += busy_until - now
        self._owners[resource] = (domain, start + duration)
        return start

    def try_acquire(self, resource: str, domain: Domain, now: float, duration: float) -> float:
        """Like :meth:`acquire` but raises if the other domain holds the lock.

        Used by the functional model to detect genuine interference bugs
        (e.g. a digital op touching a pipeline that is receiving analog
        partial products without a prior ``pipeline reserve``).
        """
        if resource in self._owners:
            owner, busy_until = self._owners[resource]
            if busy_until > now and owner is not domain:
                raise ArbiterConflictError(
                    f"resource {resource!r} is busy with {owner.value} work until "
                    f"cycle {busy_until:.0f}; {domain.value} access at cycle {now:.0f} "
                    "would interleave with it"
                )
        return self.acquire(resource, domain, now, duration)

    def release(self, resource: str) -> None:
        """Explicitly release a resource (e.g. after an MVM's reduction)."""
        self._owners.pop(resource, None)

    def busy_until(self, resource: str) -> float:
        """Cycle at which ``resource`` becomes free (0 if unowned)."""
        if resource not in self._owners:
            return 0.0
        return self._owners[resource][1]

    def owner(self, resource: str) -> Domain | None:
        """Domain currently owning ``resource`` (None if unowned)."""
        if resource not in self._owners:
            return None
        return self._owners[resource][0]


def reserve(reservations) -> None:
    """Commit MVMs' output-pipeline holds and clock advances, in order.

    Per ``(arbiter, resources, cycles, advance)``: every resource is
    acquired for the analog domain at the arbiter's clock for ``cycles``,
    then the clock moves on by ``advance``.  The schedule commit of every
    interpreter and the replay of a bound receipt both reserve through here.
    """
    for arbiter, resources, cycles, advance in reservations:
        for resource in resources:
            arbiter.acquire(resource, Domain.ANALOG, arbiter.now, cycles)
        arbiter.now += advance
