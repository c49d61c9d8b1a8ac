"""The analog/digital arbiter (Section 4.2).

Analog instructions take hundreds of cycles (ADC and array I/O), digital
ones take tens.  Dispatching both from one instruction stream risks a
younger digital instruction interleaving with (and corrupting) the reduction
sequence of an older analog MVM.  The arbiter holds each resource -- a
digital pipeline or an analog array group -- for one domain until the
operation that acquired it completes: a younger operation on the same
resource starts only then, which both prevents interference and provides the
serialisation that makes an MVM appear atomic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

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
