"""The analog/digital arbiter (Section 4.2).

Analog instructions take hundreds of cycles (ADC and array I/O), digital
ones take tens.  Dispatching both from one instruction stream risks a
younger digital instruction interleaving with (and corrupting) the reduction
sequence of an older analog MVM.  The arbiter holds each resource -- a
digital pipeline or an analog array group -- for one domain until the
operation that acquired it completes: a younger operation on the same
resource starts only then, which both prevents interference and provides the
serialisation that makes an MVM appear atomic.

The arbiter is a replay target, like a tile's ledger (:mod:`repro.metrics`):
a steady replayed MVM only counts itself on its program's
:class:`~repro.metrics.Pending` record, and the arbiter folds those calls --
each the same reservation, in order, stalls included -- the first time one
of its fields is read or written.  So ``now``, ``_owners``,
``stall_events`` and ``stall_cycles`` read what reserving every call at
once would have left, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Sequence, Tuple

from ..metrics import _SETTLING, Settled, settle

__all__ = ["Domain", "AnalogDigitalArbiter"]


class Domain(Enum):
    """Which side of the tile currently owns a resource."""

    ANALOG = "analog"
    DIGITAL = "digital"


def _hold(state: dict, resource: str, domain: Domain, now: float, duration: float) -> float:
    """The acquire rule on an arbiter's storage ``state`` (its ``__dict__``,
    already settled): see :meth:`AnalogDigitalArbiter.acquire`."""
    owners = state["__owners"]
    start = now
    held = owners.get(resource)
    if held is not None and held[1] > now:
        start = held[1]
        state["_stall_events"] += 1
        state["_stall_cycles"] += start - now
    owners[resource] = (domain, start + duration)
    return start


@dataclass
class AnalogDigitalArbiter:
    """Tracks per-resource ownership and completion times.

    The four fields are :class:`~repro.metrics.Settled`: every read and
    write of them folds the calls a pending replay program made first.
    """

    #: resource name -> (owning domain, busy-until cycle)
    _owners: Dict[str, Tuple[Domain, float]] = field(default_factory=dict)
    #: The owning tile's cycle clock: where its MVMs' reservations start
    #: (:meth:`reserve` advances it).
    now: float = 0.0
    #: Number of conflicts that stalled an instruction (statistics).
    stall_events: int = 0
    #: Total cycles of stall introduced by serialisation.
    stall_cycles: float = 0.0
    _claim = None

    def acquire(self, resource: str, domain: Domain, now: float, duration: float) -> float:
        """Request ``resource`` for ``domain`` starting at cycle ``now``.

        Returns the cycle at which the operation can actually start: if the
        resource is held by the *other* domain, the start is delayed until
        the older operation completes (younger instructions never overtake).
        Holding the resource in the *same* domain simply serialises.
        """
        with _SETTLING:  # a read on another thread may be folding
            settle(self)
            return _hold(self.__dict__, resource, domain, now, duration)

    def reserve(self, resources: Sequence[str], cycles: float, advance: float) -> None:
        """Commit one MVM at once: every resource is acquired for the
        analog domain at the clock for ``cycles``, then the clock moves on
        by ``advance``.  The schedule commit of the reference and gate-level
        interpreters reserves through here, one :meth:`acquire` per
        resource; a replayed call folds the same reservation later
        (:meth:`_fold`), and the tests hold the two equal."""
        with _SETTLING:
            now = self.now
            for resource in resources:
                self.acquire(resource, Domain.ANALOG, now, cycles)
            self.now = now + advance

    def _fold(self, reservation: Tuple[Sequence[str], float, float], calls: int) -> None:
        """``calls`` reservations ``(resources, cycles, advance)``, in order.

        Each call is :meth:`reserve`'s: the acquire rule per resource, then
        one addition to the clock.  Once a call has not stalled, none after
        it does where ``cycles <= advance``: every hold it left ends by the
        next call's start, as float rounding is monotone (and a resource it
        held twice, it held for no cycles).  So the rest only add the
        advance to the clock, one addition per call as :meth:`reserve`
        makes them (``k`` additions of a float are not ``k`` times it), and
        only the last call's holds are left.
        """
        resources, cycles, advance = reservation
        state = self.__dict__
        now = state["_now"]
        steady = cycles <= advance
        while calls:
            calls -= 1
            stalls = state["_stall_events"]
            for resource in resources:
                _hold(state, resource, Domain.ANALOG, now, cycles)
            now += advance
            if steady and stalls == state["_stall_events"]:
                break
        if calls:
            for _ in range(calls - 1):
                now += advance
            held = (Domain.ANALOG, now + cycles)
            owners = state["__owners"]
            for resource in resources:
                owners[resource] = held
            now += advance
        state["_now"] = now


# The dataclass made ``__init__``, ``__repr__`` and ``__eq__`` over the four
# fields; from here on they are read and written through :class:`Settled`.
for _name in ("_owners", "now", "stall_events", "stall_cycles"):
    setattr(AnalogDigitalArbiter, _name, Settled(_name))
