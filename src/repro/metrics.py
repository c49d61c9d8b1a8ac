"""Cycle, energy, and area accounting primitives.

Every simulated component charges its work against a :class:`CostLedger`.
Ledgers are cheap, additive, and serialisable, which lets the evaluation
harness build the paper's figures from per-kernel breakdowns without the
components knowing anything about the experiments.

Units used throughout the library:

* time    -- clock cycles of the 1 GHz DARTH-PUM clock (1 cycle == 1 ns)
* energy  -- picojoules (pJ)
* area    -- square micrometres (um^2)
* power   -- milliwatts (mW); ``energy_pj = power_mw * cycles`` at 1 GHz
             because 1 mW * 1 ns == 1 pJ.

A ledger stores both quantities as Python ints on a grid of :data:`UNITS`
per cycle and per pJ (an energy unit is one zeptojoule).  :func:`units`
puts a float on the grid once, where a charge, run, receipt or plan is
built; after that every sum is exact, so a total does not depend on the
order of its additions.  The public reads (``cycles``, ``energy_pj``, the
breakdowns, :meth:`CostLedger.snapshot`) convert back to cycles and pJ.

A replay program (``repro.plan.backends._replay``) charges a steady call
lazily: it counts the call on its :class:`Pending` record, and each target
-- a ledger, a crossbar's ``mvm_count``, a tile's IIU and transpose-unit
counters, a tile's arbiter -- folds ``calls x tally`` (an arbiter: the
reservation ``calls`` times) into its :class:`Settled` fields the first
time one of them is read or written (:func:`settle`).  A target holds
at most one pending program (:func:`claim`), so what it reads is what
charging every call at once would have left, to the unit and in category
order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "ChargeRuns",
    "CostLedger",
    "CostSnapshot",
    "charge_streams",
    "checked_runs",
    "ema",
    "merge_ledgers",
    "geometric_mean",
    "percentile",
    "percentile_sorted",
]

#: Ledger units per cycle and per pJ: a 10**-9 grid.  Cycles need it too,
#: as a charge may be a fraction of a cycle.
UNITS = 10 ** 9

_INFINITY = float("inf")

#: A charge stream in run-length form: ``(category, count, cycles,
#: energy_pj)`` per run of ``count`` identical charges.
ChargeRuns = Tuple[Tuple[str, int, float, float], ...]

#: A charge stream folded onto the grid: ``(cycle_units, energy_units,
#: ((category, cycle_units), ...), ((category, energy_units), ...))``, the
#: categories in order of first appearance, those charged zero left out.
Tally = Tuple[int, int, Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]]


def units(value: float) -> int:
    """``value`` (cycles or pJ) on the ledger grid: the nearest multiple of
    ``1 / UNITS``, counted.

    The same float always maps to the same int, and an integral value maps
    exactly (``int(value) * UNITS``).  A negative, NaN or infinite value
    raises :class:`ValueError`.
    """
    value = float(value)
    if not 0.0 <= value < _INFINITY:  # written so that NaN fails too
        raise ValueError("cycles and energy must be finite and non-negative")
    whole = int(value)
    return whole * UNITS + round((value - whole) * UNITS)


def tally(charges: Iterable[Tuple[str, int, int]]) -> Tally:
    """``(category, cycle_units, energy_units)`` charges folded per category."""
    cycle_parts: Dict[str, int] = {}
    energy_parts: Dict[str, int] = {}
    for category, cycles, energy in charges:
        if cycles:
            cycle_parts[category] = cycle_parts.get(category, 0) + cycles
        if energy:
            energy_parts[category] = energy_parts.get(category, 0) + energy
    return (sum(cycle_parts.values()), sum(energy_parts.values()),
            tuple(cycle_parts.items()), tuple(energy_parts.items()))


def checked_runs(runs: Iterable[Tuple[str, int, float, float]]) -> Tally:
    """``runs`` as :meth:`CostLedger.charge_stream` takes them: each cost
    put on the grid once, each run one multiply, folded per category.

    Empty runs (``count < 1``) are dropped; a negative, NaN or infinite cost
    raises what :meth:`CostLedger.charge` raises for it.
    """
    return tally((name, n * units(c), n * units(e)) for name, n, c, e in runs if n >= 1)


@dataclass(frozen=True)
class CostSnapshot:
    """An immutable view of a ledger, useful for before/after deltas."""

    cycles: float
    energy_pj: float
    cycle_breakdown: Mapping[str, float]
    energy_breakdown: Mapping[str, float]


class Pending:
    """The calls a replay program has made since it was bound: ``calls``
    counts them (only the replaying thread writes it), and ``claimed`` says
    whether the program is still the pending one of each of its targets."""

    calls = 0
    claimed = False


#: Held while a target folds or changes hands: a read on another thread
#: cannot fold the same calls twice.
_SETTLING = threading.RLock()


def settle(target) -> None:
    """Fold into ``target`` what its pending program replayed since the
    target last folded: ``calls x amount`` through ``target._fold``."""
    held = target._claim
    if held is not None and held[0].calls != held[2]:
        with _SETTLING:
            held = target._claim
            folded, held[2] = held[2], held[0].calls
            if held[2] != folded:
                target._fold(held[1], held[2] - folded)


def claim(pending: Pending, effects) -> None:
    """Count one call of ``pending``'s program by charging it at once, and
    make the program the pending one of every ``(target, amount)`` in
    ``effects``: what a target held is folded first, and the program that
    held it is told it no longer does.  So the call that claims a target
    adds its categories to a ledger where charging it would have."""
    with _SETTLING:
        for target, amount in effects:
            settle(target)
            if target._claim is not None:
                target._claim[0].claimed = False
            target._fold(amount, 1)
            target._claim = [pending, amount, pending.calls + 1]
        pending.calls += 1
        pending.claimed = True


class Settled:
    """The additive field ``name`` of a replay target, stored as
    ``_<name>``: every read and write settles the target first.  Read on
    the class, it is 0 (the default a dataclass takes for it)."""

    def __init__(self, name: str) -> None:
        self.name = "_" + name

    def __get__(self, target, owner=None):
        if target is None:
            return 0
        if target._claim is not None:
            settle(target)
        return target.__dict__[self.name]

    def __set__(self, target, value) -> None:
        settle(target)
        target.__dict__[self.name] = value


@dataclass
class CostLedger:
    """Accumulates cycles and energy, each attributed to a named category.

    Categories are free-form strings such as ``"ace.mvm"`` or
    ``"dce.nor"``; the evaluation harness groups them by prefix when
    building per-kernel breakdowns (e.g. Figure 14).

    Everything is held in integer grid units (:data:`UNITS` per cycle and
    per pJ, see the module docstring): the totals and, per category, the
    parts, the breakdowns keeping their categories in order of first
    charge.  A charge is put on the grid when it is made, so two ledgers
    charged the same values hold the same ints whatever the order of the
    charges or merges.  ``cycles``, ``energy_pj``, ``cycle_breakdown`` and
    ``energy_breakdown`` read them back in cycles and pJ.

    A tile's ledger is a replay target: the four fields are
    :class:`Settled`, so every read of them (``repr``, ``==``,
    :meth:`snapshot`, :meth:`merge`) and every charge first folds the calls
    its pending replay program made.
    """

    cycle_units: int = 0
    energy_units: int = 0
    cycle_parts: Dict[str, int] = field(default_factory=dict)
    energy_parts: Dict[str, int] = field(default_factory=dict)
    _claim = None

    @property
    def cycles(self) -> float:
        """Total cycles."""
        return self.cycle_units / UNITS

    @property
    def energy_pj(self) -> float:
        """Total energy in pJ."""
        return self.energy_units / UNITS

    @property
    def cycle_breakdown(self) -> Dict[str, float]:
        """Cycles per category (a new dict)."""
        return {key: value / UNITS for key, value in self.cycle_parts.items()}

    @property
    def energy_breakdown(self) -> Dict[str, float]:
        """pJ per category (a new dict)."""
        return {key: value / UNITS for key, value in self.energy_parts.items()}

    def charge(self, category: str, *, cycles: float = 0.0, energy_pj: float = 0.0) -> None:
        """Add ``cycles`` and ``energy_pj`` under ``category``.

        A negative, NaN or infinite cost raises :class:`ValueError` before
        anything is added.
        """
        cycles = units(cycles) if cycles else 0
        energy = units(energy_pj) if energy_pj else 0
        charge_streams(((self, (cycles, energy, ((category, cycles),) if cycles else (),
                                ((category, energy),) if energy else ())),))

    def charge_stream(self, totals: Tally) -> None:
        """Add a charge stream compiled by :func:`checked_runs` (or
        :func:`tally`): its totals, then its parts per category."""
        charge_streams(((self, totals),))

    def merge(self, other: "CostLedger") -> None:
        """Fold ``other`` into this ledger in place: its parts are copied
        first, each dict in one step, so a ledger another thread charges
        meanwhile merges whole."""
        cycles, energy = tuple(other.cycle_parts.items()), tuple(other.energy_parts.items())
        self.charge_stream((sum(value for _, value in cycles),
                            sum(value for _, value in energy), cycles, energy))

    def snapshot(self) -> CostSnapshot:
        """Return an immutable copy of the current totals."""
        return CostSnapshot(
            cycles=self.cycles,
            energy_pj=self.energy_pj,
            cycle_breakdown=self.cycle_breakdown,
            energy_breakdown=self.energy_breakdown,
        )

    def _fold(self, totals: Tally, calls: int) -> None:
        charge_streams(((self, totals),), calls)


def charge_streams(charges: Iterable[Tuple[CostLedger, Tally]], calls: int = 1) -> None:
    """:meth:`CostLedger.charge_stream` of each ``(ledger, tally)``,
    ``calls`` times, in order, in one frame: the body of every stream
    update, how a replay program charges the ledger it charges at once (the
    device's runtime ledger) and how a ledger folds its pending calls.
    Each ledger is settled first."""
    for ledger, (cycles, energy, cycle_items, energy_items) in charges:
        if ledger._claim is not None:
            settle(ledger)
        ledger._cycle_units += calls * cycles
        ledger._energy_units += calls * energy
        parts = ledger._cycle_parts
        for category, value in cycle_items:
            parts[category] = parts.get(category, 0) + calls * value
        parts = ledger._energy_parts
        for category, value in energy_items:
            parts[category] = parts.get(category, 0) + calls * value


# The dataclass made ``__init__``, ``__repr__`` and ``__eq__`` over the four
# fields; from here on they are read and written through :class:`Settled`.
for _name in ("cycle_units", "energy_units", "cycle_parts", "energy_parts"):
    setattr(CostLedger, _name, Settled(_name))


def merge_ledgers(ledgers: Iterable[CostLedger]) -> CostLedger:
    """Return a new ledger containing the sum of ``ledgers``."""
    total = CostLedger()
    for ledger in ledgers:
        total.merge(ledger)
    return total


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, linearly interpolated.

    Used by the serving telemetry for p50/p95/p99 latency summaries; kept
    here (pure Python, no numpy) so ledgers and telemetry share one home.

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    >>> percentile([10], 99)
    10.0
    """
    return percentile_sorted(sorted(float(v) for v in values), q)


def percentile_sorted(ordered: "list[float]", q: float) -> float:
    """:func:`percentile` over values already sorted ascending.

    The sort is the whole cost of a percentile query, so callers that keep
    a sorted window (e.g. the serving telemetry, which re-sorts only when a
    batch completes) query through this entry point and skip it.

    >>> percentile_sorted([1, 2, 3, 4], 50)
    2.5
    """
    if not ordered:
        raise ValueError("percentile() requires at least one value")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile() expects q in [0, 100]")
    position = (len(ordered) - 1) * (q / 100.0)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return float(ordered[low]) * (1.0 - fraction) + float(ordered[high]) * fraction


def ema(previous: "float | None", value: float, alpha: float) -> float:
    """One exponential-moving-average step, seeding on the first observation.

    The integrity tier smooths each device's health score through this
    (:class:`~repro.runtime.integrity.DeviceHealth`), so a single clean or
    corrupted call cannot swing it from one end to the other.

    >>> ema(None, 4.0, 0.5)
    4.0
    >>> ema(4.0, 8.0, 0.5)
    6.0
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("ema() expects alpha in (0, 1]")
    if previous is None:
        return float(value)
    return alpha * float(value) + (1.0 - alpha) * float(previous)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (used for figure geomeans)."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean() requires at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean() requires strictly positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
