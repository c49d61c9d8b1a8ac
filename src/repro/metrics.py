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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "ChargeRuns",
    "CostLedger",
    "CostSnapshot",
    "checked_runs",
    "ema",
    "merge_ledgers",
    "geometric_mean",
    "percentile",
    "percentile_sorted",
]

#: Cycles per second of the modelled DARTH-PUM clock (Section 6: 1 GHz).
CLOCK_HZ = 1.0e9

#: Seconds per cycle.
CYCLE_SECONDS = 1.0 / CLOCK_HZ

#: A charge stream in run-length form: ``(category, count, cycles,
#: energy_pj)`` per run of ``count`` identical charges.
ChargeRuns = Tuple[Tuple[str, int, float, float], ...]


def checked_runs(runs: Iterable[Tuple[str, int, float, float]]) -> ChargeRuns:
    """``runs`` as :meth:`CostLedger.charge_stream` replays them.

    Costs become floats and empty runs (``count < 1``) are dropped; a
    negative or NaN cost raises what :meth:`CostLedger.charge` raises for it.
    """
    checked = tuple((name, n, float(c), float(e)) for name, n, c, e in runs if n >= 1)
    if not all(c >= 0 and e >= 0 for _, _, c, e in checked):
        raise ValueError("cycles and energy must be non-negative")
    return checked


@dataclass(frozen=True)
class CostSnapshot:
    """An immutable view of a ledger, useful for before/after deltas."""

    cycles: float
    energy_pj: float
    cycle_breakdown: Mapping[str, float]
    energy_breakdown: Mapping[str, float]

    @property
    def seconds(self) -> float:
        """Wall-clock seconds implied by the cycle count at 1 GHz."""
        return self.cycles * CYCLE_SECONDS

    @property
    def energy_joules(self) -> float:
        """Total energy in joules."""
        return self.energy_pj * 1e-12


@dataclass
class CostLedger:
    """Accumulates cycles and energy, each attributed to a named category.

    Categories are free-form strings such as ``"ace.mvm"`` or
    ``"dce.nor"``; the evaluation harness groups them by prefix when
    building per-kernel breakdowns (e.g. Figure 14).

    Totals are float sums, so they depend on the order of the additions:
    two interpreters of one schedule agree bit for bit only if they add the
    same values in the same order.  :meth:`charge_stream` therefore replays
    a run of ``count`` identical charges as ``count`` additions, never as
    ``count * value`` -- except where the product provably *is* the loop's
    sum.  That is a cycle run whose value ``v``, running total ``t`` and
    category part ``p`` are all integers with ``t + count * v`` and ``p +
    count * v`` below 2**53: every partial sum ``t + k * v`` of the loop is
    then an integer below 2**53, hence a float64, hence every addition of
    the loop is exact and it ends on exactly ``t + count * v``; ``count *
    v`` is such an integer too, so the product and the one addition round
    nothing either.  Fractional values, parts or totals (every energy), and
    sums reaching 2**53, take the loop.
    """

    cycles: float = 0.0
    energy_pj: float = 0.0
    cycle_breakdown: Dict[str, float] = field(default_factory=dict)
    energy_breakdown: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, *, cycles: float = 0.0, energy_pj: float = 0.0) -> None:
        """Add ``cycles`` and ``energy_pj`` under ``category``."""
        if not (cycles >= 0 and energy_pj >= 0):  # written so that NaN fails too
            raise ValueError("cycles and energy must be non-negative")
        if cycles:
            self.cycles += cycles
            self.cycle_breakdown[category] = self.cycle_breakdown.get(category, 0.0) + cycles
        if energy_pj:
            self.energy_pj += energy_pj
            self.energy_breakdown[category] = (
                self.energy_breakdown.get(category, 0.0) + energy_pj
            )

    def charge_stream(self, runs: ChargeRuns) -> None:
        """Replay a charge stream given as runs, in one frame.

        Each run ``(category, count, cycles, energy_pj)`` stands for ``count``
        successive identical :meth:`charge` calls, and ``runs`` for those
        calls back to back: totals, breakdowns and the breakdowns' key order
        end up as the separate calls leave them.  ``runs`` comes from
        :func:`checked_runs` (float costs, no empty run), which is where a
        negative or NaN cost is refused -- once, when the stream is
        compiled, not per replay.

        The additions happen one by one on local variables; an integral
        cycle run below 2**53 is added as one product (exact: see the class
        docstring).
        """
        cycle_parts, energy_parts = self.cycle_breakdown, self.energy_breakdown
        cycle_total, energy_total = self.cycles, self.energy_pj
        for category, count, cycles, energy_pj in runs:
            if cycles:
                part = cycle_parts.get(category, 0.0)
                added = count * cycles
                if (
                    cycle_total + added < 2.0 ** 53 and part + added < 2.0 ** 53
                    and cycles.is_integer() and cycle_total.is_integer() and part.is_integer()
                ):
                    cycle_total += added
                    part += added
                else:
                    for _ in range(count):
                        cycle_total += cycles
                        part += cycles
                cycle_parts[category] = part
            if energy_pj:
                part = energy_parts.get(category, 0.0)
                for _ in range(count):
                    energy_total += energy_pj
                    part += energy_pj
                energy_parts[category] = part
        self.cycles, self.energy_pj = cycle_total, energy_total

    def charge_power(self, category: str, *, cycles: float, power_mw: float) -> None:
        """Charge ``cycles`` of activity at ``power_mw``; energy follows at 1 GHz."""
        self.charge(category, cycles=cycles, energy_pj=cycles * power_mw)

    def merge(self, other: "CostLedger") -> None:
        """Fold ``other`` into this ledger in place."""
        self.cycles += other.cycles
        self.energy_pj += other.energy_pj
        for key, value in other.cycle_breakdown.items():
            self.cycle_breakdown[key] = self.cycle_breakdown.get(key, 0.0) + value
        for key, value in other.energy_breakdown.items():
            self.energy_breakdown[key] = self.energy_breakdown.get(key, 0.0) + value

    def snapshot(self) -> CostSnapshot:
        """Return an immutable copy of the current totals."""
        return CostSnapshot(
            cycles=self.cycles,
            energy_pj=self.energy_pj,
            cycle_breakdown=dict(self.cycle_breakdown),
            energy_breakdown=dict(self.energy_breakdown),
        )

    def reset(self) -> None:
        """Zero the ledger."""
        self.cycles = 0.0
        self.energy_pj = 0.0
        self.cycle_breakdown.clear()
        self.energy_breakdown.clear()

    def cycles_for(self, prefix: str) -> float:
        """Total cycles across all categories starting with ``prefix``."""
        return sum(v for k, v in self.cycle_breakdown.items() if k.startswith(prefix))

    def energy_for(self, prefix: str) -> float:
        """Total energy (pJ) across all categories starting with ``prefix``."""
        return sum(v for k, v in self.energy_breakdown.items() if k.startswith(prefix))

    @property
    def seconds(self) -> float:
        """Wall-clock seconds implied by the cycle count at 1 GHz."""
        return self.cycles * CYCLE_SECONDS

    @property
    def energy_joules(self) -> float:
        """Total energy in joules."""
        return self.energy_pj * 1e-12


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

    The serving autotuner smooths its telemetry windows (batch fill, shed
    rate) through this before nudging any knob, so a single quiet window
    cannot whipsaw the scheduler.

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
