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
from typing import Dict, Iterable, Mapping

__all__ = [
    "CostLedger",
    "CostSnapshot",
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
    """

    cycles: float = 0.0
    energy_pj: float = 0.0
    cycle_breakdown: Dict[str, float] = field(default_factory=dict)
    energy_breakdown: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, *, cycles: float = 0.0, energy_pj: float = 0.0) -> None:
        """Add ``cycles`` and ``energy_pj`` under ``category``."""
        if cycles < 0 or energy_pj < 0:
            raise ValueError("cycles and energy must be non-negative")
        if cycles:
            self.cycles += cycles
            self.cycle_breakdown[category] = self.cycle_breakdown.get(category, 0.0) + cycles
        if energy_pj:
            self.energy_pj += energy_pj
            self.energy_breakdown[category] = (
                self.energy_breakdown.get(category, 0.0) + energy_pj
            )

    def charge_run(
        self, category: str, count: int, *, cycles: float = 0.0, energy_pj: float = 0.0
    ) -> None:
        """Replay ``count`` successive identical :meth:`charge` calls.

        Run-length form of a charge stream: the additions happen one by one
        on local variables, so every intermediate float sum -- totals and
        breakdowns -- is the one ``count`` separate calls produce.  Repeated
        addition is not ``count * value`` in floating point, so the run is
        never multiplied out.
        """
        if cycles < 0 or energy_pj < 0:
            raise ValueError("cycles and energy must be non-negative")
        if count < 1:
            return
        cycle_total = self.cycles
        cycle_part = self.cycle_breakdown.get(category, 0.0)
        energy_total = self.energy_pj
        energy_part = self.energy_breakdown.get(category, 0.0)
        for _ in range(count):  # adding a zero is exact, so one loop serves both
            cycle_total += cycles
            cycle_part += cycles
            energy_total += energy_pj
            energy_part += energy_pj
        if cycles:
            self.cycles = cycle_total
            self.cycle_breakdown[category] = cycle_part
        if energy_pj:
            self.energy_pj = energy_total
            self.energy_breakdown[category] = energy_part

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
