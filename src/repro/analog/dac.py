"""Digital-to-analog converter (wordline driver) model.

With input bit-slicing (Section 2.2.1) each wordline only ever receives a
one-bit input per cycle, so the "DAC" degenerates to a two-level driver:
what the model keeps of it is the cost of driving a step's wordlines.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DacSpec", "DigitalToAnalogConverter"]


@dataclass(frozen=True)
class DacSpec:
    """Cost parameters of a wordline driver."""

    power_mw: float = 0.01
    conversion_cycles: float = 1.0


class DigitalToAnalogConverter:
    """The wordline drivers of one array: what driving an input costs."""

    spec = DacSpec()

    def drive_latency(self, num_wordlines: int) -> float:
        """Cycles to drive ``num_wordlines`` inputs (all wordlines parallel)."""
        return self.spec.conversion_cycles

    def drive_energy_pj(self, num_wordlines: int) -> float:
        """Energy to drive ``num_wordlines`` inputs (pJ)."""
        return num_wordlines * self.spec.power_mw * self.spec.conversion_cycles
