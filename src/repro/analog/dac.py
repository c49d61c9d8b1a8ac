"""Digital-to-analog converter (wordline driver) model.

With input bit-slicing (Section 2.2.1) each wordline only ever receives a
one-bit input per cycle, so the "DAC" degenerates to a simple two-level
driver; the model nevertheless supports multi-bit input DACs so the library
can also express non-bit-sliced analog accelerators (e.g. the AppAccel
baselines).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["DacSpec", "DigitalToAnalogConverter"]


@dataclass(frozen=True)
class DacSpec:
    """Resolution and cost parameters of a wordline DAC/driver."""

    resolution_bits: int = 1
    area_um2: float = 2.0
    power_mw: float = 0.01
    conversion_cycles: float = 1.0

    def __post_init__(self) -> None:
        if self.resolution_bits < 1:
            raise ConfigurationError("DAC resolution must be at least 1 bit")


class DigitalToAnalogConverter:
    """The wordline drivers of one array: what driving an input costs."""

    def __init__(self, spec: DacSpec | None = None) -> None:
        self.spec = spec if spec is not None else DacSpec()

    def drive_latency(self, num_wordlines: int) -> float:
        """Cycles to drive ``num_wordlines`` inputs (all wordlines parallel)."""
        return self.spec.conversion_cycles

    def drive_energy_pj(self, num_wordlines: int) -> float:
        """Energy to drive ``num_wordlines`` inputs (pJ)."""
        return num_wordlines * self.spec.power_mw * self.spec.conversion_cycles
