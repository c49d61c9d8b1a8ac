"""ReRAM device (cell) model.

DARTH-PUM uses ReRAM for both its analog and digital compute elements
(Section 2.2).  This module models a single device technology:

* a conductance range ``[g_min, g_max]`` (Siemens),
* a number of reliably programmable levels (``bits_per_cell``),
* programming (write--verify) behaviour, and
* the energy/latency cost of programming and reading.

The analog substrate maps multi-bit matrix values onto conductance levels;
the digital substrate uses the same devices in single-level-cell (SLC) mode
where only ``g_min`` (logic 0 / high resistance) and ``g_max`` (logic 1 /
low resistance) are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, QuantizationError

__all__ = ["DeviceParameters", "ConductanceMapper"]


@dataclass(frozen=True)
class DeviceParameters:
    """Electrical and cost parameters of a single ReRAM device.

    The defaults correspond to the 64x64-array ReRAM technology assumed in
    the paper's methodology (Section 6, Tables 2-3): a device that can hold
    up to ``max_bits_per_cell`` bits when programmed with a write--verify
    scheme, bounded by the precision of the programming ADC.
    """

    #: Minimum (off-state) conductance in Siemens.
    g_min: float = 1.0e-6
    #: Maximum (on-state) conductance in Siemens.
    g_max: float = 1.0e-4
    #: Maximum number of bits a device can reliably store (Section 2.2.1:
    #: effective precision of analog devices is ~6-12 bits; we use 8).
    max_bits_per_cell: int = 8
    #: Relative standard deviation of programming noise at the maximum
    #: conductance (MILO-style level-dependent noise).
    programming_noise_sigma: float = 0.01
    #: Relative standard deviation of read noise per access.
    read_noise_sigma: float = 0.002
    #: Probability that a device is stuck at g_min or g_max.
    stuck_at_probability: float = 0.0
    #: Latency of one write--verify programming pulse train, in cycles.
    program_latency_cycles: float = 100.0
    #: Energy of programming one device, in pJ.
    program_energy_pj: float = 10.0
    #: Energy of reading (sensing) one device, in pJ.
    read_energy_pj: float = 0.05

    def __post_init__(self) -> None:
        if self.g_min <= 0 or self.g_max <= 0:
            raise ConfigurationError("conductances must be positive")
        if self.g_min >= self.g_max:
            raise ConfigurationError("g_min must be smaller than g_max")
        if self.max_bits_per_cell < 1:
            raise ConfigurationError("max_bits_per_cell must be >= 1")
        if not 0.0 <= self.stuck_at_probability < 1.0:
            raise ConfigurationError("stuck_at_probability must be in [0, 1)")

    @property
    def conductance_range(self) -> float:
        """Usable conductance swing ``g_max - g_min``."""
        return self.g_max - self.g_min

    def levels(self, bits_per_cell: int) -> int:
        """Number of programmable levels for ``bits_per_cell`` bits."""
        if bits_per_cell < 1 or bits_per_cell > self.max_bits_per_cell:
            raise ConfigurationError(
                f"bits_per_cell must be in [1, {self.max_bits_per_cell}], got {bits_per_cell}"
            )
        return 2 ** bits_per_cell


class ConductanceMapper:
    """Maps digital values to device conductances.

    A mapper is configured for a fixed number of bits per cell.  Values in
    ``[0, 2**bits_per_cell - 1]`` are mapped linearly onto
    ``[g_min, g_max]``.
    """

    def __init__(self, params: DeviceParameters, bits_per_cell: int) -> None:
        self.params = params
        self.bits_per_cell = int(bits_per_cell)
        self.num_levels = params.levels(self.bits_per_cell)
        self._step = params.conductance_range / (self.num_levels - 1)

    def value_to_conductance(
        self, values: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Map integer level values to ideal (noise-free) conductances
        (into the float64 block ``out`` when given, after the range check)."""
        values = np.asarray(values)
        if values.size and (
            np.minimum.reduce(values, axis=None) < 0
            or np.maximum.reduce(values, axis=None) > self.num_levels - 1
        ):
            raise QuantizationError(
                f"values must be in [0, {self.num_levels - 1}] for "
                f"{self.bits_per_cell} bits per cell"
            )
        conductances = np.multiply(values, self._step, out=out)
        conductances += self.params.g_min  # in place: one block, not two
        return conductances

    def lsb_conductance(self) -> float:
        """Conductance difference corresponding to one least-significant bit."""
        return self._step
