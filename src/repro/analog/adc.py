"""Analog-to-digital converter models (Section 2.2.1, Section 4.1, 7.3).

Two ADC families matter for DARTH-PUM:

* **SAR ADCs** binary-search the input range, finishing a single conversion
  in one (pipelined) cycle, but each SAR ADC serves many bitlines through an
  analog multiplexer, so converting a whole array output takes one cycle per
  bitline per ADC.
* **Ramp ADCs** sweep a shared reference over all levels (256 cycles for an
  8-bit conversion) but digitise *every* bitline in parallel, and can be
  terminated early when only a few output states matter (the AES MixColumns
  trick in Section 5.3 needs only 4 of the 256 steps).

Both models perform real quantisation of the analog column outputs and
charge latency and energy according to Table 3 (their area is a
:class:`~repro.core.area.Table3` constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["AdcSpec", "AnalogToDigitalConverter", "SarAdc", "RampAdc", "make_adc"]


@dataclass(frozen=True)
class AdcSpec:
    """Resolution and cost parameters of an ADC family (Table 3)."""

    resolution_bits: int = 8
    power_mw: float = 1.5
    #: Cycles to digitise a single sample.
    conversion_cycles: float = 1.0
    #: How many bitlines can be converted concurrently by one ADC.
    parallel_lanes: int = 1

    def __post_init__(self) -> None:
        if self.resolution_bits < 1:
            raise ConfigurationError("ADC resolution must be at least 1 bit")
        if self.parallel_lanes < 1:
            raise ConfigurationError("ADC must serve at least one lane")

    @property
    def levels(self) -> int:
        """Number of representable output codes."""
        return 2 ** self.resolution_bits


class AnalogToDigitalConverter:
    """Base ADC: quantises a vector of analog values to integer codes.

    The converter is configured with a full-scale range ``[min_value,
    max_value]`` in the *value domain* (i.e. after the crossbar's currents
    have been normalised by the LSB conductance), mirroring how write-verify
    programming calibrates the ADC reference ladder.
    """

    kind = "generic"

    #: The family's resolution and cost (Table 3); set by each family.
    spec: AdcSpec

    def __init__(self, min_value: float = 0.0, max_value: float = 255.0) -> None:
        if max_value <= min_value:
            raise ConfigurationError("ADC range must have max_value > min_value")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self._step = (self.max_value - self.min_value) / (self.spec.levels - 1)

    @property
    def lsb(self) -> float:
        """Value-domain width of one ADC code."""
        return self._step

    def convert(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantise ``values`` to the nearest ADC code and return the codes
        mapped back into the value domain (integers).

        ``out`` (a float64 block shaped like ``values``, which it may be)
        receives the result; the arithmetic is the same either way.
        """
        values = np.asarray(values, dtype=float)
        codes = np.subtract(
            values, self.min_value, out=np.empty_like(values) if out is None else out
        )
        codes /= self._step
        np.rint(codes, out=codes)
        np.clip(codes, 0, self.spec.levels - 1, out=codes)
        codes *= self._step
        codes += self.min_value
        return codes

    # ------------------------------------------------------------------ #
    # Cost model                                                          #
    # ------------------------------------------------------------------ #
    def conversion_latency(self, num_bitlines: int, num_adcs: int, active_bits: int | None = None) -> float:
        """Cycles to digitise ``num_bitlines`` outputs using ``num_adcs`` ADCs."""
        raise NotImplementedError

    def conversion_energy_pj(self, num_bitlines: int, active_bits: int | None = None) -> float:
        """Energy to digitise ``num_bitlines`` outputs (pJ)."""
        raise NotImplementedError


class SarAdc(AnalogToDigitalConverter):
    """Successive-approximation ADC: 1-cycle conversions, multiplexed lanes."""

    kind = "sar"
    spec = AdcSpec(resolution_bits=8, power_mw=1.5, conversion_cycles=1.0)

    def conversion_latency(self, num_bitlines: int, num_adcs: int, active_bits: int | None = None) -> float:
        if num_adcs < 1:
            raise ConfigurationError("at least one ADC is required")
        conversions_per_adc = int(np.ceil(num_bitlines / num_adcs))
        return conversions_per_adc * self.spec.conversion_cycles

    def conversion_energy_pj(self, num_bitlines: int, active_bits: int | None = None) -> float:
        # One conversion per bitline; power * cycles at 1 GHz is pJ.
        return num_bitlines * self.spec.power_mw * self.spec.conversion_cycles


class RampAdc(AnalogToDigitalConverter):
    """Ramp (single-slope) ADC: slow sweeps, all bitlines in parallel.

    ``active_bits`` allows early termination: AES MixColumns only needs the
    bottom two bits of the conversion (Section 7.3), reducing the sweep from
    256 steps to 4.
    """

    kind = "ramp"
    spec = AdcSpec(resolution_bits=8, power_mw=1.2, conversion_cycles=256.0, parallel_lanes=64)

    def conversion_latency(self, num_bitlines: int, num_adcs: int, active_bits: int | None = None) -> float:
        if num_adcs < 1:
            raise ConfigurationError("at least one ADC is required")
        steps = self.spec.conversion_cycles
        if active_bits is not None:
            steps = min(steps, float(2 ** active_bits))
        lanes = self.spec.parallel_lanes * num_adcs
        passes = int(np.ceil(num_bitlines / lanes))
        return passes * steps

    def conversion_energy_pj(self, num_bitlines: int, active_bits: int | None = None) -> float:
        steps = self.spec.conversion_cycles
        if active_bits is not None:
            steps = min(steps, float(2 ** active_bits))
        # The shared reference generator dominates; energy scales with the
        # sweep length, amortised over the bitlines converted in parallel.
        passes = max(1, int(np.ceil(num_bitlines / self.spec.parallel_lanes)))
        return passes * self.spec.power_mw * steps


def make_adc(kind: str, min_value: float = 0.0, max_value: float = 255.0) -> AnalogToDigitalConverter:
    """Factory for ADC models by name (``"sar"`` or ``"ramp"``)."""
    kind = kind.lower()
    if kind == "sar":
        return SarAdc(min_value, max_value)
    if kind == "ramp":
        return RampAdc(min_value, max_value)
    raise ConfigurationError(f"unknown ADC kind {kind!r}; expected 'sar' or 'ramp'")
