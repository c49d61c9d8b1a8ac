"""Hybrid compute tile and chip configuration (Table 2, Section 6).

The defaults reproduce the paper's evaluated configuration: 64x64 ReRAM
arrays, 64 analog arrays per ACE, 64 digital pipelines of 64 arrays per DCE,
an 8-byte-per-cycle ACE-to-DCE transfer network, and either two SAR ADCs or
one ramp ADC per active analog array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analog.ace import AceConfig
from ..digital.dce import DceConfig
from ..errors import ConfigurationError

__all__ = ["HctConfig", "ChipConfig"]


@dataclass(frozen=True)
class HctConfig:
    """Configuration of a single hybrid compute tile (Table 2)."""

    #: Digital compute element geometry.
    dce: DceConfig = field(default_factory=DceConfig)
    #: Analog compute element geometry and ADC family.
    ace: AceConfig = field(default_factory=AceConfig)
    #: ACE-to-DCE transfer network bandwidth in bytes per cycle (Section 4).
    transfer_bytes_per_cycle: int = 8
    #: Digital logic family name.
    logic_family: str = "oscar"

    def __post_init__(self) -> None:
        if self.transfer_bytes_per_cycle < 1:
            raise ConfigurationError("transfer_bytes_per_cycle must be >= 1")

    @property
    def adc_kind(self) -> str:
        """ADC family of the tile: its ACE's (``"sar"`` or ``"ramp"``)."""
        return self.ace.adc_kind

    @classmethod
    def paper_default(cls, adc_kind: str = "sar") -> "HctConfig":
        """The Table 2 configuration with the requested ADC family."""
        return cls(
            dce=DceConfig(num_pipelines=64, pipeline_depth=64, rows=64, cols=64),
            ace=AceConfig(num_arrays=64, array_rows=64, array_cols=64, adc_kind=adc_kind),
        )

    @classmethod
    def small(cls, adc_kind: str = "sar") -> "HctConfig":
        """A reduced configuration for fast functional tests and examples."""
        return cls(
            dce=DceConfig(num_pipelines=8, pipeline_depth=32, rows=16, cols=24),
            ace=AceConfig(num_arrays=16, array_rows=16, array_cols=16, adc_kind=adc_kind),
        )

    @property
    def memory_capacity_bits(self) -> int:
        """Raw single-level-cell storage capacity of one HCT in bits."""
        digital = self.dce.capacity_bits
        analog = self.ace.num_arrays * self.ace.array_rows * self.ace.array_cols
        return digital + analog


@dataclass(frozen=True)
class ChipConfig:
    """Configuration of a full DARTH-PUM chip (Section 6)."""

    hct: HctConfig = field(default_factory=HctConfig.paper_default)
    #: Number of hybrid compute tiles on the chip.
    num_hcts: int = 1860
    #: Hybrid compute tiles sharing one front-end unit.
    hcts_per_front_end: int = 8

    def __post_init__(self) -> None:
        if self.num_hcts < 1:
            raise ConfigurationError("a chip needs at least one HCT")
        if self.hcts_per_front_end < 1:
            raise ConfigurationError("hcts_per_front_end must be >= 1")

    @classmethod
    def iso_area_default(cls, adc_kind: str = "sar") -> "ChipConfig":
        """The iso-area chip of Section 6: 1860 HCTs (SAR) or 1660 (ramp)."""
        num = 1860 if adc_kind == "sar" else 1660
        return cls(hct=HctConfig.paper_default(adc_kind), num_hcts=num)
