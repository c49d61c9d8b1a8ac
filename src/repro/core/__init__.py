"""DARTH-PUM core: hybrid compute tiles, chip, area/energy models."""

from .arbiter import AnalogDigitalArbiter, Domain
from .area import AreaModel, Table3
from .chip import DarthPumChip
from .config import ChipConfig, HctConfig
from .hct import HybridComputeTile
from .injection_unit import InjectionTableEntry, InstructionInjectionUnit
from .shift_unit import ShiftedTransfer, ShiftUnit
from .transpose_unit import TransposeResult, TransposeUnit
from .vacore import VACore, VACoreManager

__all__ = [
    "AnalogDigitalArbiter",
    "AreaModel",
    "ChipConfig",
    "DarthPumChip",
    "Domain",
    "HctConfig",
    "HybridComputeTile",
    "InjectionTableEntry",
    "InstructionInjectionUnit",
    "ShiftUnit",
    "ShiftedTransfer",
    "Table3",
    "TransposeResult",
    "TransposeUnit",
    "VACore",
    "VACoreManager",
]
