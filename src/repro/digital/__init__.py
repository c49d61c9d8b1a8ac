"""Digital (Boolean) PUM substrate: RACER-style bit-pipelined computation."""

from .alu import BooleanSynthesizer, ScratchColumns
from .array import DigitalArray
from .dce import DceConfig, DigitalComputeElement
from .logic import LogicFamily, Primitive, get_family, ideal_family, oscar_family
from .microops import MicroOp, WordOpCost, WordOpKind
from .pipeline import BitPipeline

__all__ = [
    "BitPipeline",
    "BooleanSynthesizer",
    "DceConfig",
    "DigitalArray",
    "DigitalComputeElement",
    "LogicFamily",
    "MicroOp",
    "Primitive",
    "ScratchColumns",
    "WordOpCost",
    "WordOpKind",
    "get_family",
    "ideal_family",
    "oscar_family",
]
