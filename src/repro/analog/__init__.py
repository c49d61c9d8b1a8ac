"""Analog PUM substrate: crossbar MVM, periphery, bit-slicing, compensation."""

from .ace import AceConfig, AnalogComputeElement, MatrixHandle
from .adc import AdcSpec, AnalogToDigitalConverter, RampAdc, SarAdc, make_adc
from .bitslicing import (
    ShiftAddPlan,
    ShiftAddStep,
    recombine,
    slice_inputs,
    slice_inputs_tensor,
    slice_matrix,
)
from .compensation import CompensationPlan, ParasiticCompensation
from .crossbar import AnalogCrossbar, CrossbarOutput
from .dac import DacSpec, DigitalToAnalogConverter
from .kernels import ShardKernel
from .numbers import DifferentialPairs, EncodedMatrix, OffsetSubtraction

__all__ = [
    "AceConfig",
    "AdcSpec",
    "AnalogComputeElement",
    "AnalogCrossbar",
    "AnalogToDigitalConverter",
    "CompensationPlan",
    "CrossbarOutput",
    "DacSpec",
    "DifferentialPairs",
    "DigitalToAnalogConverter",
    "EncodedMatrix",
    "MatrixHandle",
    "OffsetSubtraction",
    "ParasiticCompensation",
    "RampAdc",
    "SarAdc",
    "ShardKernel",
    "ShiftAddPlan",
    "ShiftAddStep",
    "make_adc",
    "recombine",
    "slice_inputs",
    "slice_inputs_tensor",
    "slice_matrix",
]
