"""Negative-number representations for analog crossbars (Section 2.2.1).

Conductance is strictly positive, so signed matrices need an encoding.  The
paper discusses two and uses differential cell pairs (Figure 3):

* **Offset subtraction** shifts every value by half the representable range
  and subtracts ``offset * sum(inputs)`` after the ADC.
* **Differential cell pairs** store the positive and negative parts of each
  value in two devices driven with opposite polarity; the bitline current is
  directly proportional to the signed result, and the representation is more
  resilient to parasitic effects (which the parasitic-compensation scheme of
  Section 4.3 relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..errors import QuantizationError

__all__ = ["DifferentialPairs", "OffsetSubtraction", "EncodedMatrix"]


@dataclass(frozen=True)
class EncodedMatrix:
    """A signed integer matrix encoded for programming into crossbars.

    ``planes`` stacks the two non-negative integer planes, shape ``(2,
    rows, cols)``: the represented value is ``positive - negative`` for
    differential pairs, or ``positive - offset`` (with ``negative`` unused
    and all zeros) for offset subtraction.
    """

    planes: np.ndarray
    offset: int
    scheme: str


def _checked(matrix: np.ndarray, scheme: str, limit: int, value_bits: int) -> np.ndarray:
    """``matrix`` as an array, after the dtype and magnitude checks both
    encoders make (one ``min`` and one ``max``, no boolean temporaries)."""
    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.integer):
        raise QuantizationError(f"{scheme} encoding expects integer matrices")
    if matrix.size and max(
        int(np.maximum.reduce(matrix, axis=None)), -int(np.minimum.reduce(matrix, axis=None))
    ) > limit:
        raise QuantizationError(
            f"matrix magnitude exceeds {limit} for {value_bits}-bit values"
        )
    return matrix


class DifferentialPairs:
    """Differential cell-pair encoding of signed integer matrices."""

    name = "differential"

    def __init__(self, value_bits: int = 8) -> None:
        if value_bits < 1:
            raise QuantizationError("value_bits must be >= 1")
        self.value_bits = int(value_bits)
        self.max_magnitude = 2 ** (value_bits - 1) if value_bits > 1 else 1

    def check(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix`` as an array, or the error :meth:`encode` would raise."""
        return _checked(matrix, self.name, self.max_magnitude, self.value_bits)

    def encode(self, matrix: np.ndarray) -> EncodedMatrix:
        """Split a signed matrix into positive and negative magnitude parts."""
        matrix = self.check(matrix)
        planes = np.empty((2,) + matrix.shape, dtype=np.int64)
        np.maximum(matrix, 0, out=planes[0])
        np.minimum(matrix, 0, out=planes[1])
        np.negative(planes[1], out=planes[1])
        return EncodedMatrix(planes=planes, offset=0, scheme=self.name)


class OffsetSubtraction:
    """Offset-subtraction encoding of signed integer matrices."""

    name = "offset"

    def __init__(self, value_bits: int = 8) -> None:
        if value_bits < 1:
            raise QuantizationError("value_bits must be >= 1")
        self.value_bits = int(value_bits)
        self.offset = 2 ** (value_bits - 1)
        self.max_magnitude = self.offset

    def encode(self, matrix: np.ndarray) -> EncodedMatrix:
        """Shift a signed matrix into the non-negative range ``[0, 2*offset]``."""
        matrix = _checked(matrix, self.name, self.max_magnitude, self.value_bits)
        planes = np.zeros((2,) + matrix.shape, dtype=np.int64)
        np.add(matrix, self.offset, out=planes[0], dtype=np.int64)
        return EncodedMatrix(planes=planes, offset=self.offset, scheme=self.name)
