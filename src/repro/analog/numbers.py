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


class _Encoding:
    """What both encodings share: a range check that states exactly what
    ``value_bits``-bit slicing can hold once encoded, and :meth:`encode`
    built on it and the scheme's unchecked :meth:`planes`."""

    def __init__(self, value_bits: int = 8) -> None:
        if value_bits < 1:
            raise QuantizationError("value_bits must be >= 1")
        self.value_bits = int(value_bits)

    def check(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix`` as an array, or the error :meth:`encode` would raise:
        the write path's one range check (one ``min`` and one ``max``, no
        boolean temporaries)."""
        matrix = np.asarray(matrix)
        if not np.issubdtype(matrix.dtype, np.integer):
            raise QuantizationError(f"{self.name} encoding expects integer matrices")
        if matrix.size and (np.minimum.reduce(matrix, axis=None) < self.low
                            or np.maximum.reduce(matrix, axis=None) > self.high):
            raise QuantizationError(self.refusal)
        return matrix

    def encode(self, matrix: np.ndarray) -> EncodedMatrix:
        """:meth:`planes` of ``matrix`` once :meth:`check` admits it."""
        return EncodedMatrix(planes=self.planes(self.check(matrix)), offset=self.offset,
                             scheme=self.name)


class DifferentialPairs(_Encoding):
    """Differential cell-pair encoding of signed integer matrices."""

    name, offset = "differential", 0

    def __init__(self, value_bits: int = 8) -> None:
        super().__init__(value_bits)
        self.high = 2 ** (value_bits - 1) if value_bits > 1 else 1
        self.low = -self.high
        self.refusal = f"matrix magnitude exceeds {self.high} for {self.value_bits}-bit values"

    def planes(self, matrix: np.ndarray) -> np.ndarray:
        """The positive and negative magnitude parts of a checked matrix."""
        planes = np.empty((2,) + matrix.shape, dtype=np.int64)
        np.maximum(matrix, 0, out=planes[0])
        np.minimum(matrix, 0, out=planes[1])
        np.negative(planes[1], out=planes[1])
        return planes


class OffsetSubtraction(_Encoding):
    """Offset-subtraction encoding of signed integer matrices."""

    name = "offset"

    def __init__(self, value_bits: int = 8) -> None:
        super().__init__(value_bits)
        self.offset = 2 ** (value_bits - 1)
        # ``+offset`` would encode to ``2**value_bits``: one bit too wide.
        self.low, self.high = -self.offset, self.offset - 1
        self.refusal = (f"matrix values must lie in [{self.low}, {self.high}] for "
                        f"{self.value_bits}-bit values")

    def planes(self, matrix: np.ndarray) -> np.ndarray:
        """A checked matrix shifted into ``[0, 2*offset)`` on the positive plane."""
        planes = np.zeros((2,) + matrix.shape, dtype=np.int64)
        np.add(matrix, self.offset, out=planes[0], dtype=np.int64)
        return planes
