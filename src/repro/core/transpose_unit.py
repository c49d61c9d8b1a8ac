"""The HCT transposition unit (Section 4.2).

Analog and digital PUM operate on different axes: analog arrays apply inputs
row-wise (wordlines) and accumulate column-wise (bitlines), while digital
pipelines stripe each value column-wise across arrays and compute row-wise.
Data crossing the boundary therefore needs transposition:

* the row vector of partial products produced by an analog MVM must become a
  column (a vector register) in the digital pipeline, once per partial
  product; and
* matrices moved between the two domains (e.g. ``disableAnalogMode`` copying
  a matrix into digital arrays) must be transposed wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import Settled

__all__ = ["TransposeUnit", "TransposeResult"]


@dataclass(frozen=True)
class TransposeResult:
    """A transposed block of data plus the cycles the unit spent on it."""

    values: np.ndarray
    cycles: float


class TransposeUnit:
    """Streams data between the analog row format and the digital column format."""

    _claim = None
    #: Number of vector transpositions performed (statistics); a replay
    #: target (:class:`~repro.metrics.Settled`).
    vector_count = Settled("vector_count")

    def __init__(self, elements_per_cycle: int = 8) -> None:
        self.elements_per_cycle = max(1, int(elements_per_cycle))
        self._vector_count = 0  # ``vector_count``'s storage: nothing to settle yet
        #: Number of full matrix transpositions performed (statistics).
        self.matrix_count = 0

    def batch_to_registers(self, matrix: np.ndarray) -> TransposeResult:
        """Turn a batch of analog output rows into VR column layouts.

        ``matrix`` has shape ``(batch, width)``; each row is one vector
        transposition, ``ceil(width / elements_per_cycle)`` cycles.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("batch_to_registers expects a (batch, width) array")
        per_vector = float(-(-matrix.shape[1] // self.elements_per_cycle))
        self.vector_count += matrix.shape[0]
        return TransposeResult(values=matrix, cycles=matrix.shape[0] * per_vector)

    def matrix_transpose(self, matrix: np.ndarray) -> TransposeResult:
        """Transpose a matrix moving between the digital and analog domains."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix_transpose expects a 2-D array")
        cycles = float(-(-matrix.size // self.elements_per_cycle))
        self.matrix_count += 1
        return TransposeResult(values=matrix.T.copy(), cycles=cycles)

    def _fold(self, vectors: int, calls: int) -> None:
        self._vector_count += calls * vectors
