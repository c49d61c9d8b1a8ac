"""Weight and input bit-slicing for analog MVM (Section 2.2.1, Figure 2).

Analog devices reliably hold only a few bits, so an ``N``-bit matrix value
is *bit-sliced* into ``ceil(N / M)`` chunks of ``M`` bits, each programmed
into a different array.  Inputs are likewise applied one bit at a time to
avoid wide DACs.  Every (input bit, weight slice) pair produces a partial
product that must be shifted by ``input_bit + M * slice_index`` positions and
accumulated -- exactly the long-multiplication recombination the DCE (and
DARTH-PUM's shift units) perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import QuantizationError

__all__ = [
    "slice_matrix",
    "slice_inputs",
    "slice_inputs_tensor",
    "ShiftAddStep",
    "ShiftAddPlan",
]


def slice_matrix(
    matrix: np.ndarray, value_bits: int, bits_per_cell: int, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Split a non-negative integer array into per-cell bit slices.

    Slice ``s`` holds bits ``[s*bits_per_cell, (s+1)*bits_per_cell)`` of each
    value; the slices are stacked least significant first along a new
    leading axis, shape ``(num_slices, *matrix.shape)``.  Any array shape
    will do: the ACE slices both planes of an encoded matrix in one pass.
    ``out``, an int64 block of that shape, receives the slices in place of
    a new array -- after every check, so a refused matrix leaves it alone.
    """
    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.integer):
        raise QuantizationError("bit-slicing expects an integer matrix")
    if matrix.size and np.minimum.reduce(matrix, axis=None) < 0:
        raise QuantizationError("bit-slicing expects a non-negative matrix; encode sign first")
    if value_bits < 1 or bits_per_cell < 1:
        raise QuantizationError("value_bits and bits_per_cell must be >= 1")
    if matrix.size and np.maximum.reduce(matrix, axis=None) >= (1 << value_bits):
        raise QuantizationError(f"matrix values exceed {value_bits} bits")
    num_slices = -(-value_bits // bits_per_cell)
    shifts = np.arange(0, num_slices * bits_per_cell, bits_per_cell)
    slices = np.right_shift(
        matrix.astype(np.int64, copy=False), shifts.reshape((-1,) + (1,) * matrix.ndim), out=out
    )
    slices &= (1 << bits_per_cell) - 1
    return slices


def integer_vectors(vectors: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
    """``vectors`` as int64, refusing what an int64 cast would truncate.

    Input vectors must arrive with an integer (or bool) dtype: a float,
    NaN or string array raises :class:`~repro.errors.QuantizationError`, as
    ``set_matrix`` refuses a float matrix.  So does a uint64 value of
    ``2**63`` or more, which int64 cannot hold (the cast would wrap it
    negative): it is too wide for any input precision.  An int64 array is
    returned as is.  Every tier's entry (tile, device, pool, server,
    gateway) checks its vectors here.  With ``rows``, the device's and the
    pool's admission: the result is a ``(batch, rows)`` block, a single
    vector a batch of one, and any other shape is refused.
    """
    source = np.asarray(vectors)
    if source.dtype.kind not in "iub":
        raise QuantizationError(
            f"input vectors must be integers (got dtype {source.dtype}); "
            "quantise floats first"
        )
    if source.dtype.kind == "u" and source.size and source.max() >> np.uint64(63):
        raise QuantizationError("input values exceed 63 bits")
    source = source.astype(np.int64, copy=False)
    if rows is None:
        return source
    if source.ndim < 2:
        source = source.reshape(1, -1)
    if source.ndim != 2 or source.shape[1] != rows:
        raise QuantizationError(
            f"input batch of shape {source.shape} does not match matrix rows ({rows})"
        )
    return source


def single_vector(vector: np.ndarray, rows: int) -> np.ndarray:
    """``vector`` as one int64 input vector of ``rows`` elements
    (:func:`integer_vectors`), refused with its own shape otherwise: the
    front door of every single-vector call, before it runs as a batch of one."""
    vector = integer_vectors(vector)
    if vector.shape != (rows,):
        raise QuantizationError(
            f"input vector of shape {vector.shape} does not match matrix rows ({rows})"
        )
    return vector


def slice_inputs(vector: np.ndarray, input_bits: int) -> List[np.ndarray]:
    """Split a non-negative integer input vector into one-bit slices.

    Bit ``i`` of every element forms slice ``i`` (least significant first).
    """
    vector = np.asarray(vector)
    if not np.issubdtype(vector.dtype, np.integer):
        raise QuantizationError("input bit-slicing expects an integer vector")
    if np.any(vector < 0):
        raise QuantizationError("input bit-slicing expects non-negative inputs")
    if np.any(vector >= (1 << input_bits)):
        raise QuantizationError(f"input values exceed {input_bits} bits")
    return [((vector >> i) & 1).astype(np.int64) for i in range(input_bits)]


def slice_inputs_tensor(
    vectors: np.ndarray, input_bits: int, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Bit-slice a whole batch of input vectors into one stacked tensor.

    ``vectors`` has shape ``(batch, rows)``; the result has shape
    ``(input_bits, batch, rows)`` with plane ``i`` holding bit ``i`` of every
    element (least significant first).  Plane ``i`` is bit-identical to
    ``slice_inputs(vectors, input_bits)[i]``; the stacked form is what the
    vectorized execution engine feeds to its per-shard tensor contractions.

    ``out``, when given, must be an int64 array of exactly that shape; the
    planes are written into it and it is returned.  The serving hot path
    passes a per-ACE scratch tensor here so a steady stream of same-shaped
    batches performs zero per-batch allocations of the bit-plane tensor.
    """
    vectors = np.asarray(vectors)
    if not np.issubdtype(vectors.dtype, np.integer):
        raise QuantizationError("input bit-slicing expects an integer vector")
    if np.any(vectors < 0):
        raise QuantizationError("input bit-slicing expects non-negative inputs")
    if np.any(vectors >= (1 << input_bits)):
        raise QuantizationError(f"input values exceed {input_bits} bits")
    planes = np.arange(input_bits, dtype=np.int64).reshape(-1, 1, 1)
    if out is None:
        return ((vectors[None, :, :] >> planes) & 1).astype(np.int64)
    expected = (input_bits,) + vectors.shape
    if out.shape != expected or out.dtype != np.int64:
        raise QuantizationError(
            f"slice_inputs_tensor out= must be int64 of shape {expected} "
            f"(got {out.dtype} {out.shape})"
        )
    np.right_shift(vectors[None, :, :], planes, out=out)
    np.bitwise_and(out, 1, out=out)
    return out


@dataclass(frozen=True)
class ShiftAddStep:
    """One step of the reduction sequence executed after an analog MVM."""

    input_bit: int
    weight_slice: int
    shift: int


@dataclass(frozen=True)
class ShiftAddPlan:
    """The full shift-and-add plan for a bit-sliced MVM.

    The instruction injection unit (Section 4.2) stores exactly this
    information -- a fixed table of shifts plus a counter -- so the front end
    does not have to issue the hundreds of µops of the reduction itself.
    """

    input_bits: int
    weight_slices: int
    bits_per_cell: int

    @property
    def steps(self) -> Tuple[ShiftAddStep, ...]:
        """All (input bit, weight slice) steps in issue order."""
        result = []
        for input_bit in range(self.input_bits):
            for weight_slice in range(self.weight_slices):
                result.append(
                    ShiftAddStep(
                        input_bit=input_bit,
                        weight_slice=weight_slice,
                        shift=input_bit + weight_slice * self.bits_per_cell,
                    )
                )
        return tuple(result)

    @property
    def num_partial_products(self) -> int:
        """Number of partial products the plan reduces."""
        return self.input_bits * self.weight_slices

    @property
    def max_shift(self) -> int:
        """Largest shift applied by any step."""
        return (self.input_bits - 1) + (self.weight_slices - 1) * self.bits_per_cell
