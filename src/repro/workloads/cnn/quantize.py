"""Symmetric integer quantisation for analog-PUM execution.

Analog crossbars store integer conductance levels, so weights and
activations must be quantised before they can be programmed or applied.
We use symmetric per-tensor quantisation: ``q = clip(round(x / scale))``
with ``scale = max(|x|) / (2**(bits-1) - 1)``, which is the standard scheme
for PUM CNN accelerators (ISAAC and descendants) and what the paper's 8-bit
operands imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...errors import QuantizationError

__all__ = [
    "QuantizedTensor", "quantize", "dequantize", "quantize_per_output",
    "offset_shifted_mvm",
]


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor plus the scale that recovers the real values."""

    values: np.ndarray
    scale: float
    bits: int

    def dequantize(self) -> np.ndarray:
        """Recover approximate real values."""
        return self.values.astype(float) * self.scale

    @property
    def qmax(self) -> int:
        """Largest representable magnitude."""
        return 2 ** (self.bits - 1) - 1


def quantize(x: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """Symmetric quantisation of ``x`` to ``bits`` signed bits."""
    if bits < 2:
        raise QuantizationError("quantisation needs at least 2 bits for sign + magnitude")
    x = np.asarray(x, dtype=float)
    qmax = 2 ** (bits - 1) - 1
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    scale = max_abs / qmax if max_abs > 0 else 1.0
    values = np.clip(np.rint(x / scale), -qmax, qmax).astype(np.int64)
    return QuantizedTensor(values=values, scale=scale, bits=bits)


def offset_shifted_mvm(
    vectors: np.ndarray,
    column_sums: np.ndarray,
    execute: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``vectors @ W`` for signed ``vectors`` on a non-negative input path.

    The ACE applies non-negative bit-sliced inputs, so each vector is
    shifted into the positive range by its own offset ``o``,
    ``execute(shifted) -> raw`` runs the MVM however the caller reaches the
    hardware (a tile, a server), and the constant column contribution is
    subtracted afterwards: ``x @ W = (x + o) @ W - o * sum(W, axis=0)``,
    with ``column_sums = W.sum(axis=0)``.  The shifted values need one more
    input bit than the signed ones.
    """
    vectors = np.asarray(vectors, dtype=np.int64)
    offsets = np.maximum(0, -vectors.min(axis=1))
    raw = execute(vectors + offsets[:, None])
    return raw - offsets[:, None] * column_sums[None, :]


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Recover approximate real values from a quantised tensor."""
    return q.dequantize()


def quantize_per_output(weight: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """Per-output-column quantisation of a 2-D weight matrix.

    Uses a single shared scale (the maximum over columns) so the result can
    still be programmed as one analog matrix, but clips less aggressively
    than naive per-tensor quantisation when column ranges are skewed.
    """
    weight = np.asarray(weight, dtype=float)
    if weight.ndim != 2:
        raise QuantizationError("quantize_per_output expects a 2-D weight matrix")
    return quantize(weight, bits=bits)
