"""A single digital PUM ReRAM array.

A digital PUM array stores one bit per device and executes Boolean
primitives *between columns* (bitlines): activating the wordlines of the
whole array applies the same primitive to every row in parallel
(Section 2.2.2, Figure 4).  In the RACER organisation adopted by DARTH-PUM,
each array of a bit pipeline holds a single bit position of every value, so
its columns are "bit slices" of vector registers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError, ExecutionError
from ..metrics import CostLedger, checked_runs
from .logic import LogicFamily
from .microops import MicroOp

__all__ = ["DigitalArray"]


class DigitalArray:
    """A ``rows x cols`` single-level-cell ReRAM array used for Boolean PUM.

    Parameters
    ----------
    rows, cols:
        Array geometry.  Rows correspond to vector elements, columns to
        vector registers (plus scratch columns).
    family:
        The logic family providing the native primitives.
    ledger:
        Optional ledger that receives the energy of every executed µop.
        Cycle accounting is performed at the pipeline level because it
        depends on how operations overlap across arrays.
    bits:
        Optional ``(rows, cols)`` or ``(planes, rows, cols)`` boolean
        storage to compute in.  A :class:`~repro.digital.pipeline.BitPipeline`
        hands its word ops one array over every bit plane of its tensor, so
        each µop runs once on all planes, as the pipeline's arrays run it
        side by side; a standalone array allocates one plane of its own.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        family: LogicFamily,
        ledger: Optional[CostLedger] = None,
        bits: Optional[np.ndarray] = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError("array dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.family = family
        self.ledger = ledger if ledger is not None else CostLedger()
        if bits is None:
            bits = np.zeros((self.rows, self.cols), dtype=bool)
        elif (bits.shape[-2:] != (self.rows, self.cols) or bits.ndim > 3
              or bits.dtype != np.bool_):
            raise ConfigurationError(
                f"array storage must be a ([planes,] {self.rows}, {self.cols}) "
                f"boolean buffer, got {bits.shape} {bits.dtype}"
            )
        self._bits = bits
        #: Bit planes every µop runs on (the storage's leading axis, if any).
        self.planes = bits.shape[0] if bits.ndim == 3 else 1
        #: Number of µops executed on this array, each on every plane.
        self.uop_count = 0

    # ------------------------------------------------------------------ #
    # Raw data access                                                     #
    # ------------------------------------------------------------------ #
    @property
    def bits(self) -> np.ndarray:
        """The raw bit storage (``[planes x] rows x cols``).  Mutating it
        bypasses costs."""
        return self._bits

    def read_column(self, col: int) -> np.ndarray:
        """Return a copy of column ``col`` (all rows of every plane)."""
        self._check_col(col)
        return self._bits[..., col].copy()

    def write_column(self, col: int, values: np.ndarray) -> None:
        """Overwrite column ``col`` with boolean ``values``, shaped as
        :meth:`read_column` returns it."""
        self._check_col(col)
        values = np.asarray(values, dtype=bool)
        if values.shape != self._bits.shape[:-1]:
            raise ExecutionError(
                f"column write expects shape {self._bits.shape[:-1]}, got {values.shape}"
            )
        self._bits[..., col] = values

    # ------------------------------------------------------------------ #
    # Boolean primitive execution                                         #
    # ------------------------------------------------------------------ #
    def execute(self, uop: MicroOp) -> float:
        """Execute one µop on every plane; returns its latency in cycles.

        The energy (per-row constant times the number of rows, once per
        plane) is charged to the array's ledger under the ``"dce.boolean"``
        category, as ``planes`` times one plane's grid units: exactly what
        one charge per plane adds up to.
        """
        if not self.family.has(uop.primitive):
            raise ExecutionError(
                f"primitive {uop.primitive!r} is not supported by the "
                f"{self.family.name!r} logic family"
            )
        self._check_col(uop.src1)
        self._check_col(uop.src2)
        self._check_col(uop.dst)
        primitive = self.family.primitive(uop.primitive)
        bits = self._bits
        bits[..., uop.dst] = primitive.evaluate(bits[..., uop.src1], bits[..., uop.src2])
        self.uop_count += 1
        self.ledger.charge_stream(checked_runs(
            (("dce.boolean", self.planes, 0.0, primitive.energy_per_row_pj * self.rows),)
        ))
        return primitive.latency_cycles

    # ------------------------------------------------------------------ #
    # Helpers                                                             #
    # ------------------------------------------------------------------ #
    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.cols:
            raise ExecutionError(f"column index {col} out of range [0, {self.cols})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DigitalArray(rows={self.rows}, cols={self.cols}, family={self.family.name})"
