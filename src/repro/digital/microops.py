"""Micro-operation (µop) model for digital PUM pipelines.

The front end and the instruction injection unit (IIU) both speak µops: a
µop names a Boolean primitive and the columns (bitlines) it reads and
writes inside one digital PUM array.  Word-level operations (ADD, XOR, ...)
are sequences of µops generated by :mod:`repro.digital.alu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["MicroOp", "WordOpKind", "WordOpCost"]


@dataclass(frozen=True)
class MicroOp:
    """A single array-level Boolean operation.

    Attributes
    ----------
    primitive:
        Name of the logic-family primitive (``"NOR"``, ``"NOT"``, ...).
    src1, src2:
        Source column indices; ``src2`` may equal ``src1`` for unary ops.
    dst:
        Destination column index.
    """

    primitive: str
    src1: int
    src2: int
    dst: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.primitive} c{self.dst} <- c{self.src1}, c{self.src2}"


class WordOpKind(Enum):
    """Classes of word-level operations with distinct pipelining behaviour."""

    #: No inter-bit dependency: all bit arrays execute concurrently.
    BITWISE = "bitwise"
    #: Carry (or borrow) propagates from bit i to bit i+1; bit-serial.
    CARRY = "carry"
    #: Data moves between adjacent bit arrays (shift, rotate, reverse).
    SHIFT = "shift"
    #: Row-addressed copy between pipelines (element-wise load/store).
    ELEMENT = "element"
    #: Writing externally supplied data into the arrays.
    WRITE = "write"


@dataclass(frozen=True)
class WordOpCost:
    """Cost summary of a single word-level digital PUM operation.

    Attributes
    ----------
    name:
        Operation name (``"add"``, ``"xor"``, ``"shift_left"``, ...).
    kind:
        Pipelining class; determines the operation's latency
        (:attr:`unpipelined_cycles`).  How a stream of ADDs overlaps in the
        bit pipeline (Figure 10b) is priced by
        :meth:`~repro.plan.ir.PlanCostModel.predict`.
    uops_per_bit:
        Number of array-level µops executed per bit position.
    bits:
        Number of bit positions (pipeline depth actually used).
    rows:
        Number of vector elements operated on in parallel.
    """

    name: str
    kind: WordOpKind
    uops_per_bit: float
    bits: int
    rows: int

    @property
    def total_uops(self) -> float:
        """Total µops across all bit positions."""
        return self.uops_per_bit * self.bits

    @property
    def unpipelined_cycles(self) -> float:
        """Latency when the operation cannot overlap with anything else."""
        if self.kind is WordOpKind.BITWISE:
            # All bit arrays run their (identical) µop sequence concurrently.
            return self.uops_per_bit
        if self.kind is WordOpKind.CARRY:
            # Carry chains serialise the bit positions.
            return self.uops_per_bit * self.bits
        if self.kind is WordOpKind.SHIFT:
            # One cycle per array the data traverses.
            return float(self.bits)
        if self.kind is WordOpKind.ELEMENT:
            # One row read + one row write per element.
            return 2.0 * self.rows
        # WRITE: one row written per cycle (pipeline write-port limit).
        return float(self.rows)
