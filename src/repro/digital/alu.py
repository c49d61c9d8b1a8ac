"""Boolean synthesis of word-level arithmetic from logic-family primitives.

Digital PUM can execute *any* computation, but only as sequences of the
logic family's native primitives (Section 2.2.2).  This module knows how to
build the per-bit gate networks -- XOR, AND, full adders, multiplexers --
out of OSCAR NOR operations (or out of the richer ideal family when it is
available), executing them *for real* on a :class:`~repro.digital.array.
DigitalArray` -- one bit plane, or every plane of a pipeline at once -- so
that both the functional result and the µop count are genuine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .array import DigitalArray
from .logic import LogicFamily
from .microops import MicroOp

__all__ = ["ScratchColumns", "BooleanSynthesizer"]


@dataclass(frozen=True)
class ScratchColumns:
    """Scratch (temporary) column indices reserved at the top of each array.

    The synthesiser needs a handful of temporaries per array to stage the
    intermediate NOR results of a gate network, plus dedicated carry-in /
    carry-out columns used by the bit-serial adder.
    """

    t0: int
    t1: int
    t2: int
    t3: int
    t4: int
    t5: int
    carry_in: int
    carry_out: int

    #: Number of columns a pipeline must reserve for scratch space.
    COUNT = 8

    @classmethod
    def at_top_of(cls, cols: int) -> "ScratchColumns":
        """Place the scratch columns in the last ``COUNT`` columns."""
        if cols < cls.COUNT + 1:
            raise ConfigurationError(
                f"array needs at least {cls.COUNT + 1} columns, got {cols}"
            )
        base = cols - cls.COUNT
        return cls(*(base + i for i in range(cls.COUNT)))


class BooleanSynthesizer:
    """Executes word-level gate networks on a single digital PUM array.

    Every method returns the number of µops it executed; the caller converts
    µop counts into cycles according to the pipelining model.
    """

    def __init__(self, family: LogicFamily) -> None:
        self.family = family

    # ------------------------------------------------------------------ #
    # Single-gate helpers                                                  #
    # ------------------------------------------------------------------ #
    def _exec(self, array: DigitalArray, primitive: str, a: int, b: int, dst: int) -> int:
        array.execute(MicroOp(primitive, a, b, dst))
        return 1

    def not_col(self, array: DigitalArray, a: int, dst: int) -> int:
        """dst = NOT a."""
        if self.family.has("NOT"):
            return self._exec(array, "NOT", a, a, dst)
        return self._exec(array, "NOR", a, a, dst)

    def copy_col(self, array: DigitalArray, a: int, dst: int) -> int:
        """dst = a."""
        if self.family.has("COPY"):
            return self._exec(array, "COPY", a, a, dst)
        # Double inversion through the destination.
        ops = self.not_col(array, a, dst)
        ops += self.not_col(array, dst, dst)
        return ops

    def or_col(self, array: DigitalArray, a: int, b: int, dst: int) -> int:
        """dst = a OR b."""
        if self.family.has("OR"):
            return self._exec(array, "OR", a, b, dst)
        ops = self._exec(array, "NOR", a, b, dst)
        ops += self.not_col(array, dst, dst)
        return ops

    def nor_col(self, array: DigitalArray, a: int, b: int, dst: int) -> int:
        """dst = a NOR b."""
        return self._exec(array, "NOR", a, b, dst)

    def and_col(self, array: DigitalArray, a: int, b: int, dst: int, s: ScratchColumns) -> int:
        """dst = a AND b (NOR of the two complements under OSCAR)."""
        if self.family.has("AND"):
            return self._exec(array, "AND", a, b, dst)
        ops = self.not_col(array, a, s.t0)
        ops += self.not_col(array, b, s.t1)
        ops += self._exec(array, "NOR", s.t0, s.t1, dst)
        return ops

    def xor_col(self, array: DigitalArray, a: int, b: int, dst: int, s: ScratchColumns) -> int:
        """dst = a XOR b.

        Under OSCAR: ``XOR(a, b) = NOR(NOR(a, b), AND(a, b))`` which costs
        five NOR-class µops; the ideal family does it in one.
        """
        if self.family.has("XOR"):
            return self._exec(array, "XOR", a, b, dst)
        ops = self._exec(array, "NOR", a, b, s.t2)          # t2 = NOR(a, b)
        ops += self.not_col(array, a, s.t0)                  # t0 = ~a
        ops += self.not_col(array, b, s.t1)                  # t1 = ~b
        ops += self._exec(array, "NOR", s.t0, s.t1, s.t3)    # t3 = a AND b
        ops += self._exec(array, "NOR", s.t2, s.t3, dst)     # dst = a XOR b
        return ops

    # ------------------------------------------------------------------ #
    # Arithmetic cells                                                     #
    # ------------------------------------------------------------------ #
    def full_adder(
        self,
        array: DigitalArray,
        a: int,
        b: int,
        sum_dst: int,
        s: ScratchColumns,
    ) -> int:
        """One bit of a ripple-carry adder.

        Consumes the carry-in column ``s.carry_in`` and produces the
        carry-out in ``s.carry_out``; the pipeline schedules every plane's
        carry-in before one invocation over all planes and checks it
        against the carry-out of the plane below.
        """
        ops = 0
        if self.family.has("XOR") and self.family.has("AND"):
            # Ideal family: 5 gate evaluations per bit.
            ops += self._exec(array, "XOR", a, b, s.t4)               # x = a ^ b
            ops += self._exec(array, "AND", a, b, s.t2)               # g = a & b
            ops += self._exec(array, "AND", s.t4, s.carry_in, s.t3)   # p = x & cin
            ops += self._exec(array, "XOR", s.t4, s.carry_in, sum_dst)
            ops += self._exec(array, "OR", s.t2, s.t3, s.carry_out)
            return ops
        # OSCAR (NOR/OR/NOT) synthesis: 12 µops per bit.
        ops += self._exec(array, "NOR", a, b, s.t2)                   # t2 = NOR(a,b)
        ops += self.not_col(array, a, s.t0)                           # t0 = ~a
        ops += self.not_col(array, b, s.t1)                           # t1 = ~b
        ops += self._exec(array, "NOR", s.t0, s.t1, s.t3)             # t3 = a AND b
        ops += self._exec(array, "NOR", s.t2, s.t3, s.t4)             # t4 = a XOR b
        ops += self._exec(array, "NOR", s.t4, s.carry_in, s.t2)       # t2 = NOR(x, cin)
        ops += self.not_col(array, s.t4, s.t0)                        # t0 = ~x
        ops += self.not_col(array, s.carry_in, s.t1)                  # t1 = ~cin
        ops += self._exec(array, "NOR", s.t0, s.t1, s.t5)             # t5 = x AND cin
        ops += self._exec(array, "NOR", s.t2, s.t5, sum_dst)          # sum = x XOR cin
        ops += self._exec(array, "NOR", s.t3, s.t5, s.carry_out)      # NOR(ab, x&cin)
        ops += self.not_col(array, s.carry_out, s.carry_out)          # cout
        return ops

    def mux_col(
        self,
        array: DigitalArray,
        select: int,
        when_true: int,
        when_false: int,
        dst: int,
        s: ScratchColumns,
    ) -> int:
        """dst = select ? when_true : when_false (per row).

        The AND helper uses ``t0``/``t1`` internally, so the mux keeps its own
        intermediates in ``t2``/``t3``/``t4``.
        """
        ops = self.and_col(array, select, when_true, s.t3, s)          # t3 = sel & t
        ops += self.not_col(array, select, s.t4)                       # t4 = ~sel
        ops += self.and_col(array, s.t4, when_false, s.t2, s)          # t2 = ~sel & f
        ops += self.or_col(array, s.t3, s.t2, dst)
        return ops

    @property
    def uops_per_full_adder(self) -> int:
        """µops needed per full-adder bit (12 for OSCAR, 5 for ideal)."""
        return 5 if self.family.has("XOR") and self.family.has("AND") else 12
