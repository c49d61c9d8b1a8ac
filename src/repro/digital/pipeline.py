"""RACER-style bit-pipelined digital PUM pipeline.

A pipeline of depth ``B`` is built from ``B`` digital PUM arrays; an
``B``-bit value is *bit-striped* across the arrays so that array ``b`` holds
bit ``b`` of every value (Section 2.2.2, Figure 5).  Columns play the role of
*vector registers* (VRs): VR ``v`` element ``e`` bit ``b`` lives at
``arrays[b].bits[e, v]``.  Because every array can execute a different µop,
a stream of word-level operations achieves up to ``B`` times the throughput
of a single array (bit-pipelining).

All bits of a pipeline live in one VR-major tensor of shape ``(cols, depth,
rows)``; ``arrays[b].bits`` is the ``(rows, cols)`` view of bit plane ``b``.
A whole register is therefore one contiguous ``(depth, rows)`` block that
word-level accesses load and store in a single pass, and the column slices
``bits[:, v]`` the gate networks compute on are contiguous too.  One
register may hold its value as int64 words instead (:meth:`set_vr_words`,
the exact path's accumulator store): every access to the tensor or to
``arrays`` unpacks them into bits first (a ``DigitalArray`` kept from an
earlier access of ``arrays`` does not).

The pipeline is a *functional* model: word-level operations really execute
the underlying NOR-sequence gate networks on the stored bits, so results are
bit-exact, while the :class:`~repro.digital.microops.WordOpCost` records
returned by every operation drive the cycle/energy model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import CapacityError, ConfigurationError, ExecutionError
from ..metrics import CostLedger
from .alu import BooleanSynthesizer, ScratchColumns
from .array import DigitalArray
from .logic import LogicFamily, oscar_family
from .microops import WordOpCost, WordOpKind

__all__ = ["BitPipeline"]


class BitPipeline:
    """A bit-pipelined stack of digital PUM arrays with vector registers.

    The pipeline owns its bits as one ``(cols, depth, rows)`` tensor and
    hands array ``b`` the view ``tensor[:, b, :].T``, so a write through
    ``arrays[b].bits`` and a word-level access of the same register see the
    same storage.

    Class attributes
    ----------------
    WRITE_ENERGY_PJ:
        Energy per device write (one bit of one row), shared by every code
        path that charges write/move energy so the gate-exact and batched
        accounting stay in lockstep.

    Parameters
    ----------
    depth:
        Number of arrays, i.e. the operand bit width (Table 2: 64).
    rows:
        Elements per vector register (Table 2: 64, the array height).
    cols:
        Columns per array; ``cols - ScratchColumns.COUNT`` columns are
        available as vector registers.
    family:
        Digital logic family (defaults to OSCAR).
    ledger:
        Cost ledger shared with the enclosing DCE/HCT.  If omitted a private
        ledger is created.
    auto_cycles:
        When true (the default) each word-level operation immediately
        charges its un-pipelined latency.  The DCE/HCT schedulers disable
        this and charge pipelined stream totals instead.
    """

    #: Energy per device write (pJ), one bit of one row.
    WRITE_ENERGY_PJ = 0.005

    def __init__(
        self,
        depth: int = 64,
        rows: int = 64,
        cols: int = 64,
        family: Optional[LogicFamily] = None,
        ledger: Optional[CostLedger] = None,
        auto_cycles: bool = True,
    ) -> None:
        if depth < 1:
            raise ConfigurationError("pipeline depth must be >= 1")
        self.depth = int(depth)
        self.rows = int(rows)
        self.cols = int(cols)
        self.family = family if family is not None else oscar_family()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.auto_cycles = bool(auto_cycles)
        self.scratch = ScratchColumns.at_top_of(self.cols)
        self.num_vrs = self.cols - ScratchColumns.COUNT
        self._bits = np.zeros((self.cols, self.depth, self.rows), dtype=bool)
        #: ``(vr, words)`` stored by :meth:`set_vr_words` and not unpacked yet.
        self._pending = None
        self._arrays: List[DigitalArray] = [
            DigitalArray(
                self.rows, self.cols, self.family, self.ledger,
                bits=self._bits[:, plane, :].T,
            )
            for plane in range(self.depth)
        ]
        #: Weight of each bit plane as a ``(depth, 1)`` int64 column (bit 63
        #: is the sign bit, which is what two's complement wants).
        self.bit_weights = np.left_shift(
            np.int64(1), np.arange(self.depth, dtype=np.int64)
        )[:, None]
        self._synth = BooleanSynthesizer(self.family)
        #: Shift/rotate propagation direction; reversing it costs a drain.
        self.direction = "right"
        #: Registers marked dead by a pipeline-reserve instruction.
        self.reserved = False

    # ------------------------------------------------------------------ #
    # Vector register access                                               #
    # ------------------------------------------------------------------ #
    @property
    def _store(self) -> np.ndarray:
        """The ``(cols, depth, rows)`` bit tensor, pending words unpacked."""
        if self._pending is not None:
            self._unpack_pending()
        return self._bits

    @property
    def arrays(self) -> List[DigitalArray]:
        """The ``depth`` arrays, one bit plane each, pending words unpacked."""
        if self._pending is not None:
            self._unpack_pending()
        return self._arrays

    def _unpack_pending(self) -> None:
        vr, words = self._pending
        self.set_vr_planes(vr, (words & self.bit_weights) != 0)

    def _check_vr(self, vr: int) -> None:
        if not 0 <= vr < self.num_vrs:
            raise CapacityError(f"vector register {vr} out of range [0, {self.num_vrs})")

    def write_vr(self, vr: int, values: Sequence[int], charge: bool = True) -> WordOpCost:
        """Write integer ``values`` into VR ``vr`` (one row per element).

        The pipeline's write port accepts one row per cycle (Section 4.1),
        so writing a full register costs ``rows`` cycles.
        """
        values = np.asarray(values, dtype=np.int64)
        self.set_vr_bits(vr, values)
        cost = WordOpCost("write_vr", WordOpKind.WRITE, 1.0, self.depth, self.rows)
        self._account(cost, energy_rows=values.shape[0], charge=charge)
        return cost

    def set_vr_bits(self, vr: int, values: Sequence[int]) -> None:
        """Overwrite a VR's bit planes in one vectorised pass, charging nothing.

        Cost-free state updates (element-wise ops, the batched reduction's
        accumulator sync) call it directly, and :meth:`write_vr` layers the
        write cost on top.  Rows beyond ``len(values)`` are cleared.
        """
        self.set_vr_planes(vr, (np.asarray(values, dtype=np.int64) & self.bit_weights) != 0)

    def set_vr_planes(self, vr: int, planes: np.ndarray) -> None:
        """Store ``(depth, n)`` bit planes (``(words & bit_weights) != 0``)
        into VR ``vr``, charging nothing.

        The one place a whole register's bits are overwritten, and so the
        one body of checks; pending words (:meth:`set_vr_words`) of this VR
        are dropped, those of another VR unpacked first.  Rows beyond ``n``
        are cleared.
        """
        count = planes.shape[1]
        if not 0 <= vr < self.num_vrs or count > self.rows:  # no frame unless one fails
            self._check_vr(vr)
            raise CapacityError(f"vector of {count} elements exceeds {self.rows} rows")
        pending = self._pending
        if pending is not None:
            if pending[0] == vr:
                self._pending = None
            else:
                self._unpack_pending()
        register = self._bits[vr]
        register[:, :count] = planes
        if count < self.rows:
            register[:, count:] = False

    def set_vr_words(self, vr: int, words: np.ndarray) -> None:
        """Store int64 ``words`` into VR ``vr``, unpacking them when read.

        :meth:`set_vr_bits` without the unpack: the words stay pending until
        something reads the bits or ``arrays``, when :meth:`set_vr_planes`
        stores them.  The pipeline keeps ``words`` without copying, so the
        caller must not write to them afterwards.  Same checks, raised now;
        pending words of another VR are unpacked first.  The exact path
        leaves its accumulator registers this way.
        """
        count = words.shape[0]
        if not 0 <= vr < self.num_vrs or count > self.rows:  # no frame unless one fails
            self._check_vr(vr)
            raise CapacityError(f"vector of {count} elements exceeds {self.rows} rows")
        pending = self._pending
        if pending is not None and pending[0] != vr:
            self._unpack_pending()
        self._pending = vr, words

    @staticmethod
    def store_words(stores) -> None:
        """:meth:`set_vr_words` of each ``(pipeline, vr, words)``, in one
        frame, skipped where that pipeline still holds this very ``words``
        object pending for ``vr``: a register view its owner rewrites in
        place between stores, so storing it again would change nothing."""
        for pipeline, vr, words in stores:
            pending = pipeline._pending
            if pending is None or pending[1] is not words or pending[0] != vr:
                pipeline.set_vr_words(vr, words)

    def read_vr(self, vr: int, signed: bool = False) -> np.ndarray:
        """Read VR ``vr`` back as integers (two's complement if ``signed``)."""
        self._check_vr(vr)
        values = np.bitwise_or.reduce(
            np.where(self._store[vr], self.bit_weights, 0), axis=0
        )
        if signed and self.depth < 64:
            sign = np.int64(1) << (self.depth - 1)
            values = (values ^ sign) - sign
        return values

    def read_element(self, vr: int, row: int) -> int:
        """Read a single element (used by element-wise load/store)."""
        self._check_vr(vr)
        packed = np.packbits(self._store[vr, :, row], bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def write_element(self, vr: int, row: int, value: int) -> None:
        """Write a single element (used by element-wise load/store)."""
        self._check_vr(vr)
        raw = (int(value) & ((1 << self.depth) - 1)).to_bytes(-(-self.depth // 8), "little")
        self._store[vr, :, row] = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=self.depth, bitorder="little"
        )

    def clear_vr(self, vr: int) -> WordOpCost:
        """Zero a vector register (bulk bitline reset, one cycle per array)."""
        self._check_vr(vr)
        self._store[vr] = False
        cost = WordOpCost("clear_vr", WordOpKind.BITWISE, 1.0, self.depth, self.rows)
        self._account(cost)
        return cost

    # ------------------------------------------------------------------ #
    # Bitwise word operations                                              #
    # ------------------------------------------------------------------ #
    def copy(self, dst: int, src: int) -> WordOpCost:
        """dst = src."""
        return self._bitwise("copy", dst, src, src, self._synth.copy_col, unary=True)

    def not_(self, dst: int, src: int) -> WordOpCost:
        """dst = ~src (bitwise complement)."""
        return self._bitwise("not", dst, src, src, self._synth.not_col, unary=True)

    def xor(self, dst: int, a: int, b: int) -> WordOpCost:
        """dst = a ^ b."""
        return self._bitwise("xor", dst, a, b, None, op="xor")

    def and_(self, dst: int, a: int, b: int) -> WordOpCost:
        """dst = a & b."""
        return self._bitwise("and", dst, a, b, None, op="and")

    def or_(self, dst: int, a: int, b: int) -> WordOpCost:
        """dst = a | b."""
        return self._bitwise("or", dst, a, b, None, op="or")

    def nor(self, dst: int, a: int, b: int) -> WordOpCost:
        """dst = ~(a | b)."""
        return self._bitwise("nor", dst, a, b, None, op="nor")

    def _bitwise(self, name, dst, a, b, unary_fn, unary=False, op=None) -> WordOpCost:
        for vr in {dst, a, b}:
            self._check_vr(vr)
        uops = 0
        for array in self.arrays:
            if unary:
                uops_bit = unary_fn(array, a, dst)
            elif op == "xor":
                uops_bit = self._synth.xor_col(array, a, b, dst, self.scratch)
            elif op == "and":
                uops_bit = self._synth.and_col(array, a, b, dst, self.scratch)
            elif op == "or":
                uops_bit = self._synth.or_col(array, a, b, dst)
            elif op == "nor":
                uops_bit = self._synth.nor_col(array, a, b, dst)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown bitwise op {name}")
            uops = uops_bit
        cost = WordOpCost(name, WordOpKind.BITWISE, float(uops), self.depth, self.rows)
        self._account(cost)
        return cost

    # ------------------------------------------------------------------ #
    # Arithmetic word operations                                           #
    # ------------------------------------------------------------------ #
    def add(self, dst: int, a: int, b: int) -> WordOpCost:
        """dst = a + b (modulo 2**depth), ripple carry through the arrays."""
        return self._ripple_add("add", dst, a, b, initial_carry=False, invert_b=False)

    def sub(self, dst: int, a: int, b: int) -> WordOpCost:
        """dst = a - b (two's complement)."""
        return self._ripple_add("sub", dst, a, b, initial_carry=True, invert_b=True)

    def _ripple_add(self, name, dst, a, b, initial_carry, invert_b) -> WordOpCost:
        for vr in {dst, a, b}:
            self._check_vr(vr)
        s = self.scratch
        carry = np.full(self.rows, initial_carry, dtype=bool)
        uops_per_bit = 0
        for array in self.arrays:
            array.write_column(s.carry_in, carry)
            b_col = b
            extra = 0
            if invert_b:
                extra = self._synth.not_col(array, b, s.t5)
                b_col = s.t5
            uops_per_bit = extra + self._synth.full_adder(array, a, b_col, dst, s)
            carry = array.read_column(s.carry_out)
        cost = WordOpCost(name, WordOpKind.CARRY, float(uops_per_bit), self.depth, self.rows)
        self._account(cost)
        return cost

    def increment(self, dst: int, src: int) -> WordOpCost:
        """dst = src + 1 using the carry-in of the ripple adder."""
        self._check_vr(dst)
        self._check_vr(src)
        s = self.scratch
        carry = np.ones(self.rows, dtype=bool)
        uops_per_bit = 0
        for array in self.arrays:
            array.write_column(s.carry_in, carry)
            array.clear_column(s.t5)
            uops_per_bit = self._synth.full_adder(array, src, s.t5, dst, s)
            carry = array.read_column(s.carry_out)
        cost = WordOpCost("increment", WordOpKind.CARRY, float(uops_per_bit), self.depth, self.rows)
        self._account(cost)
        return cost

    def compare_lt(self, dst: int, a: int, b: int) -> WordOpCost:
        """dst = (a < b) ? 1 : 0, treating operands as unsigned.

        Computed as the final borrow of ``a - b``; the 0/1 flag is placed in
        bit 0 of ``dst`` and all other bits are cleared.
        """
        for vr in {dst, a, b}:
            self._check_vr(vr)
        s = self.scratch
        carry = np.ones(self.rows, dtype=bool)
        uops_per_bit = 0
        for array in self.arrays:
            array.write_column(s.carry_in, carry)
            extra = self._synth.not_col(array, b, s.t5)
            uops_per_bit = extra + self._synth.full_adder(array, a, s.t5, s.t4, s)
            carry = array.read_column(s.carry_out)
        borrow = ~carry  # no final carry => a < b
        for array in self.arrays:
            array.clear_column(dst)
        self.arrays[0].write_column(dst, borrow)
        cost = WordOpCost(
            "compare_lt", WordOpKind.CARRY, float(uops_per_bit + 1), self.depth, self.rows
        )
        self._account(cost)
        return cost

    def mux(self, dst: int, select: int, when_true: int, when_false: int) -> WordOpCost:
        """Per-element select: ``dst = select ? when_true : when_false``.

        ``select`` is interpreted per element: any non-zero value selects
        ``when_true``.  The select flag is broadcast from bit 0.
        """
        for vr in {dst, select, when_true, when_false}:
            self._check_vr(vr)
        flag = self.read_vr(select) != 0
        uops_per_bit = 0
        for array in self.arrays:
            array.write_column(self.scratch.t5, flag)
            uops_per_bit = self._synth.mux_col(
                array, self.scratch.t5, when_true, when_false, dst, self.scratch
            )
        # Broadcasting the flag to every array is a shift-class traversal.
        broadcast = WordOpCost("mux_broadcast", WordOpKind.SHIFT, 1.0, self.depth, self.rows)
        compute = WordOpCost("mux", WordOpKind.BITWISE, float(uops_per_bit), self.depth, self.rows)
        self._account(broadcast)
        self._account(compute)
        return compute

    def relu(self, dst: int, src: int) -> WordOpCost:
        """dst = max(src, 0) for signed two's-complement values."""
        self._check_vr(dst)
        self._check_vr(src)
        sign = self.arrays[self.depth - 1].read_column(src)
        keep = ~sign
        uops_per_bit = 0
        for array in self.arrays:
            array.write_column(self.scratch.t5, keep)
            uops_per_bit = self._synth.and_col(array, src, self.scratch.t5, dst, self.scratch)
        broadcast = WordOpCost("relu_broadcast", WordOpKind.SHIFT, 1.0, self.depth, self.rows)
        compute = WordOpCost("relu", WordOpKind.BITWISE, float(uops_per_bit), self.depth, self.rows)
        self._account(broadcast)
        self._account(compute)
        return compute

    def max_(self, dst: int, a: int, b: int) -> List[WordOpCost]:
        """dst = max(a, b) element-wise (unsigned), via compare + mux."""
        free = self._free_scratch_vr((dst, a, b))
        costs = [self.compare_lt(free, a, b)]
        costs.append(self.mux(dst, free, b, a))
        return costs

    def multiply(self, dst: int, a: int, b: int, bits: Optional[int] = None) -> List[WordOpCost]:
        """dst = a * b (modulo 2**depth) via shift-and-add long multiplication.

        ``bits`` limits the number of multiplier bits considered (defaults to
        the full pipeline depth).  Bit-serial multiplication is the expensive
        digital-PUM path that the analog compute element exists to avoid.
        """
        for vr in {dst, a, b}:
            self._check_vr(vr)
        bits = self.depth if bits is None else int(bits)
        acc = self._free_scratch_vr((dst, a, b))
        partial = self._free_scratch_vr((dst, a, b, acc))
        costs: List[WordOpCost] = [self.clear_vr(acc)]
        for bit in range(bits):
            flag = self.arrays[bit].read_column(b)
            uops_per_bit = 0
            for array in self.arrays:
                array.write_column(self.scratch.t5, flag)
                uops_per_bit = self._synth.and_col(
                    array, a, self.scratch.t5, partial, self.scratch
                )
            costs.append(
                WordOpCost("mul_mask", WordOpKind.BITWISE, float(uops_per_bit), self.depth, self.rows)
            )
            self._account(costs[-1])
            if bit:
                costs.append(self.shift_value_left(partial, partial, bit))
            costs.append(self.add(acc, acc, partial))
        costs.append(self.copy(dst, acc))
        return costs

    # ------------------------------------------------------------------ #
    # Shifts, rotations, pipeline reversal                                 #
    # ------------------------------------------------------------------ #
    def shift_value_left(self, dst: int, src: int, amount: int) -> WordOpCost:
        """dst = src << amount (bits move toward higher-index arrays)."""
        return self._shift(dst, src, amount, left=True, rotate=False)

    def shift_value_right(self, dst: int, src: int, amount: int) -> WordOpCost:
        """dst = src >> amount (logical shift)."""
        return self._shift(dst, src, amount, left=False, rotate=False)

    def rotate_value_left(self, dst: int, src: int, amount: int) -> WordOpCost:
        """dst = rotate_left(src, amount) over ``depth`` bits."""
        return self._shift(dst, src, amount, left=True, rotate=True)

    def rotate_value_right(self, dst: int, src: int, amount: int) -> WordOpCost:
        """dst = rotate_right(src, amount) over ``depth`` bits."""
        return self._shift(dst, src, amount, left=False, rotate=True)

    def _shift(self, dst: int, src: int, amount: int, left: bool, rotate: bool) -> WordOpCost:
        self._check_vr(dst)
        self._check_vr(src)
        if amount < 0:
            raise ExecutionError("shift amount must be non-negative")
        amount = amount % self.depth if rotate else min(amount, self.depth)
        # Bits move toward higher-index arrays on a left shift.
        step = amount if left else -amount
        planes = self._store[src]
        if rotate:
            moved = np.roll(planes, step, axis=0)
        else:
            moved = np.zeros_like(planes)
            keep = self.depth - amount
            if left:
                moved[amount:] = planes[:keep]
            else:
                moved[:keep] = planes[amount:]
        self._store[dst] = moved

        # Shifting against the pipeline's propagation direction requires the
        # pipeline-reversal macro: drain, reverse, propagate (Section 5.3).
        reversal_penalty = 0.0
        needs_left = left
        if (needs_left and self.direction == "right") or (not needs_left and self.direction == "left"):
            reversal_penalty = float(self.depth)
            self.direction = "left" if needs_left else "right"
        name = ("rotate" if rotate else "shift") + ("_left" if left else "_right")
        cost = WordOpCost(
            name,
            WordOpKind.SHIFT,
            1.0,
            int(amount + reversal_penalty) if amount or reversal_penalty else 1,
            self.rows,
        )
        self._account(cost)
        return cost

    def reverse_direction(self) -> WordOpCost:
        """Explicit pipeline reversal macro: drain, then propagate in reverse."""
        self.direction = "left" if self.direction == "right" else "right"
        cost = WordOpCost("pipeline_reverse", WordOpKind.SHIFT, 1.0, self.depth, self.rows)
        self._account(cost)
        return cost

    # ------------------------------------------------------------------ #
    # Accounting                                                           #
    # ------------------------------------------------------------------ #
    def _account(self, cost: WordOpCost, energy_rows: Optional[int] = None, charge: bool = True) -> None:
        if cost.kind in (WordOpKind.WRITE, WordOpKind.SHIFT, WordOpKind.ELEMENT):
            rows = energy_rows if energy_rows is not None else self.rows
            # Writes/moves touch one device per bit per row.
            self.ledger.charge(
                f"dce.{cost.kind.value}", energy_pj=self.WRITE_ENERGY_PJ * rows * cost.bits
            )
        if charge and self.auto_cycles:
            self.ledger.charge(f"dce.{cost.name}", cycles=cost.unpipelined_cycles)

    def _free_scratch_vr(self, in_use: Sequence[int]) -> int:
        """Find a VR not in ``in_use`` to use as a temporary (highest first)."""
        used = set(in_use)
        for vr in range(self.num_vrs - 1, -1, -1):
            if vr not in used:
                return vr
        raise CapacityError("no free vector register available for a temporary")

    @property
    def add_uops_per_bit(self) -> int:
        """µops one ripple-carry ADD executes per bit position.

        Used by the batched execution engine to reconstruct the cost of an
        ADD stream without running the gate networks element by element.
        """
        return self._synth.uops_per_full_adder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitPipeline(depth={self.depth}, rows={self.rows}, cols={self.cols}, "
            f"family={self.family.name})"
        )
