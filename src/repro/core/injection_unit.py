"""The instruction injection unit (IIU, Section 4.2).

A single MVM's reduction is hundreds of µops: every partial product needs a
(pre-shifted) write followed by a pipelined ADD, and each ADD is itself tens
of Boolean primitives.  If the front end had to expand and issue all of
them, its issue/dispatch logic would stall on every MVM.  The IIU exploits
the regularity of the sequence -- the same ADD repeated with incrementing
register arguments -- and is therefore just a small table plus a counter
that injects the µop stream directly into the digital issue queues, freeing
the front end to serve other HCTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analog.bitslicing import ShiftAddPlan
from ..digital.microops import WordOpCost, WordOpKind
from ..digital.pipeline import BitPipeline
from ..errors import RegisterLiveError

__all__ = ["InjectionTableEntry", "InstructionInjectionUnit"]


@dataclass(frozen=True)
class InjectionTableEntry:
    """One row of the IIU table: which registers the next ADD combines."""

    step: int
    accumulator_vr: int
    operand_vr: int
    shift: int


@dataclass
class InstructionInjectionUnit:
    """Expands shift-and-add reductions without involving the front end."""

    #: The configured reduction table (one entry per partial product).
    table: List[InjectionTableEntry] = field(default_factory=list)
    #: Counter tracking how many entries have been injected so far.
    counter: int = 0
    #: µop sequences injected over the unit's lifetime (statistics).
    injections: int = 0
    #: Front-end instruction slots saved by injecting locally (statistics).
    front_end_slots_saved: int = 0

    def configure(self, plan: ShiftAddPlan, accumulator_vr: int, staging_vrs: Sequence[int]) -> None:
        """Program the table for a new vACore / MVM shape.

        ``staging_vrs`` are the registers the shift unit writes incoming
        partial products into, cycled round-robin; the accumulator collects
        the running sum.
        """
        self.table = []
        steps = plan.steps
        for index, step in enumerate(steps):
            operand = staging_vrs[index % len(staging_vrs)]
            self.table.append(
                InjectionTableEntry(
                    step=index,
                    accumulator_vr=accumulator_vr,
                    operand_vr=operand,
                    shift=step.shift,
                )
            )
        self.counter = 0

    @staticmethod
    def _require_reserved(pipeline: BitPipeline) -> None:
        """Refuse to inject into a pipeline not reserved for analog output."""
        if not pipeline.reserved:
            raise RegisterLiveError(
                "reduction injected into an unreserved pipeline: its vector "
                "registers are live digital state; reserve the pipeline "
                "(dce.reserve_pipeline, done by set_matrix) before issuing "
                "an MVM that writes into it"
            )

    def next_entry(self) -> Optional[InjectionTableEntry]:
        """The next table entry to inject, or ``None`` when the table is done."""
        if self.counter >= len(self.table):
            return None
        entry = self.table[self.counter]
        self.counter += 1
        return entry

    def reset(self) -> None:
        """Rewind the counter for the next MVM using the same table."""
        self.counter = 0

    def inject_reduction(
        self,
        pipeline: BitPipeline,
        partial_values,
        accumulator_vr: int,
        staging_vrs: Sequence[int],
        shifts: Sequence[int],
    ) -> Tuple[List[WordOpCost], int]:
        """Execute the full reduction on ``pipeline`` and return its costs.

        ``partial_values`` are the already-shifted partial-product vectors
        (the shift unit applied the shifts in flight); the IIU only has to
        issue the write + ADD stream.  Returns the word-op costs and the
        number of front-end instruction slots this injection saved.

        The target pipeline must have been reserved for analog output
        (``dce.reserve_pipeline``, done by ``set_matrix``); injecting into
        an unreserved pipeline would overwrite vector registers the digital
        substrate considers live (:class:`~repro.errors.RegisterLiveError`).
        """
        self._require_reserved(pipeline)
        costs: List[WordOpCost] = []
        pipeline.clear_vr(accumulator_vr)
        for index, values in enumerate(partial_values):
            staging = staging_vrs[index % len(staging_vrs)]
            costs.append(pipeline.write_vr(staging, values))
            costs.append(pipeline.add(accumulator_vr, accumulator_vr, staging))
        self.injections += 1
        # Without the IIU every µop of every ADD would occupy a front-end slot.
        saved = int(sum(c.total_uops for c in costs))
        self.front_end_slots_saved += saved
        return costs, saved

    @staticmethod
    def wrap_accumulator(values: np.ndarray, depth: int) -> np.ndarray:
        """Model the accumulator read-back of a ``depth``-bit pipeline.

        Gate-level adds wrap modulo ``2**depth`` and the accumulator is read
        back as a two's-complement value of ``depth`` bits.  Shared by every
        interpreter of a reduction plan (the gate-accounted batch path and
        the analytic paths of the vectorized/cost-only backends), so the
        truncation semantics cannot drift between engines.
        """
        if depth >= 64:
            return values
        mask = np.int64((1 << depth) - 1)
        sign = np.int64(1) << (depth - 1)
        return ((values & mask) ^ sign) - sign

    @staticmethod
    def reduction_batch_costs(
        pipeline: BitPipeline, num_partials: int, batch: int, width: int
    ) -> Tuple[int, float, int, float, float]:
        """What one batched write+ADD reduction stream costs, charging nothing.

        The single source of truth for the cost side of a batched reduction,
        and a pure function of its arguments: the reference interpreter
        charges it per call (:meth:`account_reduction_batch`), the planner
        compiles it once per :class:`~repro.plan.ir.BatchReceipt` into the
        run list and counter totals the vectorized and cost-only backends
        replay.  Every staged write touches
        one device per bit per transferred element (``dce.write``); every
        ADD executes its NOR network on all rows of all bit arrays
        (``dce.boolean``).

        Returns ``(n_adds, add_uops_per_bit, slots_saved, write_pj,
        boolean_pj)``.
        """
        add_uops = float(pipeline.add_uops_per_bit)
        depth, rows = pipeline.depth, pipeline.rows
        write = WordOpCost("write_vr", WordOpKind.WRITE, 1.0, depth, rows)
        add = WordOpCost("add", WordOpKind.CARRY, add_uops, depth, rows)
        num_ops = batch * num_partials
        nor_energy = pipeline.family.primitive("NOR").energy_per_row_pj
        # Equal to summing ``total_uops`` over the ``num_ops`` write+ADD
        # pairs: the per-op uop counts are integral, so the product is exact.
        saved = int(num_ops * (write.total_uops + add.total_uops))
        return (
            num_ops,
            add_uops,
            saved,
            num_ops * pipeline.WRITE_ENERGY_PJ * width * depth,
            num_ops * add_uops * depth * nor_energy * rows,
        )

    def account_reduction_batch(
        self,
        pipeline: BitPipeline,
        num_partials: int,
        batch: int,
        width: int,
    ) -> Tuple[int, float, int]:
        """Charge one batched reduction stream and update the IIU statistics.

        Returns ``(n_adds, add_uops_per_bit, slots_saved)``.
        """
        num_ops, add_uops, saved, write_pj, boolean_pj = self.reduction_batch_costs(
            pipeline, num_partials, batch, width
        )
        pipeline.ledger.charge("dce.write", energy_pj=write_pj)
        pipeline.ledger.charge("dce.boolean", energy_pj=boolean_pj)
        self.injections += 1
        self.front_end_slots_saved += saved
        return num_ops, add_uops, saved

    def inject_reduction_batch(
        self,
        pipeline: BitPipeline,
        partial_values: Sequence[np.ndarray],
        accumulator_vr: int,
        staging_vrs: Sequence[int],
        shifts: Sequence[int],
    ) -> Tuple[np.ndarray, int, float, int]:
        """Reduce a whole batch of partial-product streams in one pass.

        ``partial_values`` holds one already-shifted ``(batch, width)`` matrix
        per partial product.  Instead of executing ``batch * len(partials)``
        gate-level write+ADD sequences (the per-element path of
        :meth:`inject_reduction`), the reduction is a single NumPy sum; the
        µop stream the hardware would execute is reconstructed analytically
        (:meth:`account_reduction_batch`) so cycle, energy, and
        front-end-slot accounting match the gate path.

        Returns ``(reduced, n_adds, add_uops_per_bit, slots_saved)`` where
        ``reduced`` is the ``(batch, width)`` accumulator contents after the
        stream.

        Like :meth:`inject_reduction`, requires the target pipeline to be
        reserved for analog output (:class:`~repro.errors.RegisterLiveError`
        otherwise).
        """
        self._require_reserved(pipeline)
        stacked = np.stack([np.asarray(v, dtype=np.int64) for v in partial_values])
        batch, width = stacked.shape[1], stacked.shape[2]
        reduced = self.wrap_accumulator(stacked.sum(axis=0), pipeline.depth)

        n_adds, add_uops, saved = self.account_reduction_batch(
            pipeline, len(partial_values), batch, width
        )
        # Leave the accumulator VR holding the last vector's reduction so the
        # pipeline state matches the end of the hardware stream (the bulk
        # charges above already cover this write).
        pipeline.set_vr_bits(accumulator_vr, reduced[-1])
        return reduced, n_adds, add_uops, saved
