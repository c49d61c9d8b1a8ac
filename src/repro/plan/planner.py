"""The Planner: compiles :class:`~repro.plan.ir.MvmPlan` objects, once.

One planner instance lives on every
:class:`~repro.core.hct.HybridComputeTile`.  ``plan_for`` is the only
entry point: it returns the cached plan for ``(allocation, input_bits)``
or builds it exactly once.  The cache itself is held by the tile's ACE,
next to the shard-kernel cache, and emptied by the same ``release``.  A
plan is the allocation's geometry -- schedule, reduction layout, cost
model, batch receipts -- so an in-place reprogram (``update_row`` /
``update_col``, a same-shape re-registration) keeps it, and the shard
kernel it holds, which the values decide, is refreshed where it lies.

``builds`` counts actual compilations; the serving layers aggregate it
(`DevicePool.planner_builds`, `PumServer.planner_builds`) so tests can
assert the hot path performs zero planning.

``receipt_for`` is the second, smaller memo: the
:class:`~repro.plan.ir.BatchReceipt` of a plan at one batch size, kept on
the plan itself and counted by ``receipt_hits`` / ``receipt_misses``.

:func:`compile_device_plan` works one level up: it stacks the tile plans
of one device-level matrix into a :class:`~repro.plan.ir.DevicePlan`.

The planner refers to its tile, and every plan to its ACE, through weak
proxies: tile -> planner and ACE -> plan cache are the owning directions,
so a dropped chip is freed by reference counting alone.
"""

from __future__ import annotations

import weakref
from types import MappingProxyType
from typing import Iterable, Optional, Tuple

import numpy as np

from ..analog.bitslicing import ShiftAddPlan
from ..analog.kernels import analog_runs, dot_bound
from ..metrics import CostLedger, checked_runs
from .ir import BatchReceipt, DevicePlan, MvmPlan, PlanCostModel, ReductionStep, unroll_schedule

__all__ = ["Planner", "compile_device_plan"]


class Planner:
    """Builds and caches execution plans for one hybrid compute tile."""

    #: Batch receipts kept per plan before the oldest is dropped.  A server
    #: dispatches batches of 1..``max_batch`` vectors, so that is how many
    #: sizes one plan can see: 16 by default, and 64 leaves room for a
    #: policy set to 4x that.  A caller cycling through more sizes
    #: than that recompiles the evicted ones instead of growing the plan.
    RECEIPT_BATCH_SIZES = 64

    def __init__(self, tile) -> None:
        self.tile = weakref.proxy(tile)
        #: Plans actually compiled (cache misses) over the tile's lifetime.
        self.builds = 0
        #: Cache hits served without compiling.
        self.hits = 0
        #: Batch receipts compiled / served from a plan's memo.
        self.receipt_misses = 0
        self.receipt_hits = 0

    def plan_for(self, handle, input_bits: int) -> MvmPlan:
        """The compiled plan for ``handle`` at ``input_bits`` (cached).

        The cache key is ``(handle, input_bits)``; the plan's cost model is
        closed-form in the batch size, so one plan serves every batch shape.
        """
        cache = self.tile.ace._plans
        key = (handle.handle_id, int(input_bits))
        plan = cache.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        plan = self._build(handle, int(input_bits))
        cache[key] = plan
        self.builds += 1
        return plan

    def receipt_for(
        self, plan: MvmPlan, batch: int, active_adc_bits: Optional[int] = None
    ) -> BatchReceipt:
        """The accounting of one ``batch``-vector MVM of ``plan`` (memoised).

        Kept in ``plan.receipts``, so it is dropped with the plan on
        release (an in-place reprogram keeps both: a receipt is geometry);
        at most :attr:`RECEIPT_BATCH_SIZES` entries per plan, oldest
        evicted first.
        """
        receipts = plan.receipts
        key = (batch, active_adc_bits)
        receipt = receipts.get(key)
        if receipt is not None:
            self.receipt_hits += 1
            return receipt
        self.receipt_misses += 1
        receipt = self._compile_receipt(plan, batch, active_adc_bits)
        if len(receipts) >= self.RECEIPT_BATCH_SIZES:
            del receipts[next(iter(receipts))]
        receipts[key] = receipt
        return receipt

    # ------------------------------------------------------------------ #
    # Compilation                                                          #
    # ------------------------------------------------------------------ #
    def _compile_receipt(
        self, plan: MvmPlan, batch: int, active_adc_bits: Optional[int]
    ) -> BatchReceipt:
        tile = self.tile
        analog = analog_runs(plan.kernel, plan.input_bits, batch, active_adc_bits)
        reduction = []
        slots_saved = 0
        for red in plan.reduction:
            saved, write_pj, boolean_pj = tile.iiu.reduction_batch_costs(
                tile.dce.pipeline(plan.output_base + red.col_tile),
                red.partials_per_vector, batch, red.width,
            )
            reduction += [("dce.write", 1, 0.0, write_pj), ("dce.boolean", 1, 0.0, boolean_pj)]
            slots_saved += saved
        optimized_cycles, breakdown = plan.cost.predict(batch, True)
        unoptimized_cycles, _ = plan.cost.predict(batch, False)
        return BatchReceipt(
            analog=checked_runs(analog),
            digital=tuple(checked_runs(analog + (*reduction, ("hct.mvm_batch", 1, charged, 0.0)))
                          for charged in (optimized_cycles, unoptimized_cycles)),
            mvm_steps=plan.input_bits * batch,
            injections=len(plan.reduction),
            n_adds=batch * plan.cost.partials_per_vector,
            slots_saved=slots_saved,
            optimized_cycles=optimized_cycles,
            unoptimized_cycles=unoptimized_cycles,
            breakdown=MappingProxyType(breakdown),
        )

    def _build(self, handle, input_bits: int) -> MvmPlan:
        tile = self.tile
        ace = tile.ace
        rows, cols = handle.shape
        array_rows = ace.config.array_rows
        array_cols = ace.config.array_cols

        shift_add = ShiftAddPlan(
            input_bits=input_bits,
            weight_slices=handle.num_slices,
            bits_per_cell=handle.bits_per_cell,
        )
        steps = unroll_schedule(handle, input_bits, array_rows, array_cols)

        partials_per_col_tile = shift_add.num_partial_products * handle.row_tiles
        reduction = tuple(
            ReductionStep(
                col_tile=col_tile,
                col_offset=col_tile * array_cols,
                width=min(cols - col_tile * array_cols, array_cols),
                partials_per_vector=partials_per_col_tile,
            )
            for col_tile in range(handle.col_tiles)
        )

        # Analytic timeline parameters (Figure 10).  All arrays of a step
        # operate concurrently, so the sample crossbar's periphery describes
        # every step; input bits are serial, column tiles are not.
        sample = ace.crossbar(handle.array_ids[0])
        cols_per_tile = min(cols, array_cols)
        output_base = tile._matrix_output_pipeline.get(handle.handle_id, 0)
        cost = PlanCostModel(
            per_step_analog=sample.step_costs(rows, cols_per_tile)[0],
            transfer=tile.shift_unit.transfer_cycles(cols_per_tile),
            write=float(tile.config.dce.rows),
            depth=tile.config.dce.pipeline_depth,
            max_shift=shift_add.max_shift,
            steps_per_vector=partials_per_col_tile,
            # The ADD stream the reduction issues: one ADD per partial
            # product of every column tile, at the output pipeline's µops
            # per bit (the gate-level interpreter checks both).
            partials_per_vector=partials_per_col_tile * handle.col_tiles,
            add_uops_per_bit=float(tile.dce.pipeline(output_base).add_uops_per_bit),
        )

        return MvmPlan(
            handle=handle,
            input_bits=input_bits,
            shift_add=shift_add,
            steps=steps,
            reduction=reduction,
            ace=weakref.proxy(ace),
            cost=cost,
            output_base=output_base,
            accumulator_vr=0,
            staging_vrs=tuple(tile._staging_vrs()),
        )


def compile_device_plan(
    shape: Tuple[int, int],
    input_bits: int,
    blocks: Iterable[Tuple],
    ledger: CostLedger,
    weights: Optional[np.ndarray] = None,
) -> Optional[DevicePlan]:
    """Stack one device-level matrix into a :class:`~repro.plan.ir.DevicePlan`.

    ``blocks`` yields ``(placement tile, hct, handle)`` in placement order
    (the device's tile walk; placement is a regular grid starting at row
    0), and ``ledger`` is the device's runtime ledger, which the plan's
    calls charge.  Returns ``None`` unless every block answers exactly
    (its shard kernel's ``exact``:
    :func:`~repro.analog.kernels.answers_exactly`) with the ACE still
    enabled, and the device's answer is provably
    one exact matmul: with ``M = 2**(element size - 1)`` the largest weight
    magnitude, ``band_rows * (2**input_bits - 1) * M < 2**(depth - 1)`` for
    every block's pipeline depth, so no block's accumulator can wrap, and ``rows *
    (2**input_bits - 1) * M < 2**53``, so every float64 partial sum is an
    exact integer.  The proof reads geometry and configuration, no value,
    so an in-place reprogram keeps it.  Digital post-processing can be
    switched per tile at any time, so it is checked per call instead.
    Costs one array store per (row tile, column tile) shard on top of the
    tile plans it compiles or finds cached, into a new tensor or into
    ``weights``, the one a plan of the same allocation at another
    ``input_bits`` already stacked, which is then shared.  The store is
    :func:`restack_device_plan`'s, the body an in-place reprogram reruns.
    """
    rows, cols = shape
    blocks = list(blocks)
    band_rows = blocks[0][0].row_end
    value_bits = blocks[0][2].value_bits
    if dot_bound(rows, input_bits, value_bits) >= 1 << 53:
        return None
    band_bound = dot_bound(band_rows, input_bits, value_bits)  # < 2**(depth - 1): no wrap
    if weights is None:
        weights = np.zeros((-(-rows // band_rows), band_rows, cols))
    tiles = []
    for tile, hct, handle in blocks:
        if (not (hct.analog_enabled and hct.ace.enabled)
                or band_bound >= 1 << (hct.dce.config.pipeline_depth - 1)):
            return None
        plan = hct.planner.plan_for(handle, input_bits)
        band = tile.row_start // band_rows
        outputs = tuple(
            (hct.dce.pipeline(plan.output_base + red.col_tile),
             tile.col_start + red.col_offset, red.width)
            for red in plan.reduction
        )
        if not _stack_block(weights, band, tile.col_start, plan.kernel):
            return None
        tiles.append((hct, plan, band, outputs))
    return DevicePlan(input_bits, weights, rows, tuple(tiles), ledger)


def restack_device_plan(plan: DevicePlan, blocks: Iterable[Tuple]) -> bool:
    """Store every block's recombined weights into ``plan.weights`` again.

    What an in-place reprogram of the allocation runs once its shard
    kernels are refreshed: ``blocks`` is the device's tile walk the plan was
    compiled from.  The plan's geometry and operand scratch stay.  Returns
    ``False`` -- the plan must be dropped -- once a block has left the
    proven-exact path.
    """
    return all(
        _stack_block(plan.weights, band, tile.col_start, tile_plan.kernel)
        for (tile, _, _), (_, tile_plan, band, _) in zip(blocks, plan.tiles)
    )


def _stack_block(weights: np.ndarray, band: int, col_start: int, kernel) -> bool:
    """Store one block's shards into row band ``band`` of ``weights`` from
    column ``col_start``; ``False``, storing nothing, unless the block
    answers exactly (``kernel.exact``)."""
    if not kernel.exact:
        return False
    for shard in kernel.tiles:
        first = col_start + shard.col_offset
        weights[band, shard.row_start: shard.row_end, first: first + shard.used_cols] = (
            shard.recombined
        )
    return True
