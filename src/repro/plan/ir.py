"""The ExecutionPlan IR: a compiled, cacheable bit-plane MVM schedule.

The hybrid bit-sliced MVM schedule used to be re-derived implicitly on
every call: the reference loop walked it, the vectorized engine
re-materialised it as stacked tensors, and the pool/server re-planned
sharding per request.  This module makes the schedule a first-class
artifact -- the same compile-then-execute separation profile-guided
optimisers use to make repeated executions cheap and retargetable:

* :class:`MvmPlan` is the per-allocation IR for one HCT-resident matrix:
  the shard/tile/slice topology (:class:`PlanStep`), the digital reduction
  layout (:class:`ReductionStep`), the stacked-tensor operand
  (:class:`~repro.analog.kernels.ShardKernel`), and an analytic
  :class:`PlanCostModel` for the Figure 10 timelines.
* A :class:`~repro.plan.planner.Planner` builds the plan once per
  ``(allocation, input_bits)`` and caches it next to the shard-kernel
  cache; every execution backend in
  :mod:`~repro.plan.backends` is an *interpreter* of the same plan, so
  bit-identity between engines is structural rather than hand-synchronised.
* :class:`DevicePlan` is the whole-allocation form of the proven-exact
  path: every HCT block of one device-level matrix stacked into one
  tensor, so a device call is one contraction whatever the tile count.
* :class:`ShardedPlan` lifts the same idea to the device pool: the
  row-band-to-device topology of a pooled allocation is compiled once at
  registration time so the per-request hot path does zero planning.

``plan.describe()`` renders the schedule for docs and debugging
(``make plan-dump`` prints a sample).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..analog.bitslicing import ShiftAddPlan
from ..analog.kernels import analog_step_costs
from ..metrics import ChargeRuns

__all__ = [
    "BatchReceipt",
    "DevicePlan",
    "HctBatchMvmResult",
    "HctMvmResult",
    "MvmPlan",
    "PlanCostModel",
    "PlanHandle",
    "PlanStep",
    "ReductionStep",
    "ShardTask",
    "ShardedPlan",
    "unroll_schedule",
]


@dataclass
class HctMvmResult:
    """The outcome of one hybrid MVM on an HCT."""

    #: The reduced output vector (signed integers).
    values: np.ndarray
    #: Wall-clock cycles with the optimised (shift-in-flight) schedule.
    optimized_cycles: float
    #: Wall-clock cycles with the naive serialised schedule (Figure 10a).
    unoptimized_cycles: float
    #: Energy consumed by this MVM (analog + digital), in pJ.
    energy_pj: float
    #: Per-phase cycle breakdown of the optimised schedule.
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Number of partial products the reduction consumed.
    num_partial_products: int = 0
    #: Front-end instruction slots saved by the IIU.
    iiu_slots_saved: int = 0

    @property
    def cycles(self) -> float:
        """Alias for the optimised wall-clock latency."""
        return self.optimized_cycles

    @property
    def speedup_from_optimization(self) -> float:
        """How much the Section 4.1 optimisations help for this MVM."""
        if self.optimized_cycles == 0:
            return 1.0
        return self.unoptimized_cycles / self.optimized_cycles


@dataclass
class HctBatchMvmResult:
    """The outcome of one batched hybrid MVM on an HCT."""

    #: The reduced output vectors, one row per input vector (signed integers).
    values: np.ndarray
    #: Number of input vectors in the batch.
    batch: int
    #: Wall-clock cycles for the whole batch, optimised schedule.
    optimized_cycles: float
    #: Wall-clock cycles for the whole batch, naive serialised schedule.
    unoptimized_cycles: float
    #: Energy consumed by the batch (analog + digital), in pJ.
    energy_pj: float
    #: Per-phase cycle breakdown of the optimised schedule.
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Partial products the reduction consumed *per vector*.
    num_partial_products: int = 0
    #: Front-end instruction slots saved by the IIU across the batch.
    iiu_slots_saved: int = 0
    #: True when a cost-only backend produced this result: the ledger
    #: charges and timelines are real, ``values`` is a placeholder.
    estimated: bool = False

    @property
    def cycles(self) -> float:
        """Alias for the optimised wall-clock latency of the batch."""
        return self.optimized_cycles

    @property
    def cycles_per_vector(self) -> float:
        """Amortised optimised latency per input vector."""
        return self.optimized_cycles / max(1, self.batch)

    @property
    def speedup_from_optimization(self) -> float:
        """How much the Section 4.1 optimisations help for this batch."""
        if self.optimized_cycles == 0:
            return 1.0
        return self.unoptimized_cycles / self.optimized_cycles


@dataclass(frozen=True)
class PlanStep:
    """One analog macro-step of the bit-sliced schedule.

    The reference backend executes exactly one crossbar call per step, in
    plan order (input bit outermost, then row tile, column tile, weight
    slice -- the hardware issue order); the vectorized backend collapses
    the steps of each weight slice into broadcast matmuls but produces the
    same post-ADC values.
    """

    input_bit: int
    row_tile: int
    col_tile: int
    weight_slice: int
    #: Analog array executing this step.
    array_id: int
    #: Recombination shift of the produced partial product.
    shift: int
    #: Input rows driven by this step (matrix-row coordinates).
    row_start: int
    row_end: int
    #: First output column this step's partial product lands on.
    col_offset: int


def unroll_schedule(
    handle, input_bits: int, array_rows: int, array_cols: int
) -> Tuple[PlanStep, ...]:
    """Unroll the bit-sliced schedule of ``handle`` in reference issue order.

    Input bit outermost (inputs are applied one bit per cycle), then row
    tile, column tile, weight slice; the ``(row tile, col tile, slice) ->
    array`` mapping mirrors the allocation order of ``set_matrix``.  The
    single source of the schedule derivation: the
    :class:`~repro.plan.planner.Planner` bakes the result into every
    :class:`MvmPlan`, and the single-vector
    :meth:`~repro.analog.ace.AnalogComputeElement.execute_mvm` walks it
    directly, so the two cannot drift.
    """
    rows, cols = handle.shape
    array_grid = {}
    array_index = 0
    for row_tile in range(handle.row_tiles):
        for col_tile in range(handle.col_tiles):
            for weight_slice in range(handle.num_slices):
                array_grid[(row_tile, col_tile, weight_slice)] = handle.array_ids[
                    array_index
                ]
                array_index += 1

    steps = []
    for input_bit in range(input_bits):
        for row_tile in range(handle.row_tiles):
            r0 = row_tile * array_rows
            r1 = min(rows, r0 + array_rows)
            for col_tile in range(handle.col_tiles):
                c0 = col_tile * array_cols
                for weight_slice in range(handle.num_slices):
                    steps.append(
                        PlanStep(
                            input_bit=input_bit,
                            row_tile=row_tile,
                            col_tile=col_tile,
                            weight_slice=weight_slice,
                            array_id=array_grid[(row_tile, col_tile, weight_slice)],
                            shift=input_bit + weight_slice * handle.bits_per_cell,
                            row_start=r0,
                            row_end=r1,
                            col_offset=c0,
                        )
                    )
    return tuple(steps)


@dataclass(frozen=True)
class ReductionStep:
    """The digital reduction of one column tile's partial-product stream."""

    col_tile: int
    #: First matrix column this tile's outputs occupy.
    col_offset: int
    #: Output columns produced by this tile.
    width: int
    #: Partial products per input vector this tile's pipeline consumes.
    partials_per_vector: int


@dataclass(frozen=True)
class PlanCostModel:
    """Analytic latency model of the two Figure 10 schedules.

    All parameters are fixed at plan-build time from the allocation's
    geometry and periphery; the model is *closed-form in the batch size*,
    which is what lets one plan serve every batch shape with zero
    re-planning on the serving hot path.
    """

    #: Analog production latency of one macro-step (DAC drive + crossbar
    #: cycle + ADC conversion), in cycles.
    per_step_analog: float
    #: ACE-to-DCE network transfer latency of one partial product.
    transfer: float
    #: DCE write latency of one staged partial product.
    write: float
    #: Pipeline depth of the DCE bit pipelines (accumulator word width).
    depth: int
    #: Largest recombination shift any step applies (unoptimised schedule
    #: pays it as an explicit digital shift per partial product).
    max_shift: int
    #: Analog macro-steps per input vector.
    steps_per_vector: int
    #: µops one ripple-carry ADD executes per bit position on this tile's
    #: DCE (captured at plan-build time so the model can *predict* a batch
    #: timeline without executing the reduction that normally supplies it).
    add_uops_per_bit: float = 12.0

    def predict(
        self, batch: int, partials_per_vector: int, optimized: bool = True
    ) -> Tuple[float, Dict[str, float]]:
        """Predicted timeline of a ``batch``-vector MVM, no execution needed.

        Reconstructs the pipelined ADD-stream shape the backends derive
        while reducing (``n_adds = batch * partials_per_vector`` with the
        tile's captured ``add_uops_per_bit``), so for a digital-reduction
        tile the prediction equals the ``optimized_cycles`` a real dispatch
        would report -- this is the closed-form oracle cost-aware
        scheduling queries per candidate batch size.
        """
        n_adds = batch * partials_per_vector
        return self.timeline(batch, n_adds, self.add_uops_per_bit, optimized)

    def timeline(
        self,
        batch: int,
        n_adds: int,
        add_uops_per_bit: float,
        optimized: bool,
    ) -> Tuple[float, Dict[str, float]]:
        """Wall-clock latency of an MVM batch under one Figure 10 schedule.

        ``n_adds``/``add_uops_per_bit`` describe the pipelined ADD stream
        (the backends derive them from the reduction they performed, so the
        reference and analytic accountings stay value-identical).
        """
        steps = self.steps_per_vector * batch
        breakdown: Dict[str, float] = {}
        if optimized:
            # Figure 10b: shifts happen in flight; ADC production, network
            # transfer, and DCE writes are rate-matched and overlap, so the
            # steady-state step cost is their maximum; the pipelined ADD
            # stream drains afterwards.
            step_cost = max(self.per_step_analog, self.transfer, self.write)
            analog_phase = steps * step_cost
            add_stream = (
                add_uops_per_bit * self.depth + max(0, n_adds - 1) * add_uops_per_bit
                if n_adds
                else 0.0
            )
            breakdown["analog_and_transfer"] = analog_phase
            breakdown["pipelined_adds"] = add_stream
            total = analog_phase + add_stream
        else:
            # Figure 10a: every partial product pays analog production, write,
            # an explicit digital shift, and a full (unpipelined) ADD before
            # the next one may start.
            per_partial = (
                self.per_step_analog
                + self.write
                + float(self.max_shift)
                + add_uops_per_bit * self.depth
            )
            total = steps * per_partial
            breakdown["serialized_steps"] = total
        breakdown["total"] = total
        return total, breakdown


@dataclass(frozen=True)
class BatchReceipt:
    """Everything one batch of one plan charges besides its arithmetic.

    What the vectorized and cost-only backends account per call is a pure
    function of ``(plan, batch, active_adc_bits)``, so the
    :class:`~repro.plan.planner.Planner` compiles it once
    (:meth:`~repro.plan.planner.Planner.receipt_for`) and memoises it on the
    plan: the ledger side as the charge stream itself, run-length
    (:data:`~repro.metrics.ChargeRuns`, non-negativity checked at compile
    time), the counter side as totals.  The backends replay both against
    the tile's live ledger and counters (``repro.plan.backends._replay_receipt``);
    the step-walking reference backend never builds one and is the oracle
    the replay is tested against.
    """

    #: The ``ace.mvm`` stream in the reference issue order: one run of the
    #: whole stream when every shard's macro-step costs the same, otherwise
    #: one run of ``num_slices`` per (input bit, shard), input bits outermost.
    analog_runs: ChargeRuns
    #: :attr:`analog_runs`, then per column tile its reduction's
    #: ``dce.write`` and ``dce.boolean`` energy: what a batch charges with
    #: digital post-processing on (raw mode stops after the analog part).
    runs: ChargeRuns
    #: Analog steps every crossbar of the allocation runs (``mvm_count``).
    mvm_steps: int
    #: Reduction streams the IIU injects (one per column tile), the
    #: pipelined ADDs (vectors through the transpose unit) and the front-end
    #: slots saved, over all column tiles.
    injections: int
    n_adds: int
    slots_saved: int
    #: Figure 10b / 10a wall-clock cycles and the 10b breakdown.
    optimized_cycles: float
    unoptimized_cycles: float
    breakdown: Mapping[str, float]


@dataclass
class MvmPlan:
    """The compiled execution plan for one HCT-resident matrix allocation.

    Built once by the :class:`~repro.plan.planner.Planner`, cached keyed on
    ``(allocation, input_bits)``, and invalidated on release/reprogram
    alongside the shard-kernel cache.  Every backend in the
    :class:`~repro.plan.backends.BackendRegistry` executes this object --
    two interpreters of one IR -- so results, ledgers, and timelines agree
    bit for bit by construction of their shared operands.

    The plan also carries its :class:`BatchReceipt` memo (``receipts``,
    keyed ``(batch, active_adc_bits)``, filled and bounded by the planner),
    so the per-batch accounting dies with the plan on release/reprogram
    exactly like the schedule it was derived from.
    """

    #: The analog allocation this plan executes against.
    handle: object
    #: Input precision the schedule was compiled for.
    input_bits: int
    #: The (input bit, weight slice) recombination table (IIU contents).
    shift_add: ShiftAddPlan
    #: Fully unrolled analog schedule, reference issue order.
    steps: Tuple[PlanStep, ...]
    #: Digital reduction layout, one entry per column tile.
    reduction: Tuple[ReductionStep, ...]
    #: The ACE holding the allocation (and the shard-kernel cache); a weak
    #: proxy, because the ACE's plan cache holds this plan.  A plan kept
    #: past its tile raises :class:`ReferenceError` on first ``kernel``.
    ace: object
    #: Analytic timeline model (Figure 10a/10b).
    cost: PlanCostModel
    #: First DCE pipeline reserved for this allocation's outputs.
    output_base: int
    #: Accumulator vector register of the reduction.
    accumulator_vr: int
    #: Staging vector registers the shift unit writes into (round-robin).
    staging_vrs: Tuple[int, ...]
    #: Batch receipts by ``(batch, active_adc_bits)``, oldest first.
    receipts: Dict[Tuple[int, Optional[int]], BatchReceipt] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def shape(self) -> Tuple[int, int]:
        """Logical matrix shape of the planned allocation."""
        return self.handle.shape

    @cached_property
    def crossbars(self) -> Tuple[object, ...]:
        """Every crossbar of the allocation, flat (they count analog steps)."""
        return tuple(crossbar for shard in self.kernel.tiles for crossbar in shard.crossbars)

    @cached_property
    def output_resources(self) -> Tuple[str, ...]:
        """Arbiter names of the output pipelines, one per column tile."""
        return tuple(f"pipeline:{self.output_base + t}" for t in range(self.handle.col_tiles))

    @cached_property
    def kernel(self):
        """Stacked per-shard conductance tensors (vectorized operand).

        Fetched from the ACE's shard-kernel cache on first use and then
        held by the plan (the two are invalidated together, by
        ``release``), so the tensors are built lazily: interpreters that
        never touch them (the step-walking reference backend, the
        single-vector path) pay nothing, while the vectorized and cost-only
        backends share one snapshot per allocation.
        """
        return self.ace.kernel_for(self.handle)

    @property
    def num_steps(self) -> int:
        """Analog macro-steps per input vector across all shards."""
        return len(self.steps)

    @property
    def num_partial_products(self) -> int:
        """Partial products one input vector produces."""
        return len(self.steps)

    @property
    def partials_per_vector(self) -> int:
        """Partial products per input vector the digital reduction consumes."""
        return sum(red.partials_per_vector for red in self.reduction)

    def predicted_cycles(self, batch: int, optimized: bool = True) -> float:
        """Predicted wall-clock cycles of a ``batch``-vector MVM (no execution).

        Closed-form in the batch size through :meth:`PlanCostModel.predict`;
        for a tile with digital post-processing the value equals the
        ``optimized_cycles`` a real dispatch of the same batch reports, so
        cost-aware scheduling and placement can price work before running it.

        >>> import numpy as np
        >>> from repro.core.hct import HybridComputeTile
        >>> from repro.core.config import HctConfig
        >>> tile = HybridComputeTile(HctConfig.small())
        >>> handle = tile.set_matrix(np.eye(4, dtype=np.int64), value_bits=2)
        >>> plan = tile.planner.plan_for(handle, input_bits=2)
        >>> plan.predicted_cycles(8) > plan.predicted_cycles(1)
        True
        """
        total, _ = self.cost.predict(batch, self.partials_per_vector, optimized)
        return total

    def predicted_energy_pj(self, batch: int) -> float:
        """Predicted analog-phase energy of a ``batch``-vector MVM, in pJ.

        Sums the per-shard step energy the analytic backends charge for the
        analog phase (:func:`~repro.analog.kernels.analog_step_costs`: DAC
        drive, row periphery, sample-and-hold, ADC conversion, once per
        input bit and weight slice) -- but *without* executing or charging
        anything.  Digital
        reduction energy is excluded; the analog phase dominates, which is
        all a dispatch-now-vs-wait comparison needs.  First use builds the
        allocation's shard kernel lazily (shared with the vectorized
        backend's cache).
        """
        per_tile = sum(energy_pj for _, energy_pj in analog_step_costs(self.kernel, 1))
        return self.input_bits * self.handle.num_slices * batch * per_tile

    def describe(self, max_steps: int = 12) -> str:
        """Human-readable rendering of the compiled schedule.

        >>> import numpy as np
        >>> from repro.core.hct import HybridComputeTile
        >>> from repro.core.config import HctConfig
        >>> tile = HybridComputeTile(HctConfig.small())
        >>> handle = tile.set_matrix(np.eye(4, dtype=np.int64), value_bits=2)
        >>> plan = tile.planner.plan_for(handle, input_bits=2)
        >>> print(plan.describe().splitlines()[0])
        MvmPlan: 4x4 matrix, 2-bit weights @ 1 bit/cell (2 slices), 2-bit inputs
        """
        handle = self.handle
        lines = [
            f"MvmPlan: {handle.shape[0]}x{handle.shape[1]} matrix, "
            f"{handle.value_bits}-bit weights @ {handle.bits_per_cell} bit/cell "
            f"({handle.num_slices} slices), {self.input_bits}-bit inputs",
            f"  topology : {handle.row_tiles} row tile(s) x {handle.col_tiles} "
            f"col tile(s), arrays {list(handle.array_ids)}",
            f"  schedule : {self.num_steps} analog macro-steps/vector "
            f"({self.input_bits} input bits x {handle.num_slices} slices x "
            f"{handle.row_tiles * handle.col_tiles} shards), "
            f"exact-int fast path {'ON' if getattr(self.kernel, 'exact', False) else 'off'}",
        ]
        shown = self.steps[:max_steps]
        for step in shown:
            lines.append(
                f"    [{step.input_bit}|{step.row_tile},{step.col_tile}|s{step.weight_slice}] "
                f"array {step.array_id:>3}  rows {step.row_start}:{step.row_end}  "
                f"cols @{step.col_offset}  shift {step.shift}"
            )
        if len(self.steps) > max_steps:
            lines.append(f"    ... {len(self.steps) - max_steps} more steps")
        for red in self.reduction:
            lines.append(
                f"  reduce   : col tile {red.col_tile} -> pipeline "
                f"{self.output_base + red.col_tile}, width {red.width} @ "
                f"{red.col_offset}, {red.partials_per_vector} partials/vector "
                f"-> VR {self.accumulator_vr} via VRs {list(self.staging_vrs)}"
            )
        cost = self.cost
        lines.append(
            f"  cost     : step analog {cost.per_step_analog:.2f} cyc, "
            f"transfer {cost.transfer:.2f}, write {cost.write:.0f}, "
            f"depth {cost.depth}, max shift {cost.max_shift}, "
            f"{cost.steps_per_vector} steps/vector"
        )
        return "\n".join(lines)


@dataclass
class DevicePlan:
    """One device-level matrix on the proven-exact path, as one contraction.

    A matrix larger than one HCT is placed as a grid of blocks, each with
    its own :class:`MvmPlan`.  When every block is on the proven-exact path
    their arithmetic is the same small exact-integer matmul, so the device
    stacks the blocks' recombined weights once
    (:func:`~repro.plan.planner.compile_device_plan`) and a call contracts
    all of them at once (``repro.plan.backends.execute_device_plan``).  What
    stays per block is what belongs to the block's hardware: its
    :class:`BatchReceipt` replay against its own ledger and counters, and
    its accumulator registers.

    Kept per ``(allocation, input_bits)`` on the
    :class:`~repro.runtime.session.MatrixAllocation` and dropped on
    ``release`` / ``update_row`` / ``update_col`` like the tile plans it
    refers to.
    """

    #: Scratch blocks kept per plan before the oldest is dropped (a server
    #: dispatches a handful of batch sizes per matrix).
    SCRATCH_BATCH_SIZES = 8

    #: Input precision the tile plans were compiled for.
    input_bits: int
    #: ``(row_bands, band_rows, cols)`` float64: band ``b`` holds the
    #: recombined weights of every block whose rows start at ``b *
    #: band_rows``, side by side; a ragged last band is zero-padded.
    weights: np.ndarray
    #: Matrix rows (``<= row_bands * band_rows``).
    rows: int
    #: Accumulator width every output pipeline shares (one wrap serves all).
    depth: int
    #: Their ``bit_weights``: ``(depth, 1)`` int64 (one unpack serves all).
    bit_weights: np.ndarray
    #: Per block, in placement order: ``(hct, MvmPlan, band, ((pipeline,
    #: col_offset, width), ...))`` -- the output pipelines with the matrix
    #: columns each accumulates.
    tiles: Tuple[Tuple, ...]
    #: Per batch size ``(input block, banded operand)``: two views of one
    #: zeroed float64 buffer, oldest first.
    scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)

    def operands(self, batch: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(batch, rows)`` input block and its banded matmul operand.

        Both are views of one buffer: storing a batch into the first fills
        the ``(row_bands, batch, band_rows)`` second; the padding rows of a
        ragged last band are never written and stay zero.
        """
        entry = self.scratch.get(batch)
        if entry is None:
            if len(self.scratch) >= self.SCRATCH_BATCH_SIZES:
                del self.scratch[next(iter(self.scratch))]
            row_bands, band_rows, _ = self.weights.shape
            block = np.zeros((batch, row_bands * band_rows))
            entry = self.scratch[batch] = (
                block[:, : self.rows],
                block.reshape(batch, row_bands, band_rows).transpose(1, 0, 2),
            )
        return entry


@dataclass(frozen=True)
class PlanHandle:
    """Process-portable cost surrogate of a compiled execution plan.

    A full :class:`MvmPlan` is deliberately *not* serializable: it holds
    live ACE/handle references, lazily built shard kernels, and cache
    identity that only means anything inside the owning process.  Sharing
    scheduling information across a process boundary (the cluster gateway
    routing work to device-worker processes) needs none of that -- only
    the closed-form cost surface.  ``PlanHandle`` captures the two samples
    that pin the (affine in batch) predicted-cycle model plus the
    predicted per-vector energy, and round-trips through ``to_bytes`` /
    ``from_bytes`` with no pickling.

    >>> handle = PlanHandle(shape=(8, 8), input_bits=4,
    ...                     base_cycles=100.0, cycles_per_vector=25.0,
    ...                     energy_per_vector_pj=3.5)
    >>> PlanHandle.from_bytes(handle.to_bytes()) == handle
    True
    >>> handle.predicted_cycles(4)
    200.0
    """

    #: Logical (rows, cols) shape of the planned matrix.
    shape: Tuple[int, int]
    #: Input precision the plan was compiled for.
    input_bits: int
    #: Fixed cost of one dispatch (cycles at batch size zero).
    base_cycles: float
    #: Marginal cycles of each additional vector in the batch.
    cycles_per_vector: float
    #: Predicted analog-phase energy per vector, in pJ.
    energy_per_vector_pj: float

    #: Struct layout of the serialized form (see ``to_bytes``).
    _STRUCT = struct.Struct("<IIIddd")

    def predicted_cycles(self, batch: int) -> float:
        """Predicted cycles of one ``batch``-vector dispatch."""
        return self.base_cycles + self.cycles_per_vector * batch

    def predicted_energy_pj(self, batch: int) -> float:
        """Predicted analog-phase energy (pJ) of one ``batch`` dispatch."""
        return self.energy_per_vector_pj * batch

    @classmethod
    def from_cost_samples(
        cls,
        shape: Tuple[int, int],
        input_bits: int,
        cycles_at_1: float,
        cycles_at_17: float,
        energy_per_vector_pj: float,
    ) -> "PlanHandle":
        """Fit the affine cycle model from two predicted-cycle samples.

        ``cycles_at_17 - cycles_at_1`` spans 16 extra vectors, so the
        slope is exact for any cost model affine in the batch size and a
        secant approximation otherwise (good enough for routing).
        """
        slope = max(0.0, (cycles_at_17 - cycles_at_1) / 16.0)
        base = max(0.0, cycles_at_1 - slope)
        return cls(
            shape=(int(shape[0]), int(shape[1])),
            input_bits=int(input_bits),
            base_cycles=base,
            cycles_per_vector=slope,
            energy_per_vector_pj=float(energy_per_vector_pj),
        )

    def to_bytes(self) -> bytes:
        """Fixed-width binary form, safe to cross a process boundary."""
        return self._STRUCT.pack(
            self.shape[0], self.shape[1], self.input_bits,
            self.base_cycles, self.cycles_per_vector,
            self.energy_per_vector_pj,
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PlanHandle":
        """Inverse of :meth:`to_bytes`."""
        try:
            rows, cols, input_bits, base, slope, energy = cls._STRUCT.unpack(
                payload
            )
        except struct.error as exc:
            raise ValueError(f"malformed PlanHandle payload: {exc}") from exc
        return cls(
            shape=(rows, cols), input_bits=input_bits, base_cycles=base,
            cycles_per_vector=slope, energy_per_vector_pj=energy,
        )


@dataclass(frozen=True)
class ShardTask:
    """One copy of one row band of a pooled matrix, pinned to one device."""

    #: Position in the allocation's shard order (partial-sum merge order).
    position: int
    device_index: int
    row_start: int
    row_end: int
    #: The device-level allocation holding this band.
    device_allocation: object
    #: Copy index within the band: 0 is the primary (the copy dispatch
    #: prefers), 1..R-1 are failover replicas holding identical blocks on
    #: distinct devices.
    replica: int = 0

    @property
    def rows(self) -> int:
        """Number of matrix rows held by this copy."""
        return self.row_end - self.row_start


@dataclass
class ShardedPlan:
    """The shard table of one pooled matrix: row band -> copies -> device.

    ``bands[position]`` holds every copy of one contiguous row band in
    replica order (``bands[position][0]`` is the primary), each copy one
    :class:`ShardTask` carrying the device-level allocation that stores the
    block.  This is the *only* description of the topology:
    ``DevicePool.set_matrix`` fills it, the fan-out selects from it and
    reduces partials in band order, ``DevicePool.rebuild`` swaps a band's
    tuple in place, and :class:`~repro.runtime.pool.PooledAllocation` is
    this table plus the retained source matrix.  The device-level
    :class:`MvmPlan` caches are warmed per ``input_bits`` through
    ``DevicePool.compile`` (``prepared_input_bits`` records which
    precisions are hot).
    """

    allocation_id: int
    shape: Tuple[int, int]
    #: Band position -> copies of that band in replica order.
    bands: List[Tuple[ShardTask, ...]] = field(default_factory=list)
    #: Input precisions whose tile-level plans have been precompiled.
    prepared_input_bits: Set[int] = field(default_factory=set)

    @property
    def num_shards(self) -> int:
        """Row bands the matrix is split into (replicas excluded)."""
        return len(self.bands)

    @property
    def replication(self) -> int:
        """Copies kept of each row band (1 = unreplicated)."""
        return max((len(copies) for copies in self.bands), default=1)

    @property
    def tasks(self) -> Tuple[ShardTask, ...]:
        """The primary copy of every band, in shard (merge) order."""
        return tuple(copies[0] for copies in self.bands)

    @property
    def all_tasks(self) -> Tuple[ShardTask, ...]:
        """Every copy of every band, band-major then replica order."""
        return tuple(task for copies in self.bands for task in copies)

    @property
    def devices_used(self) -> List[int]:
        """Indices of the devices holding at least one copy (replicas too)."""
        return sorted({task.device_index for task in self.all_tasks})

    def describe(self) -> str:
        """Human-readable rendering of the sharded topology."""
        primaries = sorted({copies[0].device_index for copies in self.bands})
        lines = [
            f"ShardedPlan: allocation {self.allocation_id}, "
            f"{self.shape[0]}x{self.shape[1]} over {self.num_shards} shard(s) "
            f"on devices {primaries}"
            + (f", replication {self.replication}" if self.replication > 1 else ""),
        ]
        for primary, *fallbacks in self.bands:
            suffix = ""
            if fallbacks:
                devices = ", ".join(str(task.device_index) for task in fallbacks)
                suffix = f" (replicas on {devices})"
            lines.append(
                f"  shard {primary.position}: rows "
                f"{primary.row_start}:{primary.row_end} "
                f"-> device {primary.device_index}{suffix}"
            )
        if self.prepared_input_bits:
            lines.append(
                f"  precompiled input_bits: {sorted(self.prepared_input_bits)}"
            )
        return "\n".join(lines)
