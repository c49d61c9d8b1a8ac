"""Execution backends: interpreters of the :class:`~repro.plan.ir.MvmPlan`.

PR 3's engines were selected by strings threaded through every layer and
hand-synchronised by tests.  Here each engine is an
:class:`ExecutionBackend` registered in the :class:`BackendRegistry`, and
both consume the *same compiled plan object*:

* :class:`ReferenceExecutor` walks ``plan.steps`` one crossbar call at a
  time -- the hardware-faithful schedule and the ground truth.
* :class:`VectorizedExecutor` contracts the same steps as stacked tensor
  ops over ``plan.kernel`` and re-issues the reference charge stream
  analytically.  Bit-identity (results, ledger totals *and* breakdowns,
  timelines, IIU statistics) is a hard invariant pinned by
  ``tests/test_kernels.py``.
* :class:`CostModelExecutor` ("estimate") charges the full analytic cost
  of a batch -- identical ledger totals and timelines -- without computing
  any values: capacity planning at zero arithmetic cost, and proof that
  new backends drop in without touching the tile.

Backends are resolved by name (or passed as instances) anywhere a
``backend=`` knob exists; ``None`` defers to :func:`default_backend`,
which honours the ``REPRO_BACKEND`` environment variable (the CI
equivalence matrix runs the suite once per backend through it).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..analog.ace import BatchMvmExecution, BatchPartialProduct
from ..analog.bitslicing import slice_inputs
from ..analog.kernels import (
    ace_forward_vectorized,
    analog_step_costs,
    issue_mvm_charges,
    validate_input_range,
)
from ..errors import AllocationError, ConfigurationError, ExecutionError, QuantizationError
from .ir import HctBatchMvmResult, MvmPlan

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendRegistry",
    "CostModelExecutor",
    "ExecutionBackend",
    "ReferenceExecutor",
    "VectorizedExecutor",
    "default_backend",
    "resolve_backend",
]

#: Backend used when callers pass ``backend=None`` and the environment
#: does not override it.
DEFAULT_BACKEND = "vectorized"

#: Environment variable overriding the default backend (used by the CI
#: equivalence matrix to run the whole suite under each executor).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class ExecutionBackend:
    """One interpreter of the :class:`~repro.plan.ir.MvmPlan` IR.

    Subclasses implement :meth:`execute_batch`; they receive the owning
    tile (for its ACE, DCE, shift/transpose units, IIU, arbiter, and
    ledger) and the compiled plan, and must honour the bit-identity
    contract: results, ledger totals and breakdowns, timelines, and IIU
    statistics all match the reference interpretation of the same plan.
    """

    #: Registry name of the backend.
    name = "base"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        """Execute one batched MVM described by ``plan`` on ``tile``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _admit_batch(tile, plan: MvmPlan, vectors: np.ndarray) -> np.ndarray:
    """Shared entry validation of every backend (same errors, same order)."""
    if not tile.analog_enabled:
        raise AllocationError("the ACE of this tile has been disabled")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.int64))
    if vectors.shape[0] == 0:
        raise ExecutionError("execute_mvm_batch needs at least one input vector")
    rows, _ = plan.handle.shape
    if vectors.shape[1] != rows:
        raise QuantizationError(
            f"input batch of shape {vectors.shape} does not match matrix rows ({rows})"
        )
    return vectors


class ReferenceExecutor(ExecutionBackend):
    """The loop-faithful interpreter: one crossbar call per plan step."""

    name = "reference"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        vectors = _admit_batch(tile, plan, vectors)
        batch = vectors.shape[0]
        start_energy = tile.ledger.energy_pj
        execution = self._analog_forward(tile, plan, vectors, active_adc_bits)

        if not tile.digital_post_processing:
            values = execution.reduce()
            if compensation is not None:
                values = compensation.recover_batch(values, vectors)
            cycles = execution.analog_cycles
            return HctBatchMvmResult(
                values=values,
                batch=batch,
                optimized_cycles=cycles,
                unoptimized_cycles=cycles,
                energy_pj=tile.ledger.energy_pj - start_energy,
                breakdown={"analog": cycles},
                num_partial_products=len(execution.partials),
            )

        values, (n_adds, add_uops), slots_saved = self._reduce_in_dce(
            tile, plan, execution
        )
        if compensation is not None:
            values = compensation.recover_batch(values, vectors)

        optimized_cycles, breakdown = plan.cost.timeline(batch, n_adds, add_uops, True)
        unoptimized_cycles, _ = plan.cost.timeline(batch, n_adds, add_uops, False)
        charged = optimized_cycles if optimized else unoptimized_cycles
        tile._commit_schedule(plan, optimized_cycles, charged)

        return HctBatchMvmResult(
            values=values,
            batch=batch,
            optimized_cycles=optimized_cycles,
            unoptimized_cycles=unoptimized_cycles,
            energy_pj=tile.ledger.energy_pj - start_energy,
            breakdown=breakdown,
            num_partial_products=len(execution.partials),
            iiu_slots_saved=slots_saved,
        )

    @staticmethod
    def _analog_forward(
        tile, plan: MvmPlan, vectors: np.ndarray, active_adc_bits: Optional[int]
    ) -> BatchMvmExecution:
        """Walk ``plan.steps`` in issue order, one crossbar call per step."""
        ace = tile.ace
        if not ace.enabled:
            raise AllocationError("the ACE of this tile has been disabled")
        bit_matrices = slice_inputs(vectors, plan.input_bits)
        execution = BatchMvmExecution(
            handle=plan.handle, batch=vectors.shape[0], plan=plan.shift_add
        )
        start = ace.ledger.snapshot()
        for step in plan.steps:
            tile_bits = bit_matrices[step.input_bit][:, step.row_start: step.row_end]
            output = ace.crossbar(step.array_id).mvm_batch(
                tile_bits, active_adc_bits=active_adc_bits
            )
            execution.partials.append(
                BatchPartialProduct(
                    values=output.values,
                    shift=step.shift,
                    input_bit=step.input_bit,
                    weight_slice=step.weight_slice,
                    row_tile=step.row_tile,
                    col_tile=step.col_tile,
                    col_offset=step.col_offset,
                )
            )
        end = ace.ledger.snapshot()
        execution.analog_cycles = end.cycles - start.cycles
        execution.analog_energy_pj = end.energy_pj - start.energy_pj
        return execution

    @staticmethod
    def _reduce_in_dce(tile, plan: MvmPlan, execution: BatchMvmExecution):
        """Gate-accounted batch reduction of the partial-product stream.

        One NumPy shift-and-add per column tile; the shift units still align
        every partial product in flight and the IIU reconstructs the
        equivalent µop stream for cost accounting
        (:meth:`~repro.core.injection_unit.InstructionInjectionUnit.inject_reduction_batch`).
        """
        handle = plan.handle
        staging = list(plan.staging_vrs)
        n_adds = 0
        add_uops = 12.0
        slots_saved = 0
        result = np.zeros((execution.batch, handle.shape[1]), dtype=np.int64)

        for red in plan.reduction:
            pipeline = tile.dce.pipeline(plan.output_base + red.col_tile)
            tile_partials = [p for p in execution.partials if p.col_tile == red.col_tile]
            if not tile_partials:
                continue
            shifted_values = []
            shifts = []
            for partial in tile_partials:
                transfer = tile.shift_unit.apply(
                    np.rint(partial.values).astype(np.int64),
                    input_bit=partial.input_bit,
                    extra_shift=partial.weight_slice * handle.bits_per_cell,
                )
                tile.transpose_unit.batch_to_registers(transfer.values)
                shifted_values.append(transfer.values)
                shifts.append(transfer.shift)
            reduced, adds, add_uops, saved = tile.iiu.inject_reduction_batch(
                pipeline, shifted_values, plan.accumulator_vr, staging, shifts
            )
            n_adds += adds
            slots_saved += saved
            result[:, red.col_offset: red.col_offset + red.width] = reduced[:, : red.width]
        return result, (n_adds, add_uops), slots_saved


class VectorizedExecutor(ExecutionBackend):
    """The stacked-tensor interpreter: one contraction per shard."""

    name = "vectorized"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        vectors = _admit_batch(tile, plan, vectors)
        batch = vectors.shape[0]
        start_energy = tile.ledger.energy_pj
        forward = ace_forward_vectorized(
            tile.ace, plan, vectors, active_adc_bits=active_adc_bits
        )

        if not tile.digital_post_processing:
            values = forward.raw_reduce()
            if compensation is not None:
                values = compensation.recover_batch(values, vectors)
            cycles = forward.analog_cycles
            return HctBatchMvmResult(
                values=values,
                batch=batch,
                optimized_cycles=cycles,
                unoptimized_cycles=cycles,
                energy_pj=tile.ledger.energy_pj - start_energy,
                breakdown={"analog": cycles},
                num_partial_products=forward.num_partials,
            )

        values, (n_adds, add_uops), slots_saved = self._reduce_analytic(
            tile, plan, forward
        )
        if compensation is not None:
            values = compensation.recover_batch(values, vectors)

        optimized_cycles, breakdown = plan.cost.timeline(batch, n_adds, add_uops, True)
        unoptimized_cycles, _ = plan.cost.timeline(batch, n_adds, add_uops, False)
        charged = optimized_cycles if optimized else unoptimized_cycles
        tile._commit_schedule(plan, optimized_cycles, charged)

        return HctBatchMvmResult(
            values=values,
            batch=batch,
            optimized_cycles=optimized_cycles,
            unoptimized_cycles=unoptimized_cycles,
            energy_pj=tile.ledger.energy_pj - start_energy,
            breakdown=breakdown,
            num_partial_products=forward.num_partials,
            iiu_slots_saved=slots_saved,
        )

    @staticmethod
    def _reduce_analytic(tile, plan: MvmPlan, forward):
        """DCE reduction with analytic µop reconstruction.

        Computes the shift-and-add sum of every column tile as one integer
        tensor reduction, then re-issues the exact accounting the reference
        interpreter's ``inject_reduction_batch`` performs: the same
        ``dce.write`` / ``dce.boolean`` ledger charges, IIU statistics, and
        accumulator-register state.  Returns ``(values,
        (n_adds, add_uops_per_bit), slots_saved)``.
        """
        handle = plan.handle
        batch = forward.batch
        result = np.zeros((batch, handle.shape[1]), dtype=np.int64)
        slots_saved = 0
        n_adds = 0
        add_uops = 12.0

        for red in plan.reduction:
            pipeline = tile.dce.pipeline(plan.output_base + red.col_tile)
            tiles = [t for t in forward.tiles if t.kernel.col_tile == red.col_tile]
            if not tiles:
                continue
            reduced = forward.tile_totals(tiles[0]).copy()
            for shard in tiles[1:]:
                reduced += forward.tile_totals(shard)
            reduced = tile.iiu.wrap_accumulator(reduced, pipeline.depth)

            width = reduced.shape[1]
            adds, add_uops, saved = tile.iiu.account_reduction_batch(
                pipeline, red.partials_per_vector, batch, width
            )
            pipeline.set_vr_bits(plan.accumulator_vr, reduced[-1])
            slots_saved += saved
            tile.transpose_unit.vector_count += adds
            n_adds += adds

            result[:, red.col_offset: red.col_offset + width] = reduced[:, :width]
        return result, (n_adds, add_uops), slots_saved


class CostModelExecutor(ExecutionBackend):
    """Cost-only interpreter: real ledgers and timelines, no arithmetic.

    Re-issues the exact analytic charge stream of the real engines -- the
    per-step ``ace.mvm`` charges, the IIU's batched write+ADD accounting,
    and the ``hct.mvm_batch`` timeline charge -- so ``CostLedger`` totals,
    breakdowns, and the returned timelines are bit-identical to an actual
    execution, while ``values`` is an all-zero placeholder flagged with
    ``estimated=True``.  Useful for capacity planning and admission-control
    what-ifs where only the ledger matters.  ``compensation`` is ignored
    (there are no values to recover) and no noise RNG is consumed.
    """

    name = "estimate"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        vectors = _admit_batch(tile, plan, vectors)
        validate_input_range(vectors, plan.input_bits)
        batch = vectors.shape[0]
        handle = plan.handle
        start_energy = tile.ledger.energy_pj

        ace = tile.ace
        if not ace.enabled:
            raise AllocationError("the ACE of this tile has been disabled")
        start = ace.ledger.snapshot()
        step_costs = analog_step_costs(plan.kernel, batch, plan.input_bits, active_adc_bits)
        issue_mvm_charges(ace.ledger, plan.input_bits, plan.kernel.num_slices, step_costs)
        end = ace.ledger.snapshot()
        analog_cycles = end.cycles - start.cycles

        values = np.zeros((batch, handle.shape[1]), dtype=np.int64)
        if not tile.digital_post_processing:
            return HctBatchMvmResult(
                values=values,
                batch=batch,
                optimized_cycles=analog_cycles,
                unoptimized_cycles=analog_cycles,
                energy_pj=tile.ledger.energy_pj - start_energy,
                breakdown={"analog": analog_cycles},
                num_partial_products=plan.num_partial_products,
                estimated=True,
            )

        slots_saved = 0
        n_adds = 0
        add_uops = 12.0
        for red in plan.reduction:
            pipeline = tile.dce.pipeline(plan.output_base + red.col_tile)
            adds, add_uops, saved = tile.iiu.account_reduction_batch(
                pipeline, red.partials_per_vector, batch, red.width
            )
            slots_saved += saved
            tile.transpose_unit.vector_count += adds
            n_adds += adds

        optimized_cycles, breakdown = plan.cost.timeline(batch, n_adds, add_uops, True)
        unoptimized_cycles, _ = plan.cost.timeline(batch, n_adds, add_uops, False)
        charged = optimized_cycles if optimized else unoptimized_cycles
        tile._commit_schedule(plan, optimized_cycles, charged)

        return HctBatchMvmResult(
            values=values,
            batch=batch,
            optimized_cycles=optimized_cycles,
            unoptimized_cycles=unoptimized_cycles,
            energy_pj=tile.ledger.energy_pj - start_energy,
            breakdown=breakdown,
            num_partial_products=plan.num_partial_products,
            iiu_slots_saved=slots_saved,
            estimated=True,
        )


class BackendRegistry:
    """Name -> :class:`ExecutionBackend` registry.

    New backends register here and immediately work at every layer
    (tile, device, pool, server) -- nothing above the registry knows the
    set of engines.
    """

    def __init__(self) -> None:
        self._backends: Dict[str, ExecutionBackend] = {}

    def register(
        self, backend: ExecutionBackend, replace: bool = False
    ) -> ExecutionBackend:
        """Register ``backend`` under its ``name``; returns it for chaining."""
        name = backend.name
        if not name or name == "base":
            raise ConfigurationError(
                "execution backends must define a non-default `name`"
            )
        if name in self._backends and not replace:
            raise ConfigurationError(
                f"backend {name!r} is already registered (pass replace=True "
                "to override)"
            )
        self._backends[name] = backend
        return backend

    def get(self, name: str) -> ExecutionBackend:
        """The backend registered under ``name``."""
        backend = self._backends.get(name)
        if backend is None:
            raise ConfigurationError(
                f"unknown execution backend {name!r}; expected one of "
                f"{self.names()} or an ExecutionBackend instance"
            )
        return backend

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, sorted."""
        return tuple(sorted(self._backends))

    def __contains__(self, name: str) -> bool:
        return name in self._backends


#: The process-wide registry every ``backend=`` knob resolves through.
BACKENDS = BackendRegistry()
BACKENDS.register(ReferenceExecutor())
BACKENDS.register(VectorizedExecutor())
BACKENDS.register(CostModelExecutor())


def default_backend() -> str:
    """The backend name used when callers pass ``backend=None``.

    Reads :data:`BACKEND_ENV_VAR` at call time, so one environment variable
    flips the whole stack (the CI equivalence matrix relies on this).
    """
    return os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)


def resolve_backend(
    backend: Union[None, str, ExecutionBackend],
) -> ExecutionBackend:
    """Map ``None``/name/instance to an :class:`ExecutionBackend`."""
    if backend is None:
        backend = default_backend()
    if isinstance(backend, ExecutionBackend):
        return backend
    return BACKENDS.get(backend)
