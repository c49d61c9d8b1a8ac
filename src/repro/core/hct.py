"""The Hybrid Compute Tile (HCT): DARTH-PUM's core building block (Section 4).

An HCT couples an analog compute element (ACE, 64 crossbars) with a digital
compute element (DCE, 64 bit pipelines) through four auxiliary components:

* **shift units** align partial products while they cross the ACE-to-DCE
  network (Section 4.1),
* a **transpose unit** converts between the analog row format and the
  digital column format (Section 4.2),
* an **analog/digital arbiter** serialises the two instruction classes so an
  MVM's reduction appears atomic (Section 4.2), and
* an **instruction injection unit** expands the shift-and-add reduction
  locally instead of through the front end (Section 4.2).

``execute_mvm`` is fully functional: the crossbars really compute the
bit-sliced partial products (with whatever noise model is enabled) and the
DCE really reduces them with NOR-synthesised adds, so the returned vector is
the genuine hybrid result.  The same call also produces a cycle-accurate
timeline for both the unoptimised (Figure 10a) and optimised (Figure 10b)
schedules.

Batched MVMs follow the plan/compile/execute split: the tile's
:class:`~repro.plan.planner.Planner` compiles the bit-sliced schedule into
one cached :class:`~repro.plan.ir.MvmPlan` per ``(allocation,
input_bits)``, and ``execute_mvm_batch`` hands that plan to whichever
:class:`~repro.plan.backends.ExecutionBackend` the caller selects
(``backend="vectorized"`` by default, ``"reference"`` for the per-step
ground truth, ``"estimate"`` for ledgers without arithmetic).  The
backends are two interpreters of one IR, so their bit-identity is
structural -- see ``tests/test_kernels.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..analog.ace import AnalogComputeElement, MatrixHandle, MvmExecution
from ..analog.compensation import ParasiticCompensation
from ..digital.dce import DigitalComputeElement
from ..digital.logic import get_family
from ..digital.microops import WordOpCost
from ..errors import AllocationError, CapacityError
from ..metrics import CostLedger
from ..plan.backends import ExecutionBackend, resolve_backend
from ..plan.ir import HctBatchMvmResult, HctMvmResult, MvmPlan
from ..plan.planner import Planner
from ..reram import DeviceParameters, NoiseConfig, ParasiticModel
from .arbiter import AnalogDigitalArbiter, Domain
from .config import HctConfig
from .injection_unit import InstructionInjectionUnit
from .shift_unit import ShiftUnit
from .transpose_unit import TransposeUnit
from .vacore import VACore, VACoreManager

__all__ = ["HybridComputeTile", "HctBatchMvmResult", "HctMvmResult"]


class HybridComputeTile:
    """One DARTH-PUM hybrid compute tile."""

    def __init__(
        self,
        config: Optional[HctConfig] = None,
        device: Optional[DeviceParameters] = None,
        noise: Optional[NoiseConfig] = None,
        parasitics: Optional[ParasiticModel] = None,
        ledger: Optional[CostLedger] = None,
        tile_id: int = 0,
    ) -> None:
        self.config = config if config is not None else HctConfig.paper_default()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.tile_id = int(tile_id)
        family = get_family(self.config.logic_family)
        self.ace = AnalogComputeElement(
            config=self.config.ace,
            device=device,
            noise=noise,
            parasitics=parasitics,
            ledger=self.ledger,
            tile_id=self.tile_id,
        )
        self.dce = DigitalComputeElement(
            config=self.config.dce,
            family=family,
            ledger=self.ledger,
            auto_cycles=False,
        )
        self.shift_unit = ShiftUnit(self.config.transfer_bytes_per_cycle)
        self.transpose_unit = TransposeUnit(self.config.transfer_bytes_per_cycle)
        self.arbiter = AnalogDigitalArbiter()
        self.iiu = InstructionInjectionUnit()
        self.vacores = VACoreManager()
        self.planner = Planner(self)
        self._matrix_output_pipeline: Dict[int, int] = {}
        self._clock = 0.0
        self.analog_enabled = True
        self.digital_post_processing = True

    # ------------------------------------------------------------------ #
    # Allocation                                                           #
    # ------------------------------------------------------------------ #
    def alloc_vacore(self, element_size: int, bits_per_cell: int) -> VACore:
        """Allocate a vACore and configure the shift units and IIU for it."""
        core = self.vacores.allocate(element_size, bits_per_cell)
        self.shift_unit.configure(shift_per_input_bit=1)
        plan = core.shift_add_plan()
        staging = self._staging_vrs()
        self.iiu.configure(plan, accumulator_vr=0, staging_vrs=staging)
        return core

    def set_matrix(
        self,
        matrix: np.ndarray,
        value_bits: int = 8,
        bits_per_cell: int = 1,
        representation: str = "differential",
        vacore: Optional[VACore] = None,
        output_pipeline: int = 0,
    ) -> MatrixHandle:
        """Program a matrix into the ACE and reserve its output pipelines."""
        handle = self.ace.set_matrix(
            matrix,
            value_bits=value_bits,
            bits_per_cell=bits_per_cell,
            representation=representation,
        )
        if vacore is not None:
            vacore.bind(handle)
        # Reserve one digital pipeline per column tile for the MVM outputs,
        # marking their contents dead (pipeline-reserve instruction).
        for tile in range(handle.col_tiles):
            self.dce.reserve_pipeline(output_pipeline + tile)
        self._matrix_output_pipeline[handle.handle_id] = output_pipeline
        return handle

    def release_matrix(self, handle: MatrixHandle) -> None:
        """Free a matrix's analog arrays, plans, and reserved pipelines."""
        base = self._matrix_output_pipeline.pop(handle.handle_id, 0)
        for tile in range(handle.col_tiles):
            self.dce.release_pipeline(base + tile)
        self.ace.release(handle)

    def disable_analog_mode(self, handle: MatrixHandle, target_pipeline: int = 0) -> None:
        """disableAnalogMode(): copy the matrix into digital arrays and free the ACE.

        The matrix is transposed by the transpose unit (digital pipelines
        store one matrix column per vector register) and written one VR per
        column.
        """
        matrix = self.ace.stored_matrix(handle)
        transposed = self.transpose_unit.matrix_transpose(matrix)
        pipeline = self.dce.pipeline(target_pipeline)
        cols = transposed.values.shape[0]
        if cols > pipeline.num_vrs:
            raise CapacityError(
                f"matrix with {cols} columns does not fit the {pipeline.num_vrs} "
                "vector registers of one pipeline"
            )
        for col in range(cols):
            pipeline.write_vr(col, transposed.values[col])
        self.release_matrix(handle)
        self.analog_enabled = False
        self.ace.enabled = False
        self.ledger.charge("hct.mode_switch", cycles=transposed.cycles)

    def disable_digital_mode(self) -> None:
        """disableDigitalMode(): bypass DCE post-processing for raw MVM output."""
        self.digital_post_processing = False

    def enable_digital_mode(self) -> None:
        """Re-enable DCE post-processing."""
        self.digital_post_processing = True

    # ------------------------------------------------------------------ #
    # Hybrid MVM                                                           #
    # ------------------------------------------------------------------ #
    def execute_mvm(
        self,
        handle: MatrixHandle,
        vector: np.ndarray,
        input_bits: int = 8,
        optimized: bool = True,
        compensation: Optional[ParasiticCompensation] = None,
        active_adc_bits: Optional[int] = None,
    ) -> HctMvmResult:
        """Run a full hybrid MVM: analog partial products + digital reduction."""
        if not self.analog_enabled:
            raise AllocationError("the ACE of this tile has been disabled")
        plan = self.planner.plan_for(handle, input_bits)
        start_energy = self.ledger.energy_pj
        execution = self.ace.execute_mvm(
            handle, vector, input_bits=input_bits, active_adc_bits=active_adc_bits,
            steps=plan.steps,
        )

        if not self.digital_post_processing:
            # Expert mode: hand back the raw analog reduction without the DCE.
            values = execution.reduce()
            if compensation is not None:
                values = compensation.recover(values, vector)
            cycles = execution.analog_cycles
            return HctMvmResult(
                values=values,
                optimized_cycles=cycles,
                unoptimized_cycles=cycles,
                energy_pj=self.ledger.energy_pj - start_energy,
                breakdown={"analog": cycles},
                num_partial_products=len(execution.partials),
            )

        values, reduce_costs, slots_saved = self._reduce_in_dce(
            execution, plan.output_base
        )
        if compensation is not None:
            values = compensation.recover(values, vector)

        add_costs = [c for c in reduce_costs if c.name == "add"]
        n_adds = len(add_costs)
        add_uops = add_costs[0].uops_per_bit if add_costs else 12.0
        optimized_cycles, breakdown = plan.cost.timeline(1, n_adds, add_uops, True)
        unoptimized_cycles, _ = plan.cost.timeline(1, n_adds, add_uops, False)

        charged = optimized_cycles if optimized else unoptimized_cycles
        self._commit_schedule(plan, optimized_cycles, charged, label="hct.mvm")

        return HctMvmResult(
            values=values,
            optimized_cycles=optimized_cycles,
            unoptimized_cycles=unoptimized_cycles,
            energy_pj=self.ledger.energy_pj - start_energy,
            breakdown=breakdown,
            num_partial_products=len(execution.partials),
            iiu_slots_saved=slots_saved,
        )

    def execute_mvm_batch(
        self,
        handle: MatrixHandle,
        vectors: np.ndarray,
        input_bits: int = 8,
        optimized: bool = True,
        compensation: Optional[ParasiticCompensation] = None,
        active_adc_bits: Optional[int] = None,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> HctBatchMvmResult:
        """Run a whole batch of hybrid MVMs through the tile in one pass.

        ``vectors`` has shape ``(batch, rows)``.  The tile's planner
        compiles (or fetches from its cache) the
        :class:`~repro.plan.ir.MvmPlan` for ``(handle, input_bits)`` and
        hands it to the selected execution backend:

        * ``backend="vectorized"`` (the default) contracts the plan's
          schedule into stacked tensor ops over the shard kernel cache and
          reconstructs all cost accounting analytically;
        * ``backend="reference"`` walks the plan one crossbar call per step;
        * ``backend="estimate"`` charges the full analytic cost without
          computing values (``result.estimated`` is True).

        Interpreting one shared plan makes the first two bit-identical --
        results, ledger totals, and timelines -- which
        ``tests/test_kernels.py`` pins down.  In the noise-free
        configuration the returned rows also match ``batch`` sequential
        :meth:`execute_mvm` calls bit for bit.
        """
        if not self.analog_enabled:
            raise AllocationError("the ACE of this tile has been disabled")
        executor = resolve_backend(backend)
        plan = self.planner.plan_for(handle, input_bits)
        return executor.execute_batch(
            self,
            plan,
            vectors,
            optimized=optimized,
            compensation=compensation,
            active_adc_bits=active_adc_bits,
        )

    # ------------------------------------------------------------------ #
    # Internals                                                            #
    # ------------------------------------------------------------------ #
    def _staging_vrs(self) -> List[int]:
        """Vector registers used to stage incoming partial products."""
        pipeline_cols = self.config.dce.cols
        num_vrs = pipeline_cols - 8  # ScratchColumns.COUNT
        # Keep VR 0 for the accumulator and use the next few as staging slots.
        count = max(2, min(4, num_vrs - 1))
        return list(range(1, 1 + count))

    def _commit_schedule(
        self, plan: MvmPlan, optimized_cycles: float, charged: float,
        label: str = "hct.mvm_batch",
    ) -> None:
        """Arbiter reservation + clock advance + ledger charge of one MVM.

        The arbiter locks the output pipelines for the analog domain for
        the duration of the MVM, serialising younger digital work.  Every
        execution backend commits through here so the tile-side effects of
        an MVM cannot drift between interpreters.
        """
        for resource in plan.output_resources:
            self.arbiter.acquire(resource, Domain.ANALOG, self._clock, optimized_cycles)
        self._clock += charged
        self.ledger.charge(label, cycles=charged)

    def _reduce_in_dce(self, execution: MvmExecution, output_base: int):
        """Functionally reduce the partial-product stream in the DCE."""
        handle = execution.handle
        rows, cols = handle.shape
        staging = self._staging_vrs()
        accumulator = 0
        all_costs: List[WordOpCost] = []
        slots_saved = 0
        result = np.zeros(cols, dtype=np.int64)

        for col_tile in range(handle.col_tiles):
            pipeline_index = output_base + col_tile
            pipeline = self.dce.pipeline(pipeline_index)
            tile_partials = [p for p in execution.partials if p.col_tile == col_tile]
            if not tile_partials:
                continue
            shifted_values = []
            shifts = []
            for partial in tile_partials:
                transfer = self.shift_unit.apply(
                    np.rint(partial.values).astype(np.int64),
                    input_bit=partial.input_bit,
                    extra_shift=partial.weight_slice * handle.bits_per_cell,
                )
                self.transpose_unit.vector_to_register(transfer.values)
                shifted_values.append(transfer.values)
                shifts.append(transfer.shift)
            costs, saved = self.iiu.inject_reduction(
                pipeline, shifted_values, accumulator, staging, shifts
            )
            all_costs.extend(costs)
            slots_saved += saved
            tile_width = tile_partials[0].values.shape[0]
            col_offset = tile_partials[0].col_offset
            reduced = pipeline.read_vr(accumulator, signed=True)[:tile_width]
            result[col_offset: col_offset + tile_width] = reduced
        return result, all_costs, slots_saved

    # ------------------------------------------------------------------ #
    # Convenience passthroughs                                             #
    # ------------------------------------------------------------------ #
    def pipeline(self, index: int):
        """Access a digital pipeline of this tile's DCE."""
        return self.dce.pipeline(index)

    def expected_mvm(self, handle: MatrixHandle, vector: np.ndarray) -> np.ndarray:
        """Noise-free reference result (for verification)."""
        return self.ace.expected_mvm(handle, vector)

    @property
    def snapshot(self):
        """Snapshot of the tile's cost ledger."""
        return self.ledger.snapshot()
