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

Every MVM follows the plan/compile/execute split: the tile's
:class:`~repro.plan.planner.Planner` compiles the bit-sliced schedule into
one cached :class:`~repro.plan.ir.MvmPlan` per ``(allocation,
input_bits)``, and ``execute_mvm_batch`` hands that plan to whichever
:class:`~repro.plan.backends.ExecutionBackend` the caller selects
(``backend="vectorized"`` by default, ``"reference"`` for the per-step
ground truth, ``"estimate"`` for ledgers without arithmetic).  The
backends are interpreters of one IR, so their bit-identity is structural
-- see ``tests/test_kernels.py``.

``execute_mvm`` is a batch of one on
:data:`~repro.plan.backends.GATE_LEVEL`: the crossbars really compute the
bit-sliced partial products (with whatever noise model is enabled) and the
DCE really reduces them with NOR-synthesised adds, so the returned vector
is the genuine hybrid result, with the cycle-accurate timelines of both
the unoptimised (Figure 10a) and optimised (Figure 10b) schedules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..analog.ace import AnalogComputeElement, MatrixHandle
from ..analog.bitslicing import single_vector
from ..analog.compensation import ParasiticCompensation
from ..digital.dce import DigitalComputeElement
from ..digital.logic import get_family
from ..errors import AllocationError, CapacityError
from ..metrics import CostLedger
from ..plan.backends import GATE_LEVEL, ExecutionBackend, resolve_backend
from ..plan.ir import HctBatchMvmResult, MvmPlan
from ..plan.planner import Planner
from ..reram import DeviceParameters, NoiseConfig, ParasiticModel
from .arbiter import AnalogDigitalArbiter, reserve
from .config import HctConfig
from .injection_unit import InstructionInjectionUnit
from .shift_unit import ShiftUnit
from .transpose_unit import TransposeUnit
from .vacore import VACore, VACoreManager

__all__ = ["HybridComputeTile", "HctBatchMvmResult"]


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
    ) -> HctBatchMvmResult:
        """Run one hybrid MVM: analog partial products + digital reduction.

        A batch of one on :data:`~repro.plan.backends.GATE_LEVEL`, whose
        reduction is executed NOR add by NOR add; ``values`` is its row.
        """
        if not (self.analog_enabled and self.ace.enabled):
            raise AllocationError("the ACE of this tile has been disabled")
        vector = single_vector(vector, handle.shape[0])
        result = self.execute_mvm_batch(handle, vector[None], input_bits, optimized,
                                        compensation, active_adc_bits, backend=GATE_LEVEL)
        result.values = result.values[0]
        return result

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
        :meth:`execute_mvm` calls (batches of one on the gate-level
        interpreter) bit for bit.
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

    def _commit_schedule(self, plan: MvmPlan, optimized_cycles: float, charged: float) -> None:
        """Arbiter reservation + clock advance + ledger charge of one MVM.

        The arbiter locks the output pipelines for the analog domain for
        the duration of the MVM, serialising younger digital work.  The
        reference and gate-level interpreters commit through here; a
        receipt replay (``repro.plan.backends._replay``) makes the same
        reservations and clock advance through the same
        :func:`~repro.core.arbiter.reserve` from its bound program, whose
        tally carries this ledger charge, and ``tests/test_kernels.py``
        holds the two equal.
        """
        reserve(((self.arbiter, plan.output_resources, optimized_cycles, charged),))
        self.ledger.charge("hct.mvm_batch", cycles=charged)

    # ------------------------------------------------------------------ #
    # Convenience passthroughs                                             #
    # ------------------------------------------------------------------ #
    def pipeline(self, index: int):
        """Access a digital pipeline of this tile's DCE."""
        return self.dce.pipeline(index)

    def expected_mvm(self, handle: MatrixHandle, vector: np.ndarray) -> np.ndarray:
        """Noise-free reference result (for verification)."""
        return self.ace.expected_mvm(handle, vector)
