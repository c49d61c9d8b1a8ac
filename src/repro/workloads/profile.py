"""Workload profiles consumed by the architecture performance models.

A :class:`WorkloadProfile` summarises one "item" of work (one AES block, one
CNN inference, one encoder forward pass) as counts of the operation classes
the evaluated architectures treat differently:

* MVM operations (rows x cols x count) -- analog-PUM territory,
* element-wise vector operations (XOR, add, ReLU, batch-norm scale/shift),
* table lookups (AES SubBytes),
* "non-linear" operations (softmax, layer norm, GELU) that need either CPU
  support, special function units, or long digital-PUM sequences, and
* host data movement (what the analog+CPU baseline must ship between the
  accelerator and the CPU for every non-MVM step).

The profiles are *derived from the workload implementations themselves*
(layer shapes, round structure) rather than hard-coded, so changing a model
definition automatically changes every figure that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["MvmOp", "WorkloadProfile"]


@dataclass(frozen=True)
class MvmOp:
    """A group of identical matrix-vector multiplies within one work item."""

    rows: int
    cols: int
    count: float = 1.0
    #: Human-readable label (layer name / kernel name).
    label: str = ""

    @property
    def macs(self) -> float:
        """Multiply-accumulate operations represented by this group."""
        return float(self.rows) * float(self.cols) * self.count


@dataclass
class WorkloadProfile:
    """Operation counts for one item of a workload."""

    name: str
    item_name: str
    mvm_ops: List[MvmOp] = field(default_factory=list)
    #: Element-wise vector operations per item (count of element updates).
    elementwise_ops: float = 0.0
    #: Bit width of the element-wise operations.
    elementwise_width: int = 8
    #: Element-wise table lookups per item.
    lookup_ops: float = 0.0
    #: Complex non-linear operations per item (softmax/layernorm/GELU element
    #: evaluations); these are the operations AppAccel builds SFUs for.
    nonlinear_ops: float = 0.0
    #: Total weight footprint in bytes (decides how many tiles a copy needs).
    weight_bytes: float = 0.0
    #: Bytes exchanged with the host per item when non-MVM work runs on a CPU.
    host_bytes_per_item: float = 0.0
    #: Largest number of independent items that can usefully run in parallel.
    batch_parallelism: float = float("inf")
    #: Free-form per-kernel MVM labels -> (rows, cols, count), for breakdowns.
    kernel_mvms: Dict[str, Tuple[int, int, float]] = field(default_factory=dict)

    @property
    def total_macs(self) -> float:
        """Total multiply-accumulates per item."""
        return sum(op.macs for op in self.mvm_ops)

    @property
    def total_mvm_invocations(self) -> float:
        """Total number of MVM invocations per item."""
        return sum(op.count for op in self.mvm_ops)

    def scaled(self, factor: float) -> "WorkloadProfile":
        """A profile for ``factor`` items fused into one (e.g. batching)."""
        return WorkloadProfile(
            name=self.name,
            item_name=f"{factor}x {self.item_name}",
            mvm_ops=[MvmOp(op.rows, op.cols, op.count * factor, op.label) for op in self.mvm_ops],
            elementwise_ops=self.elementwise_ops * factor,
            elementwise_width=self.elementwise_width,
            lookup_ops=self.lookup_ops * factor,
            nonlinear_ops=self.nonlinear_ops * factor,
            weight_bytes=self.weight_bytes,
            host_bytes_per_item=self.host_bytes_per_item * factor,
            batch_parallelism=self.batch_parallelism,
            kernel_mvms=dict(self.kernel_mvms),
        )
