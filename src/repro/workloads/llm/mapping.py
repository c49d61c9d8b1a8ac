"""Mapping the LLM encoder onto DARTH-PUM (Section 5.2).

Static weight matrices -- the Q/K/V/output projections and the two FFN
matrices -- are programmed into analog arrays and reused across tokens.
The attention score (``Q K^T``) and context (``scores V``) products involve
matrices produced at run time, and re-programming analog devices is slow and
energetic, so those products execute in the digital compute element, as do
softmax, GELU, and layer normalisation (via the I-BERT integer kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.config import HctConfig
from ...core.hct import HybridComputeTile
from ...errors import MappingError
from ..profile import MvmOp, WorkloadProfile
from .encoder import EncoderConfig

__all__ = ["LlmMapping", "encoder_profile", "run_projection_on_tile"]


@dataclass(frozen=True)
class _MatrixPlacementInfo:
    """Static matrix placed in the ACE."""

    label: str
    rows: int
    cols: int
    hcts_needed: int


class LlmMapping:
    """Per-matrix placement of an encoder stack over hybrid compute tiles."""

    def __init__(self, config: Optional[EncoderConfig] = None,
                 hct_config: Optional[HctConfig] = None,
                 weight_bits: int = 8, bits_per_cell: int = 2) -> None:
        self.config = config if config is not None else EncoderConfig.bert_base()
        self.hct_config = hct_config if hct_config is not None else HctConfig.paper_default()
        self.weight_bits = weight_bits
        self.bits_per_cell = bits_per_cell
        self.static_matrices: List[_MatrixPlacementInfo] = self._place()

    def _hcts_for(self, rows: int, cols: int) -> int:
        ace = self.hct_config.ace
        slices = -(-self.weight_bits // self.bits_per_cell)
        arrays = -(-rows // ace.array_rows) * -(-cols // ace.array_cols) * slices
        return -(-arrays // ace.num_arrays)

    def _place(self) -> List[_MatrixPlacementInfo]:
        h, f = self.config.hidden_size, self.config.ffn_size
        placements = []
        for layer in range(self.config.num_layers):
            for name, rows, cols in [
                ("w_q", h, h), ("w_k", h, h), ("w_v", h, h), ("w_o", h, h),
                ("ffn_w1", h, f), ("ffn_w2", f, h),
            ]:
                placements.append(
                    _MatrixPlacementInfo(
                        label=f"layer{layer}.{name}", rows=rows, cols=cols,
                        hcts_needed=self._hcts_for(rows, cols),
                    )
                )
        return placements

    @property
    def total_hcts(self) -> int:
        """HCTs needed to keep every static matrix resident."""
        return sum(p.hcts_needed for p in self.static_matrices)

    @property
    def weight_bytes(self) -> float:
        """Static weight footprint in bytes."""
        return sum(p.rows * p.cols for p in self.static_matrices) * self.weight_bits / 8


def encoder_profile(config: Optional[EncoderConfig] = None) -> WorkloadProfile:
    """Workload profile of one encoder forward pass (per sequence)."""
    config = config if config is not None else EncoderConfig.bert_base()
    h, f = config.hidden_size, config.ffn_size
    seq = config.sequence_length
    heads, head_dim = config.num_heads, config.head_dim
    layers = config.num_layers

    mvm_ops: List[MvmOp] = []
    kernel_mvms: Dict[str, Tuple[int, int, float]] = {}
    # Static projections and FFN run on the ACE: one MVM per token per matrix.
    for label, rows, cols in [("w_q", h, h), ("w_k", h, h), ("w_v", h, h), ("w_o", h, h),
                              ("ffn_w1", h, f), ("ffn_w2", f, h)]:
        op = MvmOp(rows=rows, cols=cols, count=float(seq * layers), label=label)
        mvm_ops.append(op)
        kernel_mvms[label] = (rows, cols, float(seq * layers))

    # Attention score and context products run in the DCE (dynamic matrices):
    # per layer, per head: (seq x head_dim) @ (head_dim x seq) and
    # (seq x seq) @ (seq x head_dim).  Count them as element-wise MAC work.
    attention_macs = layers * heads * (seq * seq * head_dim * 2)
    # Softmax over seq elements per row, layer norms and GELUs over hidden/FFN.
    nonlinear = layers * (heads * seq * seq          # softmax elements
                          + 2 * seq * h              # two layer norms
                          + seq * f)                 # GELU elements
    elementwise = layers * (2 * seq * h) + attention_macs
    weight_bytes = layers * (4 * h * h + 2 * h * f)
    # Baseline ships activations to the CPU for every non-MVM step.
    host_bytes = layers * seq * (4 * h + 2 * f + heads * seq)

    return WorkloadProfile(
        name="llm_encoder",
        item_name="sequence",
        mvm_ops=mvm_ops,
        elementwise_ops=float(elementwise),
        elementwise_width=8,
        lookup_ops=0.0,
        nonlinear_ops=float(nonlinear),
        weight_bytes=float(weight_bytes),
        host_bytes_per_item=float(host_bytes),
        kernel_mvms=kernel_mvms,
    )


def run_projection_on_tile(
    tile: HybridComputeTile,
    weight: np.ndarray,
    activations: np.ndarray,
    weight_bits: int = 6,
    activation_bits: int = 6,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a (token x hidden) projection through a real hybrid compute tile.

    Quantises the projection matrix, programs it into the ACE, pushes each
    token's activation vector through the hybrid MVM path, and returns the
    dequantised device result alongside the float reference.
    """
    from ..cnn.quantize import offset_shifted_mvm, quantize

    weight = np.asarray(weight, dtype=float)
    activations = np.asarray(activations, dtype=float)
    if activations.ndim != 2 or weight.ndim != 2:
        raise MappingError("run_projection_on_tile expects 2-D activations and weights")
    q_w = quantize(weight, bits=weight_bits)
    q_x = quantize(activations, bits=activation_bits)
    handle = tile.set_matrix(q_w.values, value_bits=weight_bits, bits_per_cell=1)
    # All tokens go through the tile as one batched MVM: the whole batch
    # takes the ACE/DCE in one arbiter pass.
    corrected = offset_shifted_mvm(
        q_x.values, q_w.values.sum(axis=0),
        lambda shifted: tile.execute_mvm_batch(
            handle, shifted, input_bits=activation_bits + 1
        ).values,
    )
    tile.release_matrix(handle)
    device = corrected.astype(float) * q_w.scale * q_x.scale
    return device, activations @ weight
