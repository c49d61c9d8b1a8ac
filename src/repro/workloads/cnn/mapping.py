"""Mapping CNNs (ResNet-20) onto DARTH-PUM (Section 5.1).

``CNN_setModel()`` distributes the network's layers across hybrid compute
tiles: convolution and fully connected weight matrices (in their Toeplitz
form) go into analog arrays, while batch norm, activations, pooling, and
residual adds stay in the digital pipelines.  This module provides:

* the per-layer HCT allocation plan,
* a functional path that runs one (quantised) convolution through a real
  hybrid compute tile and checks it against the float reference,
* the workload profile used by the performance models (Figures 13-18), and
* a noise-injected inference engine for the Section 7.5 accuracy study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.config import HctConfig
from ...core.hct import HybridComputeTile
from ...errors import MappingError
from ..profile import MvmOp, WorkloadProfile
from .layers import Conv2d
from .quantize import offset_shifted_mvm, quantize
from .resnet import ResNet20
from .tensors import im2col

__all__ = [
    "LayerPlacement",
    "CnnMapping",
    "resnet20_profile",
    "run_conv_on_tile",
    "NoisyInferenceEngine",
]


@dataclass(frozen=True)
class LayerPlacement:
    """Where one MVM-capable layer lives and how big its matrix is."""

    label: str
    rows: int
    cols: int
    mvms_per_inference: int
    hcts_needed: int
    weight_bytes: int


class CnnMapping:
    """Per-layer distribution of a CNN over hybrid compute tiles."""

    def __init__(self, model: ResNet20, hct_config: Optional[HctConfig] = None,
                 weight_bits: int = 8, bits_per_cell: int = 1) -> None:
        self.model = model
        self.hct_config = hct_config if hct_config is not None else HctConfig.paper_default()
        self.weight_bits = weight_bits
        self.bits_per_cell = bits_per_cell
        self.placements: List[LayerPlacement] = self._place_layers()

    def _place_layers(self) -> List[LayerPlacement]:
        ace = self.hct_config.ace
        slices = -(-self.weight_bits // self.bits_per_cell)
        placements = []
        for label, layer, input_shape in self.model.named_mvm_layers():
            rows, cols = layer.mvm_shape(input_shape)
            row_tiles = -(-rows // ace.array_rows)
            col_tiles = -(-cols // ace.array_cols)
            arrays = row_tiles * col_tiles * slices
            hcts = -(-arrays // ace.num_arrays)
            count = layer.mvm_count(input_shape) if hasattr(layer, "mvm_count") else 1
            placements.append(
                LayerPlacement(
                    label=label,
                    rows=rows,
                    cols=cols,
                    mvms_per_inference=int(count),
                    hcts_needed=int(hcts),
                    weight_bytes=int(rows * cols * self.weight_bits / 8),
                )
            )
        return placements

    @property
    def total_hcts(self) -> int:
        """HCTs needed to hold every layer simultaneously (per-layer mapping)."""
        return sum(p.hcts_needed for p in self.placements)

    @property
    def total_weight_bytes(self) -> int:
        """Total weight footprint of the mapped network."""
        return sum(p.weight_bytes for p in self.placements)

    def placement_for(self, label: str) -> LayerPlacement:
        """The placement record of a named layer."""
        for placement in self.placements:
            if placement.label == label:
                return placement
        raise MappingError(f"no layer named {label!r} in the mapping")


def run_conv_on_tile(
    tile: HybridComputeTile,
    conv: Conv2d,
    image: np.ndarray,
    positions: int = 4,
    weight_bits: int = 6,
    activation_bits: int = 6,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a few output positions of a convolution through a real HCT.

    The convolution weights are quantised and programmed into the ACE in
    Toeplitz form; ``positions`` input patches are then pushed through the
    hybrid MVM path (analog partial products + digital reduction).  Returns
    ``(device_result, reference_result)`` as dequantised floats so callers
    can compare them within quantisation tolerance.
    """
    image = np.asarray(image)
    if image.ndim != 4:
        raise MappingError("run_conv_on_tile expects an NCHW image batch")
    patches, _, _ = im2col(image, conv.kernel, conv.stride, conv.padding)
    weight_matrix = conv.weight.reshape(conv.out_channels, -1).T  # (rows, cols)

    q_weight = quantize(weight_matrix, bits=weight_bits)
    q_patches = quantize(patches[:positions], bits=activation_bits)
    handle = tile.set_matrix(q_weight.values, value_bits=weight_bits,
                             bits_per_cell=1, output_pipeline=0)

    count = min(positions, q_patches.values.shape[0])
    corrected = offset_shifted_mvm(
        q_patches.values[:count], q_weight.values.sum(axis=0),
        lambda shifted: tile.execute_mvm_batch(
            handle, shifted, input_bits=activation_bits + 1
        ).values,
    )
    device = corrected.astype(float) * q_weight.scale * q_patches.scale
    reference = patches[:count] @ weight_matrix
    tile.release_matrix(handle)
    return device, reference


def resnet20_profile(model: Optional[ResNet20] = None, batch: int = 1) -> WorkloadProfile:
    """Workload profile of one ResNet-20 inference (CIFAR-10 shapes)."""
    model = model if model is not None else ResNet20()
    mvm_ops: List[MvmOp] = []
    kernel_mvms: Dict[str, Tuple[int, int, float]] = {}
    elementwise = 0.0
    weight_bytes = 0.0
    host_bytes = 0.0
    for label, layer, input_shape in model.named_mvm_layers():
        rows, cols = layer.mvm_shape(input_shape)
        count = layer.mvm_count(input_shape)
        mvm_ops.append(MvmOp(rows=rows, cols=cols, count=float(count), label=label))
        kernel_mvms[label] = (rows, cols, float(count))
        weight_bytes += rows * cols  # one byte per 8-bit weight
        # Batch norm + ReLU + (for half the layers) a residual add touch every
        # output element once each.
        output_elements = cols * count
        elementwise += 3.0 * output_elements
        # The analog+CPU baseline ships every layer's activations to the CPU
        # and back for the non-MVM work (bias/BN/ReLU/residual).
        host_bytes += 2.0 * output_elements
    # Global average pooling and the softmax-free argmax are small but real.
    elementwise += 64 * 8 * 8
    profile = WorkloadProfile(
        name="resnet20",
        item_name="inference",
        mvm_ops=mvm_ops,
        elementwise_ops=elementwise,
        elementwise_width=8,
        lookup_ops=0.0,
        nonlinear_ops=0.0,
        weight_bytes=weight_bytes,
        host_bytes_per_item=host_bytes,
        kernel_mvms=kernel_mvms,
    )
    return profile if batch == 1 else profile.scaled(batch)


@dataclass
class NoisyInferenceEngine:
    """ResNet-20 inference with analog-MVM noise injection (Section 7.5).

    Every convolution / fully connected product is computed through the
    quantise -> analog-error -> dequantise pipeline: weights and activations
    are quantised to ``bits``, the ideal integer MVM is perturbed by a
    Gaussian error whose standard deviation is ``noise_lsb`` ADC
    least-significant bits, and the result is dequantised.  ``noise_lsb=0``
    recovers plain quantised inference.
    """

    model: ResNet20
    bits: int = 8
    noise_lsb: float = 0.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def _noisy_matmul(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        q_x = quantize(x, bits=self.bits)
        q_w = quantize(w, bits=self.bits)
        ideal = q_x.values.astype(np.float64) @ q_w.values.astype(np.float64)
        if self.noise_lsb > 0:
            ideal = ideal + self._rng.normal(0.0, self.noise_lsb, size=ideal.shape)
        return ideal * q_x.scale * q_w.scale

    def _conv(self, x: np.ndarray, conv: Conv2d) -> np.ndarray:
        patches, out_h, out_w = im2col(x, conv.kernel, conv.stride, conv.padding)
        weight_matrix = conv.weight.reshape(conv.out_channels, -1).T
        result = self._noisy_matmul(patches, weight_matrix) + conv.bias
        n = x.shape[0]
        return result.reshape(n, out_h, out_w, conv.out_channels).transpose(0, 3, 1, 2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Noise-injected inference returning logits."""
        model = self.model
        out = np.maximum(model.bn1.forward(self._conv(x, model.conv1)), 0)
        for blocks in model.stages:
            for block in blocks:
                branch = np.maximum(block.bn1.forward(self._conv(out, block.conv1)), 0)
                branch = block.bn2.forward(self._conv(branch, block.conv2))
                shortcut = out if block.downsample is None else self._conv(out, block.downsample)
                out = np.maximum(branch + shortcut, 0)
        pooled = model.gap.forward(out)
        return self._noisy_matmul(pooled, model.fc.weight) + model.fc.bias

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on a labelled batch."""
        predictions = np.argmax(self.forward(images), axis=1)
        return float(np.mean(predictions == labels))
