"""ResNet-20 for CIFAR-10 shaped inputs (He et al.), evaluated in Section 7.

ResNet-20 is the standard CIFAR-10 residual network: an initial 3x3
convolution (16 channels), three stages of three basic blocks each
(16/32/64 channels, stride-2 downsampling between stages with a 1x1
projection shortcut), global average pooling, and a 10-way fully connected
classifier.  The per-layer names match the labels of Figure 15
(``c1-Conv1``, ``r1-b0-Conv1`` ... ``r3-b2-Conv2``, ``r2-ds``, ``r3-ds``,
``Seq-b4-Seq`` for the final classifier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .layers import BatchNorm2d, Conv2d, GlobalAvgPool, Linear

__all__ = ["BasicBlock", "ResNet20", "resnet20", "CIFAR10_INPUT_SHAPE"]

#: (channels, height, width) of a CIFAR-10 image.
CIFAR10_INPUT_SHAPE: Tuple[int, int, int] = (3, 32, 32)


@dataclass
class BasicBlock:
    """A two-convolution residual block with an optional projection shortcut."""

    conv1: Conv2d
    bn1: BatchNorm2d
    conv2: Conv2d
    bn2: BatchNorm2d
    downsample: Optional[Conv2d] = None
    name: str = "block"

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Block forward pass with the residual add and ReLUs."""
        out = np.maximum(self.bn1.forward(self.conv1.forward(x)), 0)
        out = self.bn2.forward(self.conv2.forward(out))
        shortcut = x if self.downsample is None else self.downsample.forward(x)
        return np.maximum(out + shortcut, 0)


class ResNet20:
    """The full ResNet-20 network."""

    def __init__(self, num_classes: int = 10, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.conv1 = Conv2d(3, 16, kernel=3, stride=1, padding=1, name="c1-Conv1", rng=rng)
        self.bn1 = BatchNorm2d(16)
        self.stages: List[List[BasicBlock]] = []
        channels = [16, 32, 64]
        in_channels = 16
        for stage_index, out_channels in enumerate(channels, start=1):
            blocks: List[BasicBlock] = []
            for block_index in range(3):
                stride = 2 if stage_index > 1 and block_index == 0 else 1
                name = f"r{stage_index}-b{block_index}"
                downsample = None
                if stride != 1 or in_channels != out_channels:
                    downsample = Conv2d(in_channels, out_channels, kernel=1, stride=stride,
                                        padding=0, name=f"r{stage_index}-ds", rng=rng)
                blocks.append(
                    BasicBlock(
                        conv1=Conv2d(in_channels, out_channels, 3, stride, 1,
                                     name=f"{name}-Conv1", rng=rng),
                        bn1=BatchNorm2d(out_channels),
                        conv2=Conv2d(out_channels, out_channels, 3, 1, 1,
                                     name=f"{name}-Conv2", rng=rng),
                        bn2=BatchNorm2d(out_channels),
                        downsample=downsample,
                        name=name,
                    )
                )
                in_channels = out_channels
            self.stages.append(blocks)
        self.gap = GlobalAvgPool()
        self.fc = Linear(64, num_classes, name="Seq-b4-Seq", rng=rng)

    # ------------------------------------------------------------------ #
    # Inference                                                            #
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full inference: (N, 3, 32, 32) -> (N, num_classes) logits."""
        out = np.maximum(self.bn1.forward(self.conv1.forward(x)), 0)
        for blocks in self.stages:
            for block in blocks:
                out = block.forward(out)
        pooled = self.gap.forward(out)
        return self.fc.forward(pooled)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions."""
        return np.argmax(self.forward(x), axis=1)

    # ------------------------------------------------------------------ #
    # Introspection used by the mapping and the figures                    #
    # ------------------------------------------------------------------ #
    def named_mvm_layers(self) -> List[Tuple[str, object, Tuple[int, int, int]]]:
        """Every MVM-capable layer with its name and input shape.

        Returns a list of ``(figure_label, layer, input_shape)`` covering the
        layers plotted in Figure 15, in network order.
        """
        entries: List[Tuple[str, object, Tuple[int, int, int]]] = []
        shape = CIFAR10_INPUT_SHAPE
        entries.append(("c1-Conv1", self.conv1, shape))
        shape = self.conv1.output_shape(shape)
        for stage_index, blocks in enumerate(self.stages, start=1):
            for block_index, block in enumerate(blocks):
                entries.append((f"r{stage_index}-b{block_index}-Conv1", block.conv1, shape))
                mid_shape = block.conv1.output_shape(shape)
                entries.append((f"r{stage_index}-b{block_index}-Conv2", block.conv2, mid_shape))
                if block.downsample is not None:
                    entries.append((f"r{stage_index}-ds", block.downsample, shape))
                shape = block.conv2.output_shape(mid_shape)
        entries.append(("Seq-b4-Seq", self.fc, (64,)))
        return entries

    def parameter_count(self) -> int:
        """Total trainable parameters (ResNet-20 has roughly 0.27M)."""
        total = self.conv1.parameter_count() + self.bn1.parameter_count()
        for blocks in self.stages:
            for block in blocks:
                total += block.conv1.parameter_count() + block.bn1.parameter_count()
                total += block.conv2.parameter_count() + block.bn2.parameter_count()
                if block.downsample is not None:
                    total += block.downsample.parameter_count()
        return total + self.fc.parameter_count()


def resnet20(num_classes: int = 10, seed: int = 0) -> ResNet20:
    """Factory mirroring the torchvision-style constructor name."""
    return ResNet20(num_classes=num_classes, seed=seed)
