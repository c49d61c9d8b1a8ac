"""Application-specific runtime calls (Table 1, Section 4.4).

These wrap the workload mappings behind the high-level calls the paper
exposes to programmers with no knowledge of the underlying hardware:

* ``AesSession``   -- ``AES_initArrays()`` / ``AES_encrypt()`` / ``AES_decrypt()``
* ``CnnSession``   -- ``CNN_setModel()`` / ``CNN_runInference()`` /
  ``CNN_changeActivation()``
* ``LlmSession``   -- ``LLM_buildEncoder()`` / ``LLM_runInference()`` /
  ``LLM_changeActivation()``

AES runs fully functionally on a hybrid compute tile (bit-exact against the
FIPS-197 reference).  The CNN and LLM sessions run inference functionally in
the numpy frameworks (optionally with analog-noise injection) while exposing
the HCT allocation the mapping implies -- the same split the paper uses,
where full-network inference is evaluated through the performance model
rather than the bit-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..core.config import HctConfig
from ..core.hct import HybridComputeTile
from ..errors import AdmissionError, MappingError
from ..workloads.aes.mapping import (
    DarthPumAes,
    bits_to_columns,
    columns_to_bits,
    mixcolumns_bit_matrix,
)
from ..workloads.aes.reference import decrypt_block
from ..workloads.cnn.layers import Conv2d
from ..workloads.cnn.mapping import CnnMapping, NoisyInferenceEngine
from ..workloads.cnn.quantize import offset_shifted_mvm, quantize
from ..workloads.cnn.resnet import ResNet20
from ..workloads.cnn.tensors import im2col
from ..workloads.llm.encoder import EncoderConfig, TransformerEncoder
from ..workloads.llm.mapping import LlmMapping
from .scheduling import SloClass
from .server import PumServer

__all__ = [
    "AesSession",
    "CnnSession",
    "LlmSession",
    "serve_aes_mixcolumns",
    "serve_cnn_conv",
    "serve_llm_projection",
]


@dataclass
class AesSession:
    """``AES_initArrays`` / ``AES_encrypt`` / ``AES_decrypt`` (Table 1)."""

    tile: Optional[HybridComputeTile] = None
    key: Optional[bytes] = None
    _engine: DarthPumAes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        tile = self.tile if self.tile is not None else HybridComputeTile(HctConfig.small())
        self.tile = tile
        # AES_initArrays(): reserve HCT resources, pre-load the S-box, store
        # the MixColumns matrix in the analog arrays.
        self._engine = DarthPumAes(tile, list(self.key) if self.key is not None else None)

    def encrypt(self, plaintext: bytes, key: Optional[bytes] = None) -> bytes:
        """AES_encrypt(): encrypt one 16-byte block on the hybrid tile."""
        if key is not None:
            self.key = key
        if self.key is None:
            raise MappingError("AES_encrypt needs a key (pass one or set it at init)")
        return self._engine.encrypt_bytes(plaintext, self.key)

    def decrypt(self, ciphertext: bytes, key: Optional[bytes] = None) -> bytes:
        """AES_decrypt(): decrypt a block (host-side reference decryption)."""
        if key is not None:
            self.key = key
        if self.key is None:
            raise MappingError("AES_decrypt needs a key (pass one or set it at init)")
        return bytes(decrypt_block(list(ciphertext), list(self.key)))

    @property
    def kernel_cycles(self):
        """Per-kernel cycle breakdown accumulated so far (Figure 14 style)."""
        return self._engine.kernel_cycles


@dataclass
class CnnSession:
    """``CNN_setModel`` / ``CNN_runInference`` / ``CNN_changeActivation``."""

    model: Optional[ResNet20] = None
    hct_config: Optional[HctConfig] = None
    accuracy_target: int = 0
    noise_lsb: float = 0.0
    _mapping: CnnMapping = field(init=False, repr=False)
    _activation: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # CNN_setModel(): allocate and store the model layers to HCTs, one
        # layer distribution per the mapping; the accuracy target (0-2) maps
        # to bits per cell exactly like the precision scale of setMatrix().
        self.model = self.model if self.model is not None else ResNet20()
        bits_per_cell = {0: 1, 1: 4, 2: 8}[self.accuracy_target]
        self._mapping = CnnMapping(
            self.model,
            self.hct_config if self.hct_config is not None else HctConfig.paper_default(),
            bits_per_cell=bits_per_cell,
        )
        self._activation = lambda x: np.maximum(x, 0)

    @property
    def hcts_allocated(self) -> int:
        """HCTs reserved by CNN_setModel()."""
        return self._mapping.total_hcts

    @property
    def mapping(self) -> CnnMapping:
        """The per-layer placement produced by CNN_setModel()."""
        return self._mapping

    def change_activation(self, activation: Callable[[np.ndarray], np.ndarray]) -> None:
        """CNN_changeActivation(): swap the activation used between layers."""
        self._activation = activation

    def run_inference(self, images: np.ndarray) -> np.ndarray:
        """CNN_runInference(): return logits for a batch of NCHW images.

        With ``noise_lsb > 0`` every MVM goes through the analog-noise model
        (the Section 7.5 study); otherwise plain quantised inference runs.
        """
        engine = NoisyInferenceEngine(self.model, noise_lsb=self.noise_lsb)
        return engine.forward(np.asarray(images))

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Class predictions for a batch."""
        return np.argmax(self.run_inference(images), axis=1)


@dataclass
class LlmSession:
    """``LLM_buildEncoder`` / ``LLM_runInference`` / ``LLM_changeActivation``."""

    config: Optional[EncoderConfig] = None
    hct_config: Optional[HctConfig] = None
    seed: int = 0
    _encoder: TransformerEncoder = field(init=False, repr=False)
    _mapping: LlmMapping = field(init=False, repr=False)
    _integer_kernels: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        # LLM_buildEncoder(): allocate and store the encoder's static
        # matrices (projections + FFN) on HCTs.
        self.config = self.config if self.config is not None else EncoderConfig.tiny()
        self._encoder = TransformerEncoder(self.config, seed=self.seed)
        self._mapping = LlmMapping(
            self.config,
            self.hct_config if self.hct_config is not None else HctConfig.paper_default(),
        )

    @property
    def hcts_allocated(self) -> int:
        """HCTs reserved by LLM_buildEncoder()."""
        return self._mapping.total_hcts

    def change_activation(self, use_integer_kernels: bool) -> None:
        """LLM_changeActivation(): toggle the I-BERT integer kernels."""
        self._integer_kernels = bool(use_integer_kernels)

    def run_inference(self, tokens: np.ndarray) -> np.ndarray:
        """LLM_runInference(): run the encoder over a (seq, hidden) input."""
        tokens = np.asarray(tokens)
        expected = (self.config.sequence_length, self.config.hidden_size)
        if tokens.shape != expected:
            raise MappingError(f"expected input of shape {expected}, got {tokens.shape}")
        return self._encoder.forward(tokens, integer_kernels=self._integer_kernels)


# ---------------------------------------------------------------------- #
# Serving entry points: the three paper workloads through the PumServer   #
# ---------------------------------------------------------------------- #
# Every ``serve_*`` helper takes the :class:`PumServer` to serve through
# and one keyword, ``slo``: the SLO class (name or :class:`SloClass`) every
# submitted request carries (deadline + shed priority).
def _serve_all(
    server: PumServer,
    name: str,
    vectors: np.ndarray,
    input_bits: int,
    slo: Union[None, str, SloClass] = None,
) -> np.ndarray:
    """Submit the vectors through the bulk-ingress path and gather results.

    Each wave is one :meth:`~repro.runtime.server.PumServer.submit_batch`
    call: the whole block is validated in a single NumPy pass, admitted as
    requests whose vectors are row views of the block, and -- because the
    scheduler dispatches them in arrival order -- assembled into zero-copy
    batch slices on the way to the pool.  Waves are no larger than the
    server's queue capacity so an arbitrarily large workload never trips
    admission control against itself; a request that still ends
    rejected/shed/failed (competing traffic, deadline pressure, a chip
    fault) raises a descriptive error instead of surfacing as ``None`` deep
    inside a stack operation.
    """
    blocks = []
    wave = server.queue_capacity
    for start in range(0, len(vectors), wave):
        futures = server.submit_batch(
            name, vectors[start: start + wave], input_bits=input_bits, slo=slo
        )
        server.run_until_idle()
        statuses, results = futures.columns()[:2]
        if statuses.any():
            response = futures[int(statuses.nonzero()[0][0])].result()  # first not ok
            raise AdmissionError(
                f"request {response.request_id} against matrix {name!r} "
                f"ended {response.status}"
                + (f" ({response.error})" if response.error else "")
            )
        blocks.append(results)
    return np.concatenate(blocks)


def serve_aes_mixcolumns(
    server: PumServer,
    columns: np.ndarray,
    matrix_name: str = "aes.mixcolumns",
    *,
    slo: Union[None, str, SloClass] = None,
) -> np.ndarray:
    """AES MixColumns for ``(n, 4)`` state columns through the server.

    Registers the 32x32 GF(2) MixColumns bit matrix once (transposed, as
    the runtime computes ``x @ M``), submits one 32-bit request per column,
    and extracts the output parity bits -- the same mapping
    :class:`~repro.workloads.aes.mapping.DarthPumAes` uses on a single
    tile, but scheduled across the pool by dynamic batching.
    """
    if matrix_name not in server.matrix_names:
        server.register_matrix(
            matrix_name, mixcolumns_bit_matrix().T.copy(), element_size=1,
            input_bits=1,
        )
    bit_vectors = columns_to_bits(columns)
    parity = _serve_all(server, matrix_name, bit_vectors, input_bits=1, slo=slo) & 1
    return bits_to_columns(parity)


def serve_cnn_conv(
    server: PumServer,
    conv: Conv2d,
    image: np.ndarray,
    positions: int = 8,
    weight_bits: int = 6,
    activation_bits: int = 6,
    matrix_name: str = "cnn.conv",
    *,
    slo: Union[None, str, SloClass] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Serve ``positions`` output positions of a convolution.

    The quantised Toeplitz weight matrix is registered once; every im2col
    patch becomes one single-vector request.  Returns
    ``(device_result, reference_result)`` as dequantised floats, mirroring
    :func:`~repro.workloads.cnn.mapping.run_conv_on_tile`.
    """
    image = np.asarray(image)
    if image.ndim != 4:
        raise MappingError("serve_cnn_conv expects an NCHW image batch")
    patches, _, _ = im2col(image, conv.kernel, conv.stride, conv.padding)
    weight_matrix = conv.weight.reshape(conv.out_channels, -1).T
    q_weight = quantize(weight_matrix, bits=weight_bits)
    q_patches = quantize(patches[:positions], bits=activation_bits)
    server.register_matrix(
        matrix_name, q_weight.values, element_size=weight_bits,
        input_bits=activation_bits + 1,
    )
    corrected = offset_shifted_mvm(
        q_patches.values, q_weight.values.sum(axis=0),
        lambda shifted: _serve_all(
            server, matrix_name, shifted, activation_bits + 1, slo=slo
        ),
    )
    device = corrected.astype(float) * q_weight.scale * q_patches.scale
    count = corrected.shape[0]
    return device, patches[:count] @ weight_matrix


def serve_llm_projection(
    server: PumServer,
    weight: np.ndarray,
    activations: np.ndarray,
    weight_bits: int = 6,
    activation_bits: int = 6,
    matrix_name: str = "llm.projection",
    *,
    slo: Union[None, str, SloClass] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Serve a ``(token, hidden)`` projection, one request per token.

    Mirrors :func:`~repro.workloads.llm.mapping.run_projection_on_tile`
    but lets the server's scheduler coalesce the token stream into batches.
    Returns ``(device_result, reference_result)`` as dequantised floats.
    """
    weight = np.asarray(weight, dtype=float)
    activations = np.asarray(activations, dtype=float)
    if activations.ndim != 2 or weight.ndim != 2:
        raise MappingError("serve_llm_projection expects 2-D activations and weights")
    q_weight = quantize(weight, bits=weight_bits)
    q_activations = quantize(activations, bits=activation_bits)
    server.register_matrix(
        matrix_name, q_weight.values, element_size=weight_bits,
        input_bits=activation_bits + 1,
    )
    corrected = offset_shifted_mvm(
        q_activations.values, q_weight.values.sum(axis=0),
        lambda shifted: _serve_all(
            server, matrix_name, shifted, activation_bits + 1, slo=slo
        ),
    )
    device = corrected.astype(float) * q_weight.scale * q_activations.scale
    return device, activations @ weight
