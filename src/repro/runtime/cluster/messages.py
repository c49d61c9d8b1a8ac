"""Cluster wire protocol: framed messages over :class:`ShmRing`.

One ring frame carries exactly one message.  A message is a one-byte
kind, a small JSON header (scalars and strings only -- request ids,
matrix names, error text), and zero or more ndarrays appended with the
:mod:`transport <repro.runtime.cluster.transport>` array codec.  The
JSON header is deliberately tiny (tens of bytes); *all* bulk data --
request vectors, matrices being registered, result matrices -- travels
as raw array bytes, never through the JSON layer and never through
pickle.  Decoding returns ndarray *views* of the ring frame, so the
consumer reads payloads straight out of shared memory.

Request kinds (gateway -> worker)::

    REGISTER  header {name, element_size, precision, input_bits}
              arrays [matrix]
    SUBMIT    header {batch, name, input_bits}
              arrays [vectors (n, rows)]
    DRAIN     header {}          -- flush, reply ACK with a stats snapshot
    STOP      header {}          -- exit the command loop (ACK, then exit)
    STRAGGLE  header {batches, seconds}  -- chaos: sleep before the next
              N SUBMITs while still heartbeating (gray failure on demand)

Reply kinds (worker -> gateway)::

    READY       header {worker}                     -- sent once at boot
    REGISTERED  header {name, shape, handle}        -- handle = PlanHandle hex
    RESULTS     header {batch, statuses}
                arrays [results (n, cols), latency (n,), energy (n,)]
    ACK         header {echo of the request's header, plus extras}
    ERROR       header {error, batch?}              -- whole-message failure
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ...errors import TransportError
from .transport import decode_array, encode_array

__all__ = [
    "K_ACK",
    "K_DRAIN",
    "K_ERROR",
    "K_READY",
    "K_REGISTER",
    "K_REGISTERED",
    "K_RESULTS",
    "K_STOP",
    "K_STRAGGLE",
    "K_SUBMIT",
    "STATUS_CODES",
    "STATUS_NAMES",
    "decode_message",
    "encode_message",
]

# Requests (gateway -> worker).
K_REGISTER = 1
K_SUBMIT = 2
K_DRAIN = 3
K_STOP = 4
K_STRAGGLE = 6

# Replies (worker -> gateway).
K_READY = 64
K_REGISTERED = 65
K_RESULTS = 66
K_ACK = 67
K_ERROR = 68

#: Per-row terminal states of a RESULTS frame, packed as a u8 array so a
#: thousand-row batch does not drag a thousand strings through JSON.
STATUS_CODES = {"completed": 0, "failed": 1, "shed": 2, "rejected": 3}
STATUS_NAMES = {code: name for name, code in STATUS_CODES.items()}

_PREFIX = struct.Struct("<BBI")  # kind, array count, header length


def encode_message(
    kind: int,
    header: Dict[str, Any],
    arrays: Sequence[np.ndarray] = (),
) -> List[bytes]:
    """Encode one message as a buffer list for :meth:`ShmRing.push`.

    The buffers are handed to the ring verbatim, so array data is copied
    exactly once -- from the caller's ndarray into shared memory.
    """
    if len(arrays) > 255:
        raise TransportError(f"too many arrays in one message ({len(arrays)})")
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts: List[bytes] = [_PREFIX.pack(kind, len(arrays), len(blob)), blob]
    for array in arrays:
        parts.extend(encode_array(array))
    return parts


def decode_message(
    payload: memoryview,
) -> Tuple[int, Dict[str, Any], List[np.ndarray]]:
    """Decode one frame payload into ``(kind, header, arrays)``.

    The arrays are zero-copy views of ``payload`` (i.e. of the shared
    memory ring) and are only valid until the frame is released with
    :meth:`ShmRing.advance`; copy anything that must outlive it.
    """
    try:
        kind, narrays, header_len = _PREFIX.unpack_from(payload, 0)
        offset = _PREFIX.size
        header = json.loads(bytes(payload[offset: offset + header_len]))
        offset += header_len
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed message frame: {exc}") from exc
    arrays: List[np.ndarray] = []
    for _ in range(narrays):
        array, offset = decode_array(payload, offset)
        arrays.append(array)
    return kind, header, arrays
