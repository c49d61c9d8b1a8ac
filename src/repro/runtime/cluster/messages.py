"""Cluster wire protocol: framed messages over :class:`ShmRing`.

One ring frame carries exactly one message, in one fixed layout::

    prefix   kind u8 | arrays u8 | flags u8 | input_bits u16 | name u32 |
             table u32 | extra u32 | batch i64 | trace u64      (33 bytes)
    names    name (utf-8) | array table | extra (JSON object)
    arrays   each array's raw bytes, back to back

``batch``, ``name`` and ``input_bits`` -- what the hot SUBMIT and RESULTS
frames carry -- have fixed slots (``flags`` says which are present, so a
header decodes to exactly the dict that was encoded); every other header
key rides in ``extra``, a JSON object, so control frames keep a free-form
payload while a data frame leaves ``extra`` empty and never enters
:mod:`json`.  ``trace`` is reserved for a per-batch trace id: written 0,
ignored on read.  The array table is the
:mod:`transport <repro.runtime.cluster.transport>` codec's dtype/shape
entries for *all* arrays of the message; *all* bulk data -- request vectors,
matrices being registered, result matrices -- travels as raw array bytes,
never through JSON and never through pickle.  Decoding returns ndarray
*views* of the ring frame, so the consumer reads payloads straight out of
shared memory.  The kind stays byte 0 of the frame (the fault injector
filters on it).

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

    READY       header {worker, pid}                -- sent once at boot
    REGISTERED  header {name, shape, handle}        -- handle = PlanHandle hex
    RESULTS     header {batch, name[, errors]}      -- errors: {row: text}
                arrays [statuses (n,) u8, results (n, cols),
                        latency ticks (n,), energy pJ (n,)]
    ACK         header {drain, stats, ...} | {straggle, ...} | {stopped}
    ERROR       header {error, batch, name[, trace]} -- whole-message failure;
                batch is the request's whenever its prefix decoded
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import TransportError
from ..server import STATUS_CODES
from .transport import decode_arrays, encode_arrays

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
    "batch_of",
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
#: thousand-row batch does not drag a thousand strings through JSON.  The
#: codes (``STATUS_CODES``) are the server's: the worker ships the status
#: column of ``WaveFutures.columns()`` as it is.
STATUS_NAMES = {code: name for name, code in STATUS_CODES.items()}

#: kind, array count, flags, input_bits, name length, array-table length,
#: extra length, batch id, trace id (reserved).
_PREFIX = struct.Struct("<BBBHIIIqQ")
_HAS_BATCH, _HAS_NAME, _HAS_BITS = 1, 2, 4


def encode_message(
    kind: int,
    header: Dict[str, Any],
    arrays: Sequence[np.ndarray] = (),
) -> List[bytes]:
    """Encode one message as a buffer list for :meth:`ShmRing.push`.

    The buffers are handed to the ring verbatim, so array data is copied
    exactly once -- from the caller's ndarray into shared memory.  A
    ``batch`` / ``name`` / ``input_bits`` value its fixed slot cannot hold
    (``None``, a negative width) rides in ``extra`` like any other key.
    """
    if len(arrays) > 255:
        raise TransportError(f"too many arrays in one message ({len(arrays)})")
    flags, extra = 0, dict(header)
    batch, name, bits = map(header.get, ("batch", "name", "input_bits"))
    if type(batch) is int and -1 << 63 <= batch < 1 << 63:
        flags |= _HAS_BATCH
        del extra["batch"]
    if type(name) is str:
        flags |= _HAS_NAME
        del extra["name"]
    if type(bits) is int and 0 <= bits < 1 << 16:
        flags |= _HAS_BITS
        del extra["input_bits"]
    names = name.encode("utf-8") if flags & _HAS_NAME else b""
    table, buffers = encode_arrays(arrays)
    blob = json.dumps(extra, separators=(",", ":")).encode("utf-8") if extra else b""
    prefix = _PREFIX.pack(
        kind, len(arrays), flags, bits if flags & _HAS_BITS else 0, len(names),
        len(table), len(blob), batch if flags & _HAS_BATCH else 0, 0,
    )
    return [prefix, names + table + blob, *buffers]


def batch_of(payload: memoryview) -> Optional[int]:
    """The batch id in a frame's prefix, or ``None`` (no id, no prefix): what
    an ERROR reply to a frame that decodes no further can still name."""
    if len(payload) < _PREFIX.size or not payload[2] & _HAS_BATCH:
        return None
    return _PREFIX.unpack_from(payload, 0)[7]


def decode_message(
    payload: memoryview,
) -> Tuple[int, Dict[str, Any], List[np.ndarray]]:
    """Decode one frame payload into ``(kind, header, arrays)``.

    The arrays are zero-copy views of ``payload`` (i.e. of the shared
    memory ring) and are only valid until the frame is released with
    :meth:`ShmRing.advance`; copy anything that must outlive it.  A frame
    short of its prefix, whose name, table or ``extra`` runs past its end,
    or whose ``extra`` is not a JSON object raises :class:`TransportError`.
    """
    try:
        (kind, narrays, flags, bits, name_len, table_len, extra_len, batch,
         _trace) = _PREFIX.unpack_from(payload, 0)
        table_at = _PREFIX.size + name_len
        extra_at = table_at + table_len
        offset = extra_at + extra_len
        if offset > len(payload):
            raise ValueError(f"header ends at byte {offset} of {len(payload)}")
        header = json.loads(bytes(payload[extra_at:offset])) if extra_len else {}
        if type(header) is not dict:
            raise ValueError("extra is not a JSON object")
        if flags & _HAS_BATCH:
            header["batch"] = batch
        if flags & _HAS_NAME:
            header["name"] = str(payload[_PREFIX.size:table_at], "utf-8")
        if flags & _HAS_BITS:
            header["input_bits"] = bits
    except (struct.error, ValueError) as exc:
        raise TransportError(f"malformed message frame: {exc}") from exc
    arrays, _ = decode_arrays(payload, bytes(payload[table_at:extra_at]), narrays, offset)
    return kind, header, arrays
