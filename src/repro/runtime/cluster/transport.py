"""Shared-memory zero-copy transport for the cluster tier.

The cluster runs device workers as separate OS processes; what crosses
the process boundary on the hot path is request vectors going out and
result matrices coming back.  Pickling ndarrays would copy every payload
twice (serialize + deserialize) and burn the GIL the scale-out exists to
escape, so the transport maps payloads onto
:class:`multiprocessing.shared_memory.SharedMemory` instead, extending
the PR 5 row-view/arena discipline across processes:

* the producer writes an ndarray's bytes *once* straight into the ring
  (``ShmRing.push`` accepts any sequence of buffers and copies each
  directly into the mapped region -- no intermediate concatenation);
* the consumer reads frames as :class:`memoryview` windows into the same
  mapping (``peek``), decodes ndarrays as ``np.frombuffer`` *views* of
  shared memory, and only advances the ring (``advance``) when it is
  done with them.  The one unavoidable copy is wherever the consumer
  must retain data past the frame's lifetime (e.g. the worker's bulk
  admission copy, which ``submit_batch`` performs anyway).

``ShmRing`` is a single-producer/single-consumer byte ring: the gateway
produces into each worker's request ring and consumes that worker's
response ring, so every ring has exactly one writer and one reader and
needs no cross-process lock.  The producer publishes a frame by writing
its payload and header first and bumping the ``head`` counter *last*;
the consumer only ever reads below ``head`` and only the consumer moves
``tail`` -- the classic SPSC protocol.  The counters are single native
64-bit words (one ``memoryview.cast("Q")`` over the control line), so
the side that only reads one always sees a value the other side stored,
never a mix of two.  Each frame additionally carries
a CRC32 and a sequence number, so a torn or corrupted write (a worker
dying mid-``push``, a stray writer) is *detected* at read time
(:class:`~repro.errors.TransportError`) instead of silently decoding
garbage; the reader steps past the bad frame, so one corrupted message
never wedges the channel.

Frames never wrap: a frame that does not fit contiguously before the end
of the ring is preceded by a wrap marker and written at offset zero,
which is what lets ``peek`` hand out one contiguous view per frame.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from functools import lru_cache
from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...errors import TransportError

__all__ = [
    "HeartbeatBoard",
    "ShmRing",
    "decode_array",
    "encode_array",
]

#: Control region (one cache line).  Its first four native 64-bit words are
#: head, tail, frames-pushed sequence, and the data capacity recorded at
#: creation time (the kernel may round the segment itself up to a page
#: multiple); the rest is padding.
_CTRL_SIZE = 64

#: Per-frame header: payload length, sequence number, CRC32(payload).
_FRAME = struct.Struct("<III")

#: ``length`` sentinel marking "frame starts at offset 0" (wrap marker).
_WRAP = 0xFFFFFFFF

#: Array codec prefix: dtype-string length, ndim; then the dtype string and
#: one little-endian uint64 per dimension.
_ARRAY = struct.Struct("<BB")


# --------------------------------------------------------------------- #
# ndarray codec                                                           #
# --------------------------------------------------------------------- #
def encode_array(array: np.ndarray) -> List[bytes]:
    """Encode ``array`` as raw buffers ready for :meth:`ShmRing.push`.

    The returned list is ``[header, data]``: a compact dtype/shape header
    followed by the array's own C-contiguous bytes (a memoryview of the
    caller's buffer when it is already contiguous -- pushing writes it
    straight into shared memory with no intermediate copy).  Every
    fixed-width dtype NumPy can describe round-trips (the planner emits
    ``int64`` on the serving path, but the suite pins the full set);
    object dtypes cannot cross a process boundary and are rejected.

    >>> import numpy as np
    >>> parts = encode_array(np.arange(6, dtype=np.int16).reshape(2, 3))
    >>> array, offset = decode_array(memoryview(b"".join(parts)), 0)
    >>> array
    array([[0, 1, 2],
           [3, 4, 5]], dtype=int16)
    """
    array = np.asarray(array)
    if array.dtype.hasobject:
        raise TransportError(
            f"cannot transport object-dtype array ({array.dtype})"
        )
    array = np.ascontiguousarray(array)
    dtype_str = array.dtype.str.encode("ascii")
    if len(dtype_str) > 255 or array.ndim > 255:
        raise TransportError(
            f"array header out of range (dtype {array.dtype}, "
            f"ndim {array.ndim})"
        )
    header = struct.pack(
        f"<BB{len(dtype_str)}s{array.ndim}Q",
        len(dtype_str), array.ndim, dtype_str, *array.shape,
    )
    return [header, memoryview(array).cast("B")]


@lru_cache(maxsize=64)
def _wire_dtype(name: bytes) -> np.dtype:
    """The dtype a header's dtype string names (a serving cluster sees a
    handful; parsing one costs more than the rest of the header)."""
    return np.dtype(name.decode("ascii"))


def decode_array(payload: memoryview, offset: int) -> Tuple[np.ndarray, int]:
    """Decode one array from ``payload`` at ``offset``.

    Returns ``(array, next_offset)``.  The array is a *view* of
    ``payload`` (zero-copy): callers that hold it past the frame's
    lifetime -- e.g. past :meth:`ShmRing.advance` -- must copy it first.
    """
    try:
        dtype_len, ndim = _ARRAY.unpack_from(payload, offset)
        offset += _ARRAY.size
        dtype = _wire_dtype(bytes(payload[offset: offset + dtype_len]))
        offset += dtype_len
        shape = struct.unpack_from(f"<{ndim}Q", payload, offset)
        offset += 8 * ndim
        # Exact Python integers: a forged dimension cannot wrap the product
        # back into the frame.
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > len(payload) - offset:
            raise ValueError(
                f"shape {shape} of {dtype} needs {nbytes} bytes, "
                f"{len(payload) - offset} left in the frame"
            )
        array = np.frombuffer(
            payload[offset: offset + nbytes], dtype=dtype
        ).reshape(shape)
    except (struct.error, TypeError, ValueError) as exc:
        raise TransportError(f"malformed array frame: {exc}") from exc
    return array, offset + nbytes


# --------------------------------------------------------------------- #
# SPSC shared-memory ring                                                 #
# --------------------------------------------------------------------- #
class ShmRing:
    """Single-producer/single-consumer byte ring over shared memory.

    One side constructs with ``create=True`` (owning the segment); the
    other attaches by name with ``create=False``.  ``push`` applies
    backpressure by returning ``False`` when the frame does not fit --
    nothing blocks inside the transport, so the caller decides whether to
    spin, shed, or route elsewhere.
    """

    def __init__(
        self,
        capacity: int = 1 << 22,
        name: Optional[str] = None,
        create: bool = True,
    ) -> None:
        if create:
            if capacity < 4 * _FRAME.size:
                raise TransportError(
                    f"ring capacity {capacity} is too small to hold a frame"
                )
            self.shm = shared_memory.SharedMemory(
                create=True, size=_CTRL_SIZE + capacity, name=name
            )
        else:
            if name is None:
                raise TransportError("attaching to a ring requires its name")
            self.shm = shared_memory.SharedMemory(name=name)
        #: The counters as native words.  The other process reads them while
        #: this one writes: a word is stored and loaded whole, where
        #: ``struct`` moves standard-size integers a byte at a time and a
        #: reader can pair old high bytes with new low ones -- a counter
        #: *below* both values, i.e. a full ring that is empty or a frame
        #: that runs past ``head``.  Both ends share a host, so native byte
        #: order is the same on each by construction.
        self._ctrl = self.shm.buf[:32].cast("Q")
        if create:
            # A new segment is zero-filled: head, tail and seq start at 0.
            self._ctrl[3] = capacity
        self.capacity = self._ctrl[3]
        self._owner = create
        self._data = self.shm.buf[_CTRL_SIZE: _CTRL_SIZE + self.capacity]
        #: Producer-seam hook: when set, :meth:`push` routes every frame
        #: through ``fault_injector.on_push`` instead of writing directly
        #: (see :mod:`repro.runtime.cluster.faults`).  ``None`` -- the
        #: default -- keeps the hot path a single attribute check.
        self.fault_injector = None
        #: Bytes of the frame handed out by the last :meth:`peek` and not
        #: yet released by :meth:`advance` (consumer side).
        self._pending = 0
        #: Sequence number of the frame returned by the last successful
        #: :meth:`peek`; a consumer that sees it jump by more than one has
        #: observed a skipped (torn/corrupted) frame.
        self.last_seq: Optional[int] = None

    # -- control counters ------------------------------------------------
    @property
    def name(self) -> str:
        """Segment name; the attach key for the other process."""
        return self.shm.name

    def _read_ctrl(self) -> Tuple[int, int, int]:
        ctrl = self._ctrl
        return ctrl[0], ctrl[1], ctrl[2]

    def _write_head(self, head: int, seq: int) -> None:
        # Publish order matters: payload and header are already in place,
        # so making head visible is the commit point of the frame.
        self._ctrl[2] = seq
        self._ctrl[0] = head

    def _write_tail(self, tail: int) -> None:
        self._ctrl[1] = tail

    def __len__(self) -> int:
        """Bytes currently enqueued (header overhead included)."""
        head, tail, _ = self._read_ctrl()
        return head - tail

    @property
    def frames_pushed(self) -> int:
        """Lifetime frames committed by the producer."""
        return self._read_ctrl()[2]

    # -- producer side ---------------------------------------------------
    def push(self, parts: Sequence) -> bool:
        """Append one frame made of ``parts`` (buffers); False when full.

        This is the fault-injection seam: with a ``fault_injector``
        attached the frame is routed through the injector's fault model
        (which may drop, duplicate, delay, or corrupt it); without one it
        goes straight to :meth:`push_frame`.  Either way ``False`` means
        real backpressure and ``True`` means "the send was accepted" --
        which, like any lossy link, is not a delivery guarantee once an
        injector is in play.
        """
        injector = self.fault_injector
        if injector is not None:
            return injector.on_push(self, parts)
        return self.push_frame(parts)

    def push_frame(self, parts: Sequence, damage=None) -> bool:
        """The raw frame write behind :meth:`push` (no fault model).

        The frame is written contiguously: when it does not fit between
        the write position and the end of the ring, a wrap marker is laid
        down and the frame starts over at offset zero.  Returning
        ``False`` (not blocking, not raising) is the backpressure signal
        -- the sender's inflight window, not the transport, decides what
        saturation means.

        ``damage(data, start, length)``, when given, may alter the
        ``length`` payload bytes at ``data[start:]`` once payload, CRC and
        header are in place and *before* the frame is committed: the
        consumer can only ever see the damaged bytes, so the CRC it checks
        is the CRC of what it then reads (the fault injector's ``corrupt``
        mode).
        """
        views = [memoryview(part).cast("B") for part in parts]
        length = sum(len(view) for view in views)
        if _FRAME.size + length > self.capacity:
            raise TransportError(
                f"frame of {length} bytes cannot fit a ring of capacity "
                f"{self.capacity}"
            )
        head, tail, seq = self._read_ctrl()
        free = self.capacity - (head - tail)
        position = head % self.capacity
        contiguous = self.capacity - position
        needed = _FRAME.size + length
        if needed > contiguous:
            # Frame will not fit before the end: burn the remainder with a
            # wrap marker and start at offset zero.
            needed = contiguous + _FRAME.size + length
            if needed > free:
                return False
            if contiguous >= 4:
                struct.pack_into("<I", self._data, position, _WRAP)
            head += contiguous
            position = 0
        elif needed > free:
            return False

        crc = 0
        offset = position + _FRAME.size
        for view in views:
            self._data[offset: offset + len(view)] = view
            crc = zlib.crc32(view, crc)
            offset += len(view)
        _FRAME.pack_into(
            self._data, position, length, (seq + 1) & 0xFFFFFFFF, crc
        )
        if damage is not None:
            damage(self._data, position + _FRAME.size, length)
        self._write_head(head + _FRAME.size + length, seq + 1)
        return True

    # -- consumer side ---------------------------------------------------
    def peek(self) -> Optional[memoryview]:
        """The payload of the oldest unread frame, or ``None`` when empty.

        The returned memoryview is a zero-copy window into shared memory,
        valid until :meth:`advance` releases the frame.  A frame whose
        CRC does not match its payload -- a torn write from a producer
        that died mid-``push``, or outright corruption -- raises
        :class:`~repro.errors.TransportError` *after* stepping past the
        frame, so the channel recovers by dropping exactly the bad
        message.
        """
        while True:
            head, tail, _ = self._read_ctrl()
            if head == tail:
                return None
            position = tail % self.capacity
            contiguous = self.capacity - position
            if contiguous < 4:
                self._write_tail(tail + contiguous)
                continue
            length = struct.unpack_from("<I", self._data, position)[0]
            if length == _WRAP:
                self._write_tail(tail + contiguous)
                continue
            if _FRAME.size + length > head - tail:
                # Header bytes ahead of the committed head: the producer
                # died mid-write and the commit never happened.
                raise TransportError(
                    f"truncated frame at ring offset {position} "
                    f"(length {length}, committed bytes {head - tail})"
                )
            length, seq, crc = _FRAME.unpack_from(self._data, position)
            payload = self._data[
                position + _FRAME.size: position + _FRAME.size + length
            ]
            if zlib.crc32(payload, 0) != crc:
                self._write_tail(tail + _FRAME.size + length)
                raise TransportError(
                    f"torn or corrupted frame (seq {seq}) at ring offset "
                    f"{position}: CRC mismatch"
                )
            self._pending = _FRAME.size + length
            self.last_seq = seq
            return payload

    def advance(self) -> None:
        """Release the frame returned by the last :meth:`peek`."""
        if self._pending:
            _, tail, _ = self._read_ctrl()
            self._write_tail(tail + self._pending)
            self._pending = 0

    def pop(self) -> Optional[bytes]:
        """Copying convenience: ``peek`` + ``advance`` returning bytes."""
        payload = self.peek()
        if payload is None:
            return None
        data = bytes(payload)
        self.advance()
        return data

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Detach from the segment (unlinks it too when this side owns it)."""
        views, self._data, self._ctrl = (self._data, self._ctrl), None, None
        for view in views:
            if view is not None:
                view.release()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._owner = False

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmRing(name={self.name!r}, capacity={self.capacity}, "
            f"queued={len(self)}B)"
        )


class HeartbeatBoard:
    """Shared liveness board: one beat slot per worker process.

    Each worker bumps its slot's beat counter (and stamps
    ``time.monotonic()``, which is system-wide on Linux) every command
    loop iteration; the gateway's health task reads the slots and treats
    a counter that stops advancing past the liveness timeout as a dead
    worker.  Writes are 16-byte single-slot stores by the one owning
    worker, so the board needs no lock either.
    """

    _SLOT = struct.Struct("<Qd")

    def __init__(
        self,
        num_slots: int = 1,
        name: Optional[str] = None,
        create: bool = True,
    ) -> None:
        size = max(1, num_slots) * self._SLOT.size
        if create:
            self.shm = shared_memory.SharedMemory(create=True, size=size, name=name)
            self.num_slots = num_slots
            for slot in range(num_slots):
                self._SLOT.pack_into(self.shm.buf, slot * self._SLOT.size, 0, 0.0)
        else:
            if name is None:
                raise TransportError("attaching to a board requires its name")
            self.shm = shared_memory.SharedMemory(name=name)
            self.num_slots = self.shm.size // self._SLOT.size
        self._owner = create

    @property
    def name(self) -> str:
        """Segment name; the attach key for worker processes."""
        return self.shm.name

    def beat(self, slot: int) -> None:
        """Record one liveness beat for ``slot``."""
        beats, _ = self._SLOT.unpack_from(self.shm.buf, slot * self._SLOT.size)
        self._SLOT.pack_into(
            self.shm.buf, slot * self._SLOT.size, beats + 1, time.monotonic()
        )

    def read(self, slot: int) -> Tuple[int, float]:
        """``(beats, last_beat_monotonic)`` of one slot."""
        return self._SLOT.unpack_from(self.shm.buf, slot * self._SLOT.size)

    def close(self) -> None:
        """Detach (and unlink when owning)."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._owner = False
