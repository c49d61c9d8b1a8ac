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

Nothing here runs on a timer.  A ring may carry a :class:`Doorbell` -- a
pipe the producer writes one byte into after each commit -- and its
consumer blocks on that (the worker in :meth:`Doorbell.wait`, the gateway's
event loop through ``add_reader``) instead of polling ``peek``.  The array
codec is likewise paid once per *shape*, not once per frame: the dtype/shape
table entry of an array is memoised by ``(dtype, shape)`` on the way out and
a whole table's parse by its bytes on the way in, while the check that every
array fits its frame, and the CRC over every payload byte, run on each frame.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import struct
import time
import zlib
from functools import lru_cache
from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...errors import TransportError

__all__ = [
    "Doorbell",
    "HeartbeatBoard",
    "ShmRing",
    "decode_arrays",
    "encode_arrays",
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

#: Array table entry prefix: dtype-string length, ndim; then the dtype string
#: and one little-endian uint64 per dimension.
_ARRAY = struct.Struct("<BB")


# --------------------------------------------------------------------- #
# ndarray codec                                                           #
# --------------------------------------------------------------------- #
@lru_cache(maxsize=256)
def _table_entry(dtype: np.dtype, shape: Tuple[int, ...]) -> bytes:
    """The table entry of one ``(dtype, shape)`` (a serving cluster sends a
    handful; packing one costs more than copying a small array)."""
    if dtype.hasobject:
        raise TransportError(f"cannot transport object-dtype array ({dtype})")
    # NumPy bounds both counts (a dtype string is a few characters, ndim at
    # most 64) far below the one byte each gets.
    name = dtype.str.encode("ascii")
    return struct.pack(
        f"<BB{len(name)}s{len(shape)}Q", len(name), len(shape), name, *shape
    )


def encode_arrays(arrays: Sequence[np.ndarray]) -> Tuple[bytes, List[memoryview]]:
    """Encode ``arrays`` as ``(table, buffers)`` for :meth:`ShmRing.push`.

    ``table`` is one dtype/shape entry per array, back to back; ``buffers``
    are the arrays' own C-contiguous bytes in the same order (memoryviews of
    the caller's buffers when they are already contiguous -- pushing writes
    them straight into shared memory with no intermediate copy).  Every
    fixed-width dtype NumPy can describe round-trips (the planner emits
    ``int64`` on the serving path, but the suite pins the full set); object
    dtypes cannot cross a process boundary and are rejected.

    >>> import numpy as np
    >>> table, buffers = encode_arrays([np.arange(6, dtype=np.int16).reshape(2, 3)])
    >>> (array,), offset = decode_arrays(memoryview(b"".join(buffers)), table, 1, 0)
    >>> array
    array([[0, 1, 2],
           [3, 4, 5]], dtype=int16)
    """
    table, buffers = [], []
    for array in arrays:
        array = np.asarray(array, order="C")
        table.append(_table_entry(array.dtype, array.shape))
        # An empty multi-dimensional array has no castable buffer.
        buffers.append(memoryview(array).cast("B") if array.size else b"")
    return b"".join(table), buffers


@lru_cache(maxsize=256)
def _parse_table(table: bytes, count: int) -> Tuple[Tuple, ...]:
    """``(dtype, shape, nbytes)`` of the ``count`` entries ``table`` starts
    with.  A malformed table raises (and is not remembered)."""
    entries, offset = [], 0
    for _ in range(count):
        dtype_len, ndim = _ARRAY.unpack_from(table, offset)
        shape_at = offset + _ARRAY.size + dtype_len
        dtype = np.dtype(table[offset + _ARRAY.size: shape_at].decode("ascii"))
        shape = struct.unpack_from(f"<{ndim}Q", table, shape_at)
        offset = shape_at + 8 * ndim
        # Exact Python integers: a forged dimension cannot wrap the product
        # back into the frame.
        entries.append((dtype, shape, math.prod(shape) * dtype.itemsize))
    return tuple(entries)


def decode_arrays(payload: memoryview, table: bytes, count: int,
                  offset: int) -> Tuple[List[np.ndarray], int]:
    """Decode the ``count`` arrays ``table`` describes from ``payload`` at
    ``offset``; returns ``(arrays, next_offset)``.

    The arrays are *views* of ``payload`` (zero-copy): callers that hold one
    past the frame's lifetime -- e.g. past :meth:`ShmRing.advance` -- must
    copy it first.  The table is parsed once per distinct table; the check
    that every array fits the frame runs on every decode.
    """
    arrays = []
    try:
        for dtype, shape, nbytes in _parse_table(table, count):
            if nbytes > len(payload) - offset:
                raise ValueError(
                    f"shape {shape} of {dtype} needs {nbytes} bytes, "
                    f"{len(payload) - offset} left in the frame"
                )
            # frombuffer refuses what cannot be a view: object dtypes, items
            # of no size, dimensions past the address space.
            arrays.append(np.frombuffer(
                payload[offset: offset + nbytes], dtype=dtype
            ).reshape(shape))
            offset += nbytes
    except (struct.error, TypeError, ValueError, SyntaxError) as exc:
        # ``np.dtype`` raises all of the last three on a string it cannot parse.
        raise TransportError(f"malformed array frame: {exc}") from exc
    return arrays, offset


# --------------------------------------------------------------------- #
# Doorbell                                                                #
# --------------------------------------------------------------------- #
class Doorbell:
    """The wakeup of one ring direction: a pipe the producer writes a byte
    into after committing a frame and the consumer blocks on.

    Both ends are :func:`multiprocessing.Pipe` connections, so a bell inside
    a worker's spawn spec reaches the child under ``fork`` and ``spawn``
    alike, and both are non-blocking: a full pipe already holds 64 KiB of
    rings the consumer has yet to hear, so one more is dropped, not waited
    for.  No wakeup is lost as long as each side keeps its order -- the
    producer commits, *then* rings; the consumer clears the bell, *then*
    drains the ring until it is empty -- because a frame committed after the
    consumer found the ring empty is followed by a ring the consumer has not
    cleared yet.
    """

    def __init__(self) -> None:
        self._reader, self._writer = multiprocessing.Pipe(duplex=False)
        for end in (self._reader, self._writer):
            os.set_blocking(end.fileno(), False)

    def fileno(self) -> int:
        """The descriptor that turns readable when the bell rings (what a
        selector or ``loop.add_reader`` watches)."""
        return self._reader.fileno()

    def ring(self) -> None:
        """Wake the consumer (producer side; after the frame is committed)."""
        try:
            os.write(self._writer.fileno(), b"\0")
        except BlockingIOError:
            pass

    def clear(self) -> None:
        """Silence the bell (consumer side; before draining the ring)."""
        try:
            os.read(self._reader.fileno(), 1 << 16)
        except BlockingIOError:
            pass

    def wait(self, timeout: float) -> bool:
        """Block until the bell rings, then clear it; ``False`` when
        ``timeout`` seconds pass in silence."""
        rung = self._reader.poll(timeout)
        self.clear()
        return rung

    def close(self) -> None:
        """Close both ends held by this process."""
        self._reader.close()
        self._writer.close()


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
        bell: Optional[Doorbell] = None,
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
        #: Rung by :meth:`push_frame` after every commit and closed with the
        #: ring; ``None`` leaves the consumer to poll (tests, probes).
        self.bell = bell
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
        # Commit, then ring -- never the other way round (see Doorbell).
        if self.bell is not None:
            self.bell.ring()
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
        message; a frame whose length field runs past the committed bytes
        takes everything committed with it.  Either way the next call makes
        progress: a consumer may loop on ``peek`` until it returns ``None``.
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
                # A length that runs past the committed head is damage, and
                # nothing says where the next frame starts: drop what is
                # committed rather than report the same frame for ever.
                self._write_tail(head)
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
        """Detach from the segment (unlinks it too when this side owns it)
        and close this process's ends of the bell."""
        if self.bell is not None:
            self.bell.close()
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
