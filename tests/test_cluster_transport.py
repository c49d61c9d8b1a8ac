"""Cluster transport tests: array codec, SPSC ring, wire protocol.

Everything here but the last test is single-process -- the ring's two
ends are exercised from one test body, which is exactly the SPSC contract
(one producer, one consumer; they just happen to share a thread here).
The last test puts the producer in a second process, because what it
checks (a counter read while the other side writes it) has no
single-process form.  Gateway-level behaviour lives in ``test_cluster.py``.
"""

import multiprocessing
import struct
import time
import zlib

import numpy as np
import pytest

from repro.errors import TransportError
from repro.runtime.cluster import (
    STATUS_CODES,
    STATUS_NAMES,
    HeartbeatBoard,
    ShmRing,
    decode_array,
    decode_message,
    encode_array,
    encode_message,
)
from repro.runtime.cluster.gateway import START_METHOD
from repro.runtime.cluster.messages import K_RESULTS, K_SUBMIT
from repro.runtime.cluster.transport import _FRAME


@pytest.fixture
def ring():
    ring = ShmRing(capacity=1 << 12)
    yield ring
    ring.close()


def push_bytes(ring, payload):
    return ring.push([payload])


def _forged_array_frame(dtype: bytes, shape, data: bytes = b"") -> memoryview:
    return memoryview(struct.pack(
        f"<BB{len(dtype)}s{len(shape)}Q", len(dtype), len(shape), dtype, *shape
    ) + data)


@pytest.mark.parametrize("shape", [
    (1 << 32, 1 << 32),   # the product wraps a 64-bit count to zero
    (1 << 63, 2),
    (3, 1 << 40),
])
def test_array_codec_rejects_a_shape_that_overflows_the_frame(shape):
    frame = _forged_array_frame(b"<i8", shape, bytes(48))
    with pytest.raises(TransportError, match="malformed array frame.*left in the frame"):
        decode_array(frame, 0)


def test_array_codec_rejects_an_unknown_dtype_string():
    for dtype in (b"<zz9", b"\xff\xfe"):
        with pytest.raises(TransportError, match="malformed array frame"):
            decode_array(_forged_array_frame(dtype, (2,), bytes(16)), 0)
    # The failure is not remembered: a good frame still decodes.
    array, _ = decode_array(_forged_array_frame(b"<i8", (2,), bytes(16)), 0)
    assert array.tolist() == [0, 0]


# --------------------------------------------------------------------- #
# Array codec                                                             #
# --------------------------------------------------------------------- #
ALL_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64,
    np.bool_,
]


@pytest.mark.parametrize("dtype", ALL_DTYPES)
def test_array_codec_identity_every_dtype(dtype):
    """Encode/decode is bit-exact for every fixed-width dtype."""
    rng = np.random.default_rng(7)
    if dtype is np.bool_:
        array = rng.integers(0, 2, size=(5, 3)).astype(dtype)
    elif np.issubdtype(dtype, np.floating):
        array = rng.standard_normal((5, 3)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        array = rng.integers(
            max(info.min, -1000), min(info.max, 1000), size=(5, 3)
        ).astype(dtype)
    blob = b"".join(bytes(part) for part in encode_array(array))
    decoded, offset = decode_array(memoryview(blob), 0)
    assert offset == len(blob)
    assert decoded.dtype == array.dtype
    assert decoded.shape == array.shape
    assert np.array_equal(decoded, array)


@pytest.mark.parametrize("shape", [(0,), (7,), (2, 3, 4)])
def test_array_codec_identity_shapes(shape):
    array = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    blob = b"".join(bytes(part) for part in encode_array(array))
    decoded, _ = decode_array(memoryview(blob), 0)
    assert decoded.shape == array.shape
    assert np.array_equal(decoded, array)


def test_array_codec_is_zero_copy_on_decode():
    """Decoded arrays are views of the source buffer, not copies."""
    array = np.arange(12, dtype=np.int64)
    blob = bytearray(b"".join(bytes(part) for part in encode_array(array)))
    decoded, _ = decode_array(memoryview(blob), 0)
    header = len(blob) - array.nbytes
    blob[header] = 0xAA  # mutate the underlying buffer
    assert decoded[0] != array[0]  # the view saw the mutation


def test_array_codec_rejects_object_dtype():
    with pytest.raises(TransportError, match="object"):
        encode_array(np.array([object()], dtype=object))


def test_array_codec_rejects_truncated_payload():
    array = np.arange(8, dtype=np.int64)
    blob = b"".join(bytes(part) for part in encode_array(array))
    with pytest.raises(TransportError, match="malformed"):
        decode_array(memoryview(blob[: len(blob) // 2]), 0)


# --------------------------------------------------------------------- #
# SPSC ring                                                               #
# --------------------------------------------------------------------- #
def test_ring_round_trip(ring):
    assert push_bytes(ring, b"hello")
    assert push_bytes(ring, b"world")
    assert ring.pop() == b"hello"
    assert ring.pop() == b"world"
    assert ring.pop() is None


def test_ring_attach_by_name(ring):
    """A second handle attached by name sees the same frames."""
    push_bytes(ring, b"cross-process payload")
    attached = ShmRing(name=ring.name, create=False)
    try:
        assert attached.capacity == ring.capacity
        assert attached.pop() == b"cross-process payload"
    finally:
        attached.close()


def test_ring_backpressure_returns_false_when_full(ring):
    """A full ring refuses the frame instead of blocking or raising."""
    frame = bytes(1024)
    accepted = 0
    while push_bytes(ring, frame):
        accepted += 1
    assert accepted == 3  # 4 KiB ring, ~1 KiB frames + headers
    assert not push_bytes(ring, frame)
    # Draining one frame makes room again.
    assert ring.pop() == frame
    assert push_bytes(ring, frame)


def test_ring_oversized_frame_raises(ring):
    with pytest.raises(TransportError, match="cannot fit"):
        push_bytes(ring, bytes(ring.capacity))


def test_ring_wrap_around_preserves_frames(ring):
    """Thousands of variable-size frames survive ring wrap-around."""
    rng = np.random.default_rng(3)
    outstanding = []
    pushed = popped = 0
    for step in range(2000):
        payload = bytes(rng.integers(0, 256, size=rng.integers(1, 300),
                                     dtype=np.uint8))
        if push_bytes(ring, payload):
            outstanding.append(payload)
            pushed += 1
        else:
            assert outstanding, "ring full while logically empty"
            assert ring.pop() == outstanding.pop(0)
            popped += 1
    while outstanding:
        assert ring.pop() == outstanding.pop(0)
        popped += 1
    assert ring.pop() is None
    assert pushed == popped
    assert ring.frames_pushed == pushed


def test_ring_frames_pushed_is_continuous(ring):
    for index in range(10):
        assert push_bytes(ring, b"x" * (index + 1))
        assert ring.frames_pushed == index + 1


def test_ring_detects_torn_write(ring):
    """A frame corrupted after commit fails its CRC -- and is skipped."""
    push_bytes(ring, b"first frame, about to be mangled")
    push_bytes(ring, b"second frame, intact")
    # Flip one payload byte behind the transport's back (a torn write
    # from a producer dying mid-push looks exactly like this).
    ring._data[16] ^= 0xFF
    with pytest.raises(TransportError, match="CRC"):
        ring.peek()
    # The reader stepped past the bad frame: the channel recovers.
    assert ring.pop() == b"second frame, intact"
    assert ring.pop() is None


def test_ring_detects_uncommitted_header(ring):
    """Header bytes past the committed head are flagged, not decoded."""
    push_bytes(ring, b"frame")
    # Pretend a producer wrote a huge length field then died before
    # bumping head past it.
    import struct
    struct.pack_into("<I", ring._data, 0, 10_000)
    with pytest.raises(TransportError, match="truncated"):
        ring.peek()


def test_ring_peek_is_zero_copy_until_advance(ring):
    push_bytes(ring, bytes(range(32)))
    view = ring.peek()
    assert isinstance(view, memoryview)
    assert bytes(view) == bytes(range(32))
    # Not consumed until advance.
    assert len(ring) > 0
    view.release()
    ring.advance()
    assert len(ring) == 0


# --------------------------------------------------------------------- #
# Message layer                                                           #
# --------------------------------------------------------------------- #
def test_message_round_trip_through_ring(ring):
    vectors = np.arange(24, dtype=np.int64).reshape(4, 6)
    header = {"batch": 17, "name": "weights", "input_bits": 4}
    assert ring.push(encode_message(K_SUBMIT, header, [vectors]))
    payload = ring.peek()
    kind, decoded_header, arrays = decode_message(payload)
    assert kind == K_SUBMIT
    assert decoded_header == header
    assert np.array_equal(arrays[0], vectors)
    ring.advance()


def test_message_multiple_arrays_in_order(ring):
    statuses = np.zeros(3, dtype=np.uint8)
    results = np.ones((3, 5), dtype=np.int64)
    latency = np.full(3, 9, dtype=np.int64)
    assert ring.push(encode_message(
        K_RESULTS, {"batch": 1}, [statuses, results, latency]
    ))
    _, _, arrays = decode_message(ring.peek())
    assert [a.dtype for a in arrays] == [np.uint8, np.int64, np.int64]
    assert np.array_equal(arrays[1], results)
    ring.advance()


def test_message_malformed_header_raises():
    with pytest.raises(TransportError, match="malformed"):
        decode_message(memoryview(b"\x02\x00\xff\xff\xff\xff"))


def test_status_code_tables_are_inverse():
    assert STATUS_NAMES == {code: name for name, code in STATUS_CODES.items()}
    assert STATUS_CODES["completed"] == 0


# --------------------------------------------------------------------- #
# Heartbeat board                                                         #
# --------------------------------------------------------------------- #
def test_heartbeat_board_counts_beats_per_slot():
    board = HeartbeatBoard(num_slots=3)
    try:
        attached = HeartbeatBoard(name=board.name, create=False)
        try:
            assert attached.num_slots == 3
            for _ in range(5):
                attached.beat(1)
            beats, stamp = board.read(1)
            assert beats == 5
            assert stamp > 0.0
            assert board.read(0) == (0, 0.0)
            assert board.read(2) == (0, 0.0)
        finally:
            attached.close()
    finally:
        board.close()


# --------------------------------------------------------------------- #
# Edge cases: duplicates, sequence gaps, backpressure under load          #
# --------------------------------------------------------------------- #
def test_ring_duplicate_delivery_has_distinct_seqs(ring):
    """A duplicated frame arrives as two frames with *different* seqs.

    The ring's sequence number identifies commits, not messages, so a
    link-level dup is invisible at the transport layer -- which is why
    de-duplication lives in the message layer (worker reply cache keyed
    by batch id), not here.
    """
    from repro.runtime.cluster import TransportFaultInjector

    injector = TransportFaultInjector(kinds=None).attach(ring)
    injector.duplicate(1)
    assert push_bytes(ring, b"\x02dup-me")
    first = bytes(ring.peek())
    first_seq = ring.last_seq
    ring.advance()
    second = bytes(ring.peek())
    second_seq = ring.last_seq
    ring.advance()
    assert first == second == b"\x02dup-me"
    assert second_seq == first_seq + 1
    assert ring.peek() is None


def test_ring_seq_gap_observable_after_skip_past(ring):
    """Skip-past CRC recovery leaves a visible gap in ``last_seq``.

    The consumer that just caught a ``TransportError`` can tell exactly
    how many frames the channel lost by diffing the seq across the
    recovery, which is what turns silent corruption into an accounted
    drop.
    """
    from repro.runtime.cluster import TransportFaultInjector

    injector = TransportFaultInjector(seed=7, kinds=None).attach(ring)
    assert push_bytes(ring, b"\x02before")
    injector.corrupt(1)
    assert push_bytes(ring, b"\x02mangled-in-flight")
    assert push_bytes(ring, b"\x02after")

    assert bytes(ring.peek()) == b"\x02before"
    seq_before = ring.last_seq
    ring.advance()
    with pytest.raises(TransportError, match="CRC mismatch"):
        ring.peek()
    assert bytes(ring.peek()) == b"\x02after"
    assert ring.last_seq == seq_before + 2  # exactly one frame lost
    ring.advance()


def test_corrupt_fault_lands_before_the_frame_is_committed(ring, monkeypatch):
    """The seeded ``corrupt`` flip must not race the consumer.

    The consumer lives in another process and polls ``head``: whatever
    the producer does to a frame after ``_write_head`` can land between
    the consumer's CRC check and its read.  So at the commit point the
    stored CRC must already mismatch the payload.
    """
    from repro.runtime.cluster import TransportFaultInjector

    seen = []
    write_head = ring._write_head

    def committing(head, seq):
        # The frame about to be published starts at the old head.
        start = ring._read_ctrl()[0] % ring.capacity + _FRAME.size
        length, _, crc = _FRAME.unpack_from(ring._data, start - _FRAME.size)
        payload = bytes(ring._data[start: start + length])
        seen.append((payload, zlib.crc32(payload) == crc))
        write_head(head, seq)

    monkeypatch.setattr(ring, "_write_head", committing)
    injector = TransportFaultInjector(seed=7, kinds=None).attach(ring)
    assert push_bytes(ring, b"\x02clean")
    injector.corrupt(1)
    assert push_bytes(ring, b"\x02mangled-in-flight")
    assert [ok for _, ok in seen] == [True, False]
    assert seen[0][0] == b"\x02clean"
    assert seen[1][0] != b"\x02mangled-in-flight"
    assert injector.frames_corrupted == 1
    # What the consumer then reads is what was committed.
    assert ring.pop() == b"\x02clean"
    with pytest.raises(TransportError, match="CRC mismatch"):
        ring.peek()
    assert ring.peek() is None


def test_ring_backpressure_bounded_backoff_producer():
    """A producer that backs off on ``push() -> False`` loses nothing.

    Drives 64 frames through a ring sized for ~4 of them; every refusal
    is counted, the consumer drains between retries, and each frame
    arrives exactly once and in order -- backpressure is lossless and
    fair, just slow.
    """
    ring = ShmRing(capacity=1 << 8)
    try:
        delivered = []
        refusals = 0
        for index in range(64):
            payload = b"\x02" + index.to_bytes(2, "little") + b"x" * 29
            attempts = 0
            while not ring.push([payload]):
                refusals += 1
                attempts += 1
                assert attempts <= 8, "backoff did not bound itself"
                frame = ring.pop()  # "another thread" drains one frame
                assert frame is not None
                delivered.append(frame)
        while (frame := ring.pop()) is not None:
            delivered.append(frame)
        assert refusals > 0  # the ring really did push back
        assert len(delivered) == 64
        order = [int.from_bytes(frame[1:3], "little") for frame in delivered]
        assert order == list(range(64))
    finally:
        ring.close()


# --------------------------------------------------------------------- #
# Two processes: the counters are read while the other side writes them   #
# --------------------------------------------------------------------- #
STRESS_FRAMES = 200_000


def _stress_producer(name):
    """Push ``STRESS_FRAMES`` numbered frames, then one carrying the number
    of pushes the ring refused while it was under half full."""
    ring = ShmRing(name=name, create=False)
    refused_with_room = 0
    try:
        for index in range(STRESS_FRAMES + 1):
            value = index if index < STRESS_FRAMES else refused_with_room
            payload = value.to_bytes(8, "little") + bytes(192)
            while True:
                # Read before the push: only the consumer lowers occupancy,
                # so a refusal after this reading found no more queued.
                queued = len(ring)
                if ring.push([payload]):
                    break
                refused_with_room += queued < ring.capacity // 2
    finally:
        ring.close()


def test_ring_counters_never_tear_between_processes():
    """A consumer polling while the producer commits sees whole counters.

    ``head`` / ``tail`` / ``seq`` are 8-byte words one process writes while
    the other reads.  Stored byte by byte, a reader can combine old high
    bytes with new low bytes and see a counter *below* both values: the
    consumer then reports a ``truncated frame`` on a ring nobody damaged
    (about 1 % of frames), and the producer computes no free space on a
    ring that is nearly empty (``push`` -> ``False``, which the gateway
    turns into ``AdmissionError("every replica ... saturated")``).  Fixed
    work, and both counts must be exactly zero.
    """
    ring = ShmRing(capacity=1 << 22)
    producer = multiprocessing.get_context(START_METHOD).Process(
        target=_stress_producer, args=(ring.name,), daemon=True
    )
    producer.start()
    try:
        errors = received = 0
        refused_with_room = None
        deadline = time.monotonic() + 120.0
        while refused_with_room is None:
            try:
                payload = ring.peek()
            except TransportError:
                errors += 1
                payload = None
            if payload is None:
                assert time.monotonic() < deadline, \
                    f"producer stalled after {received} frames"
                continue
            value = int.from_bytes(payload[:8], "little")
            payload.release()
            if received < STRESS_FRAMES:
                assert value == received
            else:
                refused_with_room = value
            received += 1
            assert ring.last_seq == received & 0xFFFFFFFF
            ring.advance()
        producer.join(timeout=30.0)
        assert producer.exitcode == 0
        assert errors == 0
        assert refused_with_room == 0
    finally:
        if producer.is_alive():
            producer.terminate()
            producer.join(timeout=5.0)
        ring.close()
