"""Cluster transport tests: array codec, SPSC ring, wire protocol, doorbell.

Everything here but the two-process section is single-process -- the
ring's two ends are exercised from one test body, which is exactly the
SPSC contract (one producer, one consumer; they just happen to share a
thread here).  The two-process tests put the producer in a second process,
because what they check (a counter read while the other side writes it, a
consumer asleep on the doorbell while the other side commits) has no
single-process form.  Gateway-level behaviour lives in ``test_cluster.py``.
"""

import multiprocessing
import struct
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_message_without_arrays_or_extra_never_enters_json(monkeypatch):
    """SUBMIT / RESULTS headers live in the fixed prefix: no JSON either way."""
    from repro.runtime.cluster import messages

    def no_json(*args, **kwargs):
        raise AssertionError("json on the hot path")

    monkeypatch.setattr(messages.json, "dumps", no_json)
    monkeypatch.setattr(messages.json, "loads", no_json)
    header = {"batch": 3, "name": "weights", "input_bits": 4}
    parts = encode_message(K_SUBMIT, header, [np.zeros((2, 3), dtype=np.int64)])
    assert len(parts) == 3  # prefix, name + array table, one array
    assert decode_message(memoryview(b"".join(parts)))[1] == header
    reply = encode_message(K_RESULTS, {"batch": 3, "name": "weights"}, [
        np.zeros(2, dtype=np.uint8), np.zeros((2, 5), dtype=np.int64),
        np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.float64),
    ])
    assert len(reply) == 6
    assert parts[0][0] == K_SUBMIT and reply[0][0] == K_RESULTS  # the injector's byte


def test_message_slots_fall_back_to_extra():
    """A value its fixed slot cannot hold still round-trips (as ``extra``)."""
    for header in (
        {"batch": None, "name": None, "input_bits": None},
        {"batch": 1 << 70, "input_bits": -1},
        {"batch": True, "name": ["not", "a", "string"], "input_bits": 1 << 16},
        {"batch": -(1 << 63), "name": "", "input_bits": 0},
    ):
        payload = memoryview(b"".join(encode_message(K_SUBMIT, header)))
        assert decode_message(payload) == (K_SUBMIT, header, [])


def test_message_refuses_a_forged_table_shape():
    """The ``2**32 x 2**32`` shape is refused at the message level too."""
    parts = [bytes(part) for part in encode_message(
        K_SUBMIT, {"batch": 1, "name": "w"}, [np.zeros((1, 1), dtype=np.int64)])]
    honest = struct.pack("<2Q", 1, 1)
    assert parts[1].count(honest) == 1
    parts[1] = parts[1].replace(honest, struct.pack("<2Q", 1 << 32, 1 << 32))
    with pytest.raises(TransportError, match="left in the frame"):
        decode_message(memoryview(b"".join(parts)))


def test_message_extra_must_be_a_json_object():
    from repro.runtime.cluster.messages import _PREFIX

    for blob in (b"[1,2]", b"7", b"{not json"):
        frame = _PREFIX.pack(K_RESULTS, 0, 0, 0, 0, 0, len(blob), 0, 0) + blob
        with pytest.raises(TransportError, match="malformed message frame"):
            decode_message(memoryview(frame))
    # A header that claims more bytes than the frame has.
    frame = _PREFIX.pack(K_RESULTS, 0, 2, 0, 40, 0, 0, 0, 0) + b"short"
    with pytest.raises(TransportError, match="header ends at byte"):
        decode_message(memoryview(frame))


def test_status_code_tables_are_inverse():
    assert STATUS_NAMES == {code: name for name, code in STATUS_CODES.items()}
    assert STATUS_CODES["completed"] == 0


# --------------------------------------------------------------------- #
# Codec properties                                                        #
# --------------------------------------------------------------------- #
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
#: Headers as the code base builds them: the three slotted keys (each
#: optional, ``None`` included -- ERROR replies send it), extras on top.
HEADERS = st.builds(
    lambda extras, slotted: {**extras, **slotted},
    st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3),
    st.fixed_dictionaries({}, optional={
        "batch": st.none() | st.integers(-(1 << 63), (1 << 63) - 1),
        "name": st.none() | st.text(max_size=12),
        "input_bits": st.integers(0, 64),
    }),
)
SHAPES = st.lists(st.integers(0, 4), max_size=3).map(tuple)


@st.composite
def array_lists(draw):
    arrays = []
    for _ in range(draw(st.integers(0, 6))):
        dtype = np.dtype(draw(st.sampled_from(ALL_DTYPES)))
        shape = draw(SHAPES)
        raw = np.random.default_rng(draw(st.integers(0, 1 << 16))).bytes(
            int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        arrays.append(np.frombuffer(raw, dtype=dtype).reshape(shape))
    return arrays


@settings(max_examples=150)
@given(kind=st.integers(0, 255), header=HEADERS, arrays=array_lists())
def test_message_round_trip_property(kind, header, arrays):
    """Any header, 0-6 arrays of mixed dtype and shape (empty and 0-d ones
    included): the decoded dict is *equal* -- no ``trace``, no defaulted
    key -- and every array comes back bit for bit."""
    payload = memoryview(b"".join(
        bytes(part) for part in encode_message(kind, header, arrays)))
    decoded_kind, decoded_header, decoded = decode_message(payload)
    assert decoded_kind == kind
    assert decoded_header == header
    assert len(decoded) == len(arrays)
    for got, sent in zip(decoded, arrays):
        assert (got.dtype, got.shape) == (sent.dtype, sent.shape)
        assert got.tobytes() == sent.tobytes()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # numpy, on odd dtype strings
@settings(max_examples=25)
@given(header=HEADERS, arrays=array_lists())
def test_damaged_frames_decode_or_raise_transport_error(header, arrays):
    """No CRC in front: every truncation and every single-bit flip of a valid
    payload either decodes or raises ``TransportError`` -- nothing else may
    reach the loop that called ``decode_message``."""
    frame = b"".join(bytes(part) for part in encode_message(K_RESULTS, header, arrays))
    damaged = [frame[:cut] for cut in range(len(frame))]
    for index in range(len(frame)):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[index] ^= 1 << bit
            damaged.append(bytes(flipped))
    for payload in damaged:
        try:
            decode_message(memoryview(payload))
        except TransportError:
            pass


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


def test_peek_makes_progress_past_a_frame_that_runs_over_the_head(ring):
    """A consumer may loop on ``peek`` until ``None``: damage it cannot step
    over costs what is committed, not the loop."""
    push_bytes(ring, b"frame")
    push_bytes(ring, b"behind it")
    struct.pack_into("<I", ring._data, 0, 10_000)
    with pytest.raises(TransportError, match="truncated"):
        ring.peek()
    assert ring.peek() is None
    assert push_bytes(ring, b"after") and ring.pop() == b"after"


# --------------------------------------------------------------------- #
# Doorbell                                                                #
# --------------------------------------------------------------------- #
@pytest.fixture
def belled_ring():
    from repro.runtime.cluster.transport import Doorbell

    ring = ShmRing(capacity=1 << 14, bell=Doorbell())
    yield ring
    ring.close()


def test_bell_rung_before_the_wait_is_not_lost(belled_ring):
    bell = belled_ring.bell
    assert bell.wait(0.0) is False  # silent until a frame is committed
    assert push_bytes(belled_ring, b"early") and push_bytes(belled_ring, b"twice")
    assert bell.wait(0.0) is True  # rung before anyone waited: still heard
    assert bell.wait(0.0) is False  # ... once: the wait cleared it
    assert belled_ring.pop() == b"early"


def test_bell_rings_after_the_commit_not_before(belled_ring, monkeypatch):
    """The producer's half of the order: a consumer woken by a ring that came
    *before* the commit could clear it, find the ring empty and sleep through
    the frame.  At the commit point the bell must still be silent."""
    rung_at_commit = []
    write_head = belled_ring._write_head

    def committing(head, seq):
        rung_at_commit.append(belled_ring.bell.wait(0.0))
        write_head(head, seq)

    monkeypatch.setattr(belled_ring, "_write_head", committing)
    assert push_bytes(belled_ring, b"frame")
    assert rung_at_commit == [False]
    assert belled_ring.bell.wait(0.0) is True


def test_bell_wakes_a_blocked_consumer_on_the_next_push(belled_ring):
    woke = []
    consumer = threading.Thread(
        target=lambda: woke.append((belled_ring.bell.wait(30.0), belled_ring.pop())))
    consumer.start()
    time.sleep(0.05)  # let it block
    assert not woke
    assert push_bytes(belled_ring, b"wake up")
    consumer.join(timeout=10.0)
    assert woke == [(True, b"wake up")]


def test_bell_survives_more_rings_than_the_pipe_holds(belled_ring):
    """A full pipe drops the ring, not the producer: nothing blocks, and the
    consumer still hears that there is something to read."""
    for _ in range(70_000):  # the pipe holds 65 536
        belled_ring.bell.ring()
    assert belled_ring.bell.wait(0.0) is True
    assert belled_ring.bell.wait(0.0) is False


def test_closing_a_ring_closes_its_bell():
    import os

    from repro.runtime.cluster.transport import Doorbell

    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    ShmRing(capacity=1 << 12).close()  # the resource tracker's pipe, once
    before = open_descriptors()
    ring = ShmRing(capacity=1 << 12, bell=Doorbell())
    assert open_descriptors() > before
    ring.close()
    assert open_descriptors() == before


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


def _bell_producer(name, bell):
    """Push ``STRESS_FRAMES`` numbered frames; spin while the ring is full."""
    ring = ShmRing(name=name, create=False, bell=bell)
    try:
        for index in range(STRESS_FRAMES):
            payload = index.to_bytes(8, "little") + bytes(192)
            while not ring.push([payload]):
                pass
    finally:
        ring.close()


def test_bell_never_loses_a_wakeup_between_processes(belled_ring):
    """The consumer *only* ever blocks on the bell: fixed work, and the
    timeout must fire exactly never.

    A 16 KiB ring holds about 80 of these frames, so the producer keeps
    finding it full (it then spins without ringing) and the consumer keeps
    finding it empty (it then sleeps): a commit that is not followed by a
    ring leaves the two waiting for each other until the timeout (with the
    ring removed from ``push_frame`` this stops at 77 frames).  The order
    *within* a push is a microsecond-wide race this load rarely hits; the
    single-process test above pins it instead.
    """
    ring = belled_ring
    producer = multiprocessing.get_context(START_METHOD).Process(
        target=_bell_producer, args=(ring.name, ring.bell), daemon=True
    )
    producer.start()
    try:
        received = timeouts = 0
        while received < STRESS_FRAMES and not timeouts:
            timeouts += not ring.bell.wait(20.0)
            while (payload := ring.peek()) is not None:
                assert int.from_bytes(payload[:8], "little") == received
                payload.release()
                received += 1
                assert ring.last_seq == received & 0xFFFFFFFF
                ring.advance()
        assert (received, timeouts) == (STRESS_FRAMES, 0)
        producer.join(timeout=30.0)
        assert producer.exitcode == 0
    finally:
        if producer.is_alive():
            producer.terminate()
            producer.join(timeout=5.0)
