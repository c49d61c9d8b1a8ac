"""End-to-end cluster tests: gateway + worker processes over shm rings.

Every test but the last two classes spawns real worker processes (fork
start method where the platform has it) against the small chip
configuration, so the whole suite stays in CI-friendly territory while
exercising the actual process boundary: registration fan-out, zero-copy
submission, failover, backpressure, and graceful drain/restart.
``TestReplicaOrder`` and the classes after it script an un-started gateway
instead: routing order, control timeouts, what a reply frame does to its
batch and what a wave's responses are need no processes.
"""

import asyncio
import hashlib
import itertools
import os
import signal

import numpy as np
import pytest

from repro.core.config import ChipConfig, HctConfig
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    ClusterError,
    ExecutionError,
    QuantizationError,
    ReproError,
)
from repro.runtime.cluster import ClusterGateway, ShmRing
from repro.runtime.cluster import gateway as gateway_module
from repro.runtime.cluster.gateway import _MatrixRecord, _PendingBatch
from repro.runtime.cluster.messages import (
    K_ERROR,
    K_REGISTERED,
    K_RESULTS,
    K_SUBMIT,
    decode_message,
    encode_message,
)
from repro.runtime.cluster.worker import WorkerState, _handle
from repro.runtime.pool import DevicePool
from repro.runtime.scheduling import StaticBatchingPolicy
from repro.runtime.server import PumServer

RNG = np.random.default_rng(11)
MATRIX = RNG.integers(-8, 8, size=(24, 16), dtype=np.int64)
TRACE = RNG.integers(0, 16, size=(40, 24), dtype=np.int64)


def run(coroutine):
    return asyncio.run(coroutine)


def gateway(**kwargs):
    kwargs.setdefault("chip", "small")
    kwargs.setdefault("num_workers", 2)
    return ClusterGateway(**kwargs)


def local_server(num_devices=1):
    pool = DevicePool(
        num_devices=num_devices,
        config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
    )
    return PumServer(pool=pool, queue_capacity=4096)


# --------------------------------------------------------------------- #
# Correctness                                                             #
# --------------------------------------------------------------------- #
def test_results_bit_identical_to_single_server():
    """The cluster answer equals a single-process PumServer's, bit for bit."""

    async def cluster_trace():
        async with gateway(replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = await gw.submit_batch("w", TRACE)
            responses = await asyncio.gather(*futures)
            assert all(r.ok for r in responses), \
                [r.error for r in responses if not r.ok]
            return np.stack([r.result for r in responses])

    cluster = run(cluster_trace())
    server = local_server()
    server.register_matrix("w", MATRIX)
    futures = server.submit_batch("w", TRACE)
    server.run_until_idle()
    local = np.stack([f.result().result for f in futures])
    assert np.array_equal(cluster, local)


def test_submit_single_vector():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            future = await gw.submit("w", TRACE[0])
            response = await future
            assert response.ok
            assert response.worker_id == 0
            assert response.latency_ticks >= 0
            return response.result

    result = run(scenario())
    server = local_server()
    server.register_matrix("w", MATRIX)
    future = server.submit("w", TRACE[0])
    server.run_until_idle()
    assert np.array_equal(result, future.result().result)


def test_responses_preserve_row_order_and_ids():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = await gw.submit_batch("w", TRACE[:10])
            responses = await asyncio.gather(*futures)
            assert [r.request_id for r in responses] == list(range(10))
            assert all(r.name == "w" for r in responses)

    run(scenario())


# --------------------------------------------------------------------- #
# Placement and registration                                              #
# --------------------------------------------------------------------- #
def test_registration_reuse_is_noop():
    async def scenario():
        async with gateway(replication=2) as gw:
            first = await gw.register_matrix("w", MATRIX)
            again = await gw.register_matrix("w", MATRIX.copy())
            assert first == again
            assert gw.stats.registration_reuses == 1
            # Different bytes re-place and re-program.
            await gw.register_matrix("w", MATRIX + 1)
            assert gw.stats.registration_reuses == 1

    run(scenario())


def test_placement_is_content_deterministic():
    """Rendezvous placement depends only on matrix bytes, not call order."""

    async def placements(names):
        async with gateway(num_workers=2, replication=1, num_hcts=9) as gw:
            result = {}
            for name, offset in names:
                await gw.register_matrix(name, MATRIX + offset)
                result[name] = gw.placement_of(name)
            return result

    forward = run(placements([("a", 0), ("b", 1), ("c", 2)]))
    reverse = run(placements([("c", 2), ("b", 1), ("a", 0)]))
    assert forward == reverse


def test_unregistered_name_is_rejected():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            with pytest.raises(AdmissionError, match="no matrix registered"):
                await gw.submit_batch("ghost", TRACE[:2])

    run(scenario())


def test_plan_handle_crosses_the_wire():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            handle = gw.plan_handle("w")
            assert handle.shape == MATRIX.shape
            assert handle.predicted_cycles(8) > handle.predicted_cycles(1) > 0

    run(scenario())


# --------------------------------------------------------------------- #
# Failure handling                                                        #
# --------------------------------------------------------------------- #
def test_bad_vectors_fail_their_batch_not_the_worker():
    """An out-of-range batch resolves failed; the worker keeps serving."""

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            bad = np.full((3, 24), 999, dtype=np.int64)  # >= 2**8
            futures = await gw.submit_batch("w", bad)
            responses = await asyncio.gather(*futures)
            assert [r.status for r in responses] == ["failed"] * 3
            assert all("QuantizationError" in r.error for r in responses)
            # Floats are refused at the gateway, which would otherwise cast
            # (truncate) them before the worker's server saw the dtype.
            with pytest.raises(QuantizationError, match="must be integers"):
                await gw.submit_batch("w", TRACE[:2] + 0.5)
            with pytest.raises(QuantizationError, match="must be integers"):
                await gw.submit("w", TRACE[0].astype(np.float64))
            # The worker survived and still serves good traffic.
            futures = await gw.submit_batch("w", TRACE[:4])
            responses = await asyncio.gather(*futures)
            assert all(r.ok for r in responses)

    run(scenario())


def test_killed_worker_retries_on_replica_without_losing_futures():
    """Chaos: SIGKILL one holder under load; replicas absorb everything."""

    async def scenario():
        async with gateway(replication=2, heartbeat_interval=0.02) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = []
            rng = np.random.default_rng(5)
            for wave in range(25):
                vectors = rng.integers(0, 16, size=(8, 24), dtype=np.int64)
                futures.extend(await gw.submit_batch("w", vectors))
                if wave == 4:
                    os.kill(gw._workers[0].process.pid, signal.SIGKILL)
                await asyncio.sleep(0.002)
            responses = await asyncio.gather(*futures)
            assert len(responses) == 25 * 8  # every future resolved
            assert all(r.ok for r in responses)
            stats = gw.stats.snapshot()
            assert stats["worker_failures"] == 1
            assert stats["retried_batches"] >= 1
            status = gw.worker_status()
            assert status[0]["alive"] is False
            assert status[1]["alive"] is True

    run(scenario())


def test_killed_worker_without_replica_resolves_failed():
    """With replication=1 the stranded futures fail -- but never hang."""

    async def scenario():
        async with gateway(replication=1, heartbeat_interval=0.02) as gw:
            await gw.register_matrix("w", MATRIX)
            holder = gw.placement_of("w")[0]
            futures = await gw.submit_batch("w", TRACE[:16])
            os.kill(gw._workers[holder].process.pid, signal.SIGKILL)
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            assert len(responses) == 16
            for response in responses:
                assert response.status in ("completed", "failed")
            # Later traffic for the dead placement is shed to the caller.
            deadline = asyncio.get_running_loop().time() + 30
            while True:
                try:
                    await gw.submit_batch("w", TRACE[:2])
                except AdmissionError:
                    break
                assert asyncio.get_running_loop().time() < deadline

    run(scenario())


# --------------------------------------------------------------------- #
# Backpressure                                                            #
# --------------------------------------------------------------------- #
def test_saturated_windows_shed_to_caller():
    async def scenario():
        async with gateway(num_workers=1, inflight_window=4) as gw:
            await gw.register_matrix("w", MATRIX)
            admitted, shed = [], 0
            for _ in range(10):
                try:
                    admitted.extend(await gw.submit_batch("w", TRACE[:2]))
                except AdmissionError:
                    shed += 1
            assert shed > 0
            assert gw.stats.shed == shed * 2
            responses = await asyncio.gather(*admitted)
            assert all(r.ok for r in responses)

    run(scenario())


def test_batch_larger_than_window_is_rejected_upfront():
    async def scenario():
        async with gateway(num_workers=1, inflight_window=4) as gw:
            await gw.register_matrix("w", MATRIX)
            with pytest.raises(AdmissionError, match="inflight window"):
                await gw.submit_batch("w", TRACE[:8])

    run(scenario())


# --------------------------------------------------------------------- #
# Drain and restart                                                       #
# --------------------------------------------------------------------- #
def test_graceful_drain_returns_worker_stats():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = await gw.submit_batch("w", TRACE[:6])
            stats = await gw.drain_worker(0)
            # Drain waited for the inflight window to empty first.
            assert all(future.done() for future in futures)
            assert stats["completed"] == 6.0
            assert stats["batches"] >= 1.0

    run(scenario())


def test_restart_worker_keeps_serving_without_losing_futures():
    async def scenario():
        async with gateway(num_workers=2, replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            before = await gw.submit_batch("w", TRACE[:8])
            await gw.restart_worker(0)
            assert all(future.done() for future in before)
            resolved = await asyncio.gather(*before)
            assert all(r.ok for r in resolved)
            # The restarted worker was re-registered and serves again.
            after = await asyncio.gather(
                *await gw.submit_batch("w", TRACE[8:16])
            )
            assert all(r.ok for r in after)
            assert gw.stats.restarts == 1
            assert gw.worker_status()[0]["alive"] is True

    run(scenario())


def test_submitting_after_close_raises():
    async def scenario():
        gw = gateway(num_workers=1)
        async with gw:
            await gw.register_matrix("w", MATRIX)
        with pytest.raises(ClusterError, match="not running"):
            await gw.submit_batch("w", TRACE[:2])

    run(scenario())


# --------------------------------------------------------------------- #
# Wakeups: a doorbell, not a poll timer                                   #
# --------------------------------------------------------------------- #
def test_idle_worker_beats_on_the_heartbeat_period_not_a_poll_timer():
    """With nothing submitted a worker wakes to beat, and for nothing else."""
    period, window = 0.05, 0.3

    async def scenario():
        async with gateway(num_workers=1, heartbeat_interval=period) as gw:
            await asyncio.sleep(0.1)  # READY is long answered: the worker is idle
            before, _ = gw._board.read(0)
            await asyncio.sleep(window)
            after, _ = gw._board.read(0)
            return after - before

    assert run(scenario()) <= window / period + 2


def test_round_trip_under_the_spawn_start_method(monkeypatch):
    """Rings, board and both doorbells reach a *spawned* worker too."""
    monkeypatch.setattr(gateway_module, "START_METHOD", "spawn")

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            responses = await asyncio.wait_for(
                asyncio.gather(*await gw.submit_batch("w", TRACE[:16])), timeout=60
            )
            return np.stack([r.result for r in responses])

    assert np.array_equal(run(scenario()), TRACE[:16] @ MATRIX)


def test_close_and_restart_leave_no_descriptor_or_reader_behind():
    """``close()`` gives back every pipe end, segment and loop registration:
    20 start/close cycles and a restart end where they began."""

    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    async def scenario():
        loop = asyncio.get_running_loop()
        readers = len(loop._selector.get_map())
        counts = []
        for cycle in range(21):
            gw = gateway(num_workers=2)
            await gw.start()
            if cycle == 20:
                await gw.restart_worker(0)
                assert len(loop._selector.get_map()) == readers + 2
            await gw.close()
            del gw
            assert len(loop._selector.get_map()) == readers
            counts.append(open_descriptors())
        # The first cycle starts what lives as long as the process does (the
        # shared-memory resource tracker and its pipe); after it, nothing grows.
        assert counts[1:] == counts[:1] * 20, counts

    run(scenario())


def test_live_gateway_survives_a_malformed_results_frame():
    """A CRC-valid RESULTS frame with three arrays fails *its batch*; the
    replies behind it still resolve and ``close()`` still releases the rings."""

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            worker = gw._workers[0]
            # While the worker sleeps ahead of the batch it pushes nothing, so
            # the test may stand in as the reply ring's one producer.
            await gw.induce_straggler(0, batches=1, seconds=0.4)
            batch_id = gw._next_batch
            forged = await gw.submit_batch("w", TRACE[:2])
            assert worker.replies.push(encode_message(
                K_RESULTS, {"batch": batch_id, "name": "w"},
                [np.zeros(2, dtype=np.uint8), np.zeros((2, 16), dtype=np.int64),
                 np.zeros(2, dtype=np.int64)],
            ))
            responses = await asyncio.wait_for(asyncio.gather(*forged), timeout=5)
            assert [r.status for r in responses] == ["failed"] * 2
            assert all("malformed RESULTS" in r.error for r in responses)
            good = await asyncio.wait_for(
                asyncio.gather(*await gw.submit_batch("w", TRACE[:4])), timeout=5
            )
            assert all(r.ok for r in good)
            assert gw.stats.transport_errors == 1
            # The straggler's own, late answer to the forged batch: a duplicate.
            assert gw.stats.duplicate_replies == 1

    run(scenario())


# --------------------------------------------------------------------- #
# Configuration validation                                                #
# --------------------------------------------------------------------- #
def test_invalid_configuration_is_rejected():
    with pytest.raises(ClusterError, match="at least one worker"):
        ClusterGateway(num_workers=0)
    with pytest.raises(ClusterError, match="replication"):
        ClusterGateway(num_workers=2, replication=3)
    with pytest.raises(ClusterError, match="inflight_window"):
        ClusterGateway(num_workers=1, inflight_window=0)


# --------------------------------------------------------------------- #
# Replica order, pinned (no processes)                                    #
# --------------------------------------------------------------------- #
class _StubRing:
    """A request ring that accepts or refuses every frame, and counts them."""

    def __init__(self, accepts):
        self.accepts = accepts
        self.pushes = 0

    def push(self, parts):
        self.pushes += 1
        return self.accepts

    def close(self):
        pass


class _StubHandle:
    def predicted_cycles(self, n):
        return 10.0 * n


class TestReplicaOrder:
    """Which replica a batch is offered to, in what order, pinned.

    An un-started three-worker gateway with scripted worker state: per case
    ``alive`` x breaker tripped x ``outstanding_cycles`` x ring full, then one
    ``submit_batch``, or ``_retry`` / ``_hedge`` of a batch with a scripted
    ``attempted`` set -- 8 448 cases.  ``EXPECTED`` hashes, per case, the
    order in which ``_dispatch`` was offered workers (a worker offered the
    same batch again counted once), the worker that took the batch, the
    retry / hedge / shed counters, the exception and the parked count; it was
    computed at the commit before the gateway's three sort blocks became
    ``_replicas`` (``ff67030``) and must not move.
    """

    PLACEMENT = [2, 0, 1]
    FLAGS = list(itertools.product([False, True], repeat=3))
    CYCLES = [(0.0, 0.0, 0.0), (5.0, 1.0, 3.0), (2.0, 2.0, 1.0)]
    RING_FULL = [(), (2,), (2, 0), (0, 1, 2)]
    ATTEMPTED = [(), (2,), (0,), (2, 0), (0, 1, 2)]
    EXPECTED = (
        "1d8187220b1021737352c1824cd5fad49693cf7240f895da36c1e3df9cfaa323"
    )

    def scripted_gateway(self, alive, tripped, cycles, ring_full):
        gw = ClusterGateway(num_workers=3, replication=3, batch_timeout=1.0,
                            breaker_cooldown=30.0)
        gw._started = True
        for worker in gw._workers:
            index = worker.worker_id
            worker.alive = alive[index]
            worker.requests = _StubRing(accepts=index not in ring_full)
            worker.outstanding_cycles = cycles[index]
            worker.plan_handles["m"] = _StubHandle()
            if tripped[index]:
                worker.breaker.record_failure()
                worker.breaker.record_failure()
                assert not worker.breaker.allows()
        gw._matrices["m"] = _MatrixRecord(
            fingerprint=("digest",), matrix=np.zeros((4, 4), dtype=np.int64),
            element_size=8, precision=0, input_bits=8,
            placement=list(self.PLACEMENT),
        )
        offered = []
        dispatch = gw._dispatch

        def logging_dispatch(worker, batch):
            offered.append(worker.worker_id)
            return dispatch(worker, batch)

        gw._dispatch = logging_dispatch
        return gw, offered

    async def drive(self, gw, op, attempted):
        """Run one routing call; returns ``(taken_by, exception)``."""
        vectors = np.ones((2, 4), dtype=np.int64)
        if op == "submit":
            try:
                await gw.submit_batch("m", vectors)
            except AdmissionError as exc:
                detail = sorted(exc.worker_ids) \
                    if isinstance(exc, CircuitOpenError) else str(exc)
                return -1, (type(exc).__name__, detail)
            taken = [worker.worker_id for worker in gw._workers
                     if worker.pending]
            return taken[0], None
        loop = asyncio.get_running_loop()
        batch = _PendingBatch(
            batch_id=7, name="m", input_bits=8, vectors=vectors,
            futures=[loop.create_future() for _ in range(2)],
            request_ids=[0, 1], worker_id=-1, cost=20.0,
            attempted=set(attempted),
        )
        if op == "retry":
            assert gw._retry(batch) == (batch.worker_id >= 0)
        else:
            gw._hedge(batch)
        for future in batch.futures:
            future.cancel()
        return batch.worker_id, None

    async def all_cases(self):
        """Yield ``(case, gateway, offered, taken_by, exception)``."""
        for alive, tripped, cycles, ring_full in itertools.product(
                self.FLAGS, self.FLAGS, self.CYCLES, self.RING_FULL):
            calls = [("submit", ())] + [
                (op, attempted) for attempted in self.ATTEMPTED
                for op in ("retry", "hedge")
            ]
            for op, attempted in calls:
                gw, offered = self.scripted_gateway(
                    alive, tripped, cycles, ring_full)
                taken, error = await self.drive(gw, op, attempted)
                case = (alive, tripped, cycles, ring_full, op, attempted)
                yield case, gw, offered, taken, error

    def test_offer_order_is_unchanged(self):
        async def digest():
            sha, cases = hashlib.sha256(), 0
            async for case, gw, offered, taken, error in self.all_cases():
                cases += 1
                stats = gw.stats
                sha.update(repr((
                    case, list(dict.fromkeys(offered)), taken, error,
                    stats.retried_batches, stats.hedged_batches, stats.shed,
                    stats.submitted, stats.batches, len(gw._parked),
                )).encode())
            return cases, sha.hexdigest()

        assert run(digest()) == (8448, self.EXPECTED)

    def test_a_few_rows_by_hand(self):
        """The rank, spelled out: breaker refuses, then already tried, then
        outstanding cycles; placement order breaks ties."""
        healthy, none = (True, True, True), (False, False, False)

        async def offers(op, attempted, tripped=none, cycles=(0.0, 0.0, 0.0)):
            gw, offered = self.scripted_gateway(
                healthy, tripped, cycles, ring_full=(0, 1, 2))
            await self.drive(gw, op, attempted)
            return list(dict.fromkeys(offered))

        async def scenario():
            assert await offers("submit", ()) == [2, 0, 1]
            assert await offers("submit", (), cycles=(5.0, 1.0, 3.0)) == [1, 2, 0]
            assert await offers("submit", (), tripped=(False, False, True)) == [0, 1]
            assert await offers("retry", (2,)) == [0, 1]
            assert await offers("retry", (0,), tripped=(False, True, False)) == [2, 1]
            assert await offers("hedge", (2,)) == [0, 1, 2]
            assert await offers("hedge", (2,), tripped=(True, False, False)) == [1, 2, 0]

        run(scenario())

    def test_hedge_offers_each_ring_the_batch_once(self):
        """A ring that just refused the frame is not offered it again."""

        async def scenario():
            async for case, gw, _, _, _ in self.all_cases():
                if case[4] == "hedge":
                    pushes = [w.requests.pushes for w in gw._workers]
                    assert max(pushes) <= 1, (case, pushes)

        run(scenario())


# --------------------------------------------------------------------- #
# Control round trips, typed (no processes)                               #
# --------------------------------------------------------------------- #
class TestControlRoundTrip:
    """A control request that gets no answer raises ``ClusterError``."""

    def silent_gateway(self, monkeypatch, accepts):
        monkeypatch.setattr(gateway_module, "CONTROL_TIMEOUT", 0.05)
        gw = ClusterGateway(num_workers=1)
        gw._started = True
        gw._workers[0].alive = True
        gw._workers[0].requests = _StubRing(accepts=accepts)
        return gw

    def test_an_unanswered_request_times_out_typed(self, monkeypatch):
        gw = self.silent_gateway(monkeypatch, accepts=True)

        async def scenario():
            with pytest.raises(ClusterError, match="worker 0 .*DRAIN"):
                await gw.drain_worker(0)
            with pytest.raises(ClusterError, match="worker 0 .*STRAGGLE"):
                await gw.induce_straggler(0)
            assert gw._workers[0].requests.pushes == 2
            assert gw._control == {}

        run(scenario())

    def test_a_refused_push_leaves_no_expectation_behind(self, monkeypatch):
        gw = self.silent_gateway(monkeypatch, accepts=False)

        async def scenario():
            with pytest.raises(ClusterError, match="ring is full"):
                await gw.drain_worker(0)
            assert gw._control == {}
            with pytest.raises(ClusterError, match="ring is full"):
                await gw.induce_straggler(0)
            assert gw._control == {}

        run(scenario())


# --------------------------------------------------------------------- #
# Reply frames against a scripted gateway (no processes)                  #
# --------------------------------------------------------------------- #
def scripted_worker(gw, handle=None):
    """Script ``gw``'s worker 0 as alive, holding ``"m"``, its request ring a
    stub (every SUBMIT is accepted and goes nowhere)."""
    gw._started = True
    worker = gw._workers[0]
    worker.alive = True
    worker.requests = _StubRing(accepts=True)
    worker.plan_handles["m"] = handle if handle is not None else _StubHandle()
    gw._matrices["m"] = _MatrixRecord(
        fingerprint=("digest",), matrix=MATRIX, element_size=8, precision=0,
        input_bits=8, placement=[0],
    )
    return worker


def results_frame(batch, rows, cols=16, **extra):
    return encode_message(K_RESULTS, {"batch": batch, "name": "m", **extra}, [
        np.zeros(rows, dtype=np.uint8), np.ones((rows, cols), dtype=np.int64),
        np.full(rows, 2, dtype=np.int64), np.full(rows, 0.5, dtype=np.float64),
    ])


class TestMalformedReplies:
    """A reply that passes its CRC and is still not what it says: its batch
    fails (when it names one), the reader carries on, nothing leaks."""

    def test_forged_frames_fail_their_batch_and_a_good_frame_still_resolves(self):
        from repro.runtime.cluster.messages import _PREFIX
        from repro.runtime.cluster.transport import Doorbell

        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _, context: reported.append(context))
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw)
            worker.replies = ShmRing(capacity=1 << 16, bell=Doorbell())
            loop.add_reader(worker.replies.bell, gw._on_bell, worker)
            try:
                forged = {
                    "three arrays": encode_message(
                        K_RESULTS, {"batch": 0, "name": "m"},
                        [np.zeros(2, dtype=np.uint8), np.ones((2, 16), dtype=np.int64),
                         np.zeros(2, dtype=np.int64)]),
                    "one row for two requests": results_frame(1, 1),
                    "results not a matrix": encode_message(
                        K_RESULTS, {"batch": 2, "name": "m"},
                        [np.zeros(2, dtype=np.uint8), np.ones(2, dtype=np.int64),
                         np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.float64)]),
                    "errors not an object": results_frame(3, 2, errors=["boom"]),
                }
                for batch_id, (what, frame) in enumerate(forged.items()):
                    futures = await gw.submit_batch("m", TRACE[:2])
                    assert worker.replies.push(frame)
                    responses = await asyncio.wait_for(asyncio.gather(*futures), 5)
                    assert [r.status for r in responses] == ["failed"] * 2, what
                    assert all("malformed RESULTS" in r.error for r in responses)
                    assert gw.stats.transport_errors == batch_id + 1
                assert worker.inflight == 0 and not worker.pending
                # Frames that name no batch: the codec's (``extra`` is a JSON
                # list) and the handler's (REGISTERED without a handle).
                blob = b"[1]"
                assert worker.replies.push(
                    [_PREFIX.pack(K_RESULTS, 0, 0, 0, 0, 0, len(blob), 0, 0), blob])
                assert worker.replies.push(encode_message(K_REGISTERED, {"name": "m"}))
                futures = await gw.submit_batch("m", TRACE[:2])
                assert worker.replies.push(results_frame(4, 2))
                responses = await asyncio.wait_for(asyncio.gather(*futures), 5)
                assert all(r.ok and r.result.tolist() == [1] * 16 for r in responses)
                assert gw.stats.transport_errors == 6
                assert [type(c["exception"]) for c in reported] == [KeyError]
                assert gw.stats.failed == 8 and gw.stats.completed == 2
            finally:
                await gw.close()
            assert worker.replies is None

        run(scenario())

    def test_close_releases_the_transport_whatever_a_task_died_of(self):
        from repro.runtime.cluster.transport import Doorbell

        async def scenario():
            gw = ClusterGateway(num_workers=1)
            ring = ShmRing(capacity=1 << 12, bell=Doorbell())
            scripted_worker(gw).replies = ring

            async def dies():
                raise ValueError("not enough values to unpack")

            gw._tasks = [asyncio.create_task(dies())]
            await asyncio.sleep(0)
            await gw.close()  # does not re-raise, and gets as far as the rings
            assert ring._data is None

        run(scenario())


class TestErrorRepliesNameTheirBatch:
    """An ERROR reply that loses its batch id strands the batch's riders."""

    def test_a_submit_that_names_no_matrix_is_a_typed_error(self):
        server = local_server()
        server.register_matrix("w", MATRIX)
        with pytest.raises(ReproError, match="no matrix registered"):
            _handle(server, K_SUBMIT, {"batch": 3, "input_bits": 8}, [TRACE[:2]])

    def test_the_batch_id_rides_from_the_prefix_to_the_riders(self):
        from repro.runtime.cluster.worker import _answer

        server = local_server()
        server.register_matrix("w", MATRIX)
        nameless = b"".join(bytes(part) for part in encode_message(
            K_SUBMIT, {"batch": 0, "input_bits": 8}, [TRACE[:2]]))
        # Its prefix decodes and nothing after it does: the array table names
        # a dtype NumPy has never heard of.
        garbled = b"".join(bytes(part) for part in encode_message(
            K_SUBMIT, {"batch": 1, "name": "w", "input_bits": 8}, [TRACE[:2]]
        )).replace(b"<i8", b"<zz", 1)
        replies = [_answer(server, memoryview(frame), lambda: None, WorkerState())
                   for frame in (nameless, garbled)]
        for batch_id, reply, error in zip(
                (0, 1), replies, ("AdmissionError", "TransportError")):
            kind, header, _ = decode_message(memoryview(b"".join(reply)))
            assert (kind, header["batch"]) == (K_ERROR, batch_id)
            assert header["error"].startswith(error)
            assert "trace" not in header  # typed, not the catch-all

        async def scenario():
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw)
            riders = [await gw.submit_batch("m", TRACE[:2]) for _ in replies]
            for reply in replies:
                gw._on_reply(worker, *decode_message(memoryview(b"".join(reply))))
            return [[future.result() for future in futures] for futures in riders]

        for responses, error in zip(run(scenario()), ("AdmissionError", "TransportError")):
            assert [r.status for r in responses] == ["failed"] * 2
            assert all(r.error.startswith(error) for r in responses)


def test_hedge_jitter_is_seeded_by_batch_and_attempt(monkeypatch):
    """A pure function of ``(batch_id, attempt)`` inside ``[timeout, 1.1 x
    timeout]`` -- no generator built per dispatch."""
    monkeypatch.setattr(gateway_module.time, "monotonic", lambda: 100.0)
    monkeypatch.setattr(np.random, "default_rng", None)  # not on this path
    gw = ClusterGateway(num_workers=1, batch_timeout=2.0, hedge_backoff=1.0)

    def headroom(batch_id, attempts):
        batch = _PendingBatch(
            batch_id=batch_id, name="m", input_bits=8, vectors=TRACE[:1], futures=[],
            request_ids=range(1), worker_id=0, cost=0.0, attempts=attempts,
        )
        return gw._attempt_deadline(batch) - 100.0

    table = {(batch_id, attempts): headroom(batch_id, attempts)
             for batch_id in range(64) for attempts in (1, 2, 3, 4)}
    assert all(2.0 <= value <= 2.2 for value in table.values())
    assert table == {key: headroom(*key) for key in table}  # deterministic
    assert len(set(table.values())) == len(table)  # differs per batch and attempt
    assert max(table.values()) - min(table.values()) > 0.15  # and uses the spread
    assert ClusterGateway(num_workers=1)._attempt_deadline(None) is None


# --------------------------------------------------------------------- #
# One wave's responses, pinned (no processes)                             #
# --------------------------------------------------------------------- #
class TestWaveEquivalence:
    """What one 12-row wave resolves to, through ``worker._handle`` and
    ``gateway._on_reply``: every ``ClusterResponse`` field, the gateway's
    stats and the worker's window.  ``EXPECTED`` was computed at the commit
    before RESULTS frames were built and resolved per wave (``c5592f7``):
    the all-completed wave takes the vectorised branch on both sides, the
    other two the per-row one, and none of it may move.
    """

    EXPECTED = {
        "clean": "778d1c85d1c6bc3e30ff8cc90706252cb5cda8001ee5e4f478ddd37506629e0d",
        "rejected at admission":
            "7e9dee00e372d740178c1b3d65d5729279fb0c5d472cc706304adf8d740b9772",
        "failed in the pool":
            "1a612f79992fcff6fecc7072db6e298ddf9648de04d03e1eb474eaa9425ba62e",
    }
    STATUSES = {
        "clean": ["completed"] * 12,
        "rejected at admission": ["completed"] * 5 + ["rejected"] * 7,
        "failed in the pool": ["completed"] * 4 + ["failed"] * 4 + ["completed"] * 4,
    }

    def wave(self, queue_capacity, fail_pool_calls=()):
        pool = DevicePool(
            num_devices=1, config=ChipConfig(hct=HctConfig.small(), num_hcts=3))
        server = PumServer(pool=pool, scheduling=StaticBatchingPolicy(4, 1),
                           queue_capacity=queue_capacity, admission="reject")
        server.register_matrix("m", MATRIX)
        calls, execute = [], pool.exec_mvm_batch

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) in fail_pool_calls:
                raise ExecutionError("injected pool failure")
            return execute(*args, **kwargs)

        pool.exec_mvm_batch = flaky

        async def scenario():
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw, server.plan_handle("m"))
            futures = await gw.submit_batch("m", TRACE[:12])
            reply = _handle(server, K_SUBMIT,
                            {"batch": 0, "name": "m", "input_bits": 8}, [TRACE[:12]])
            frame = memoryview(b"".join(bytes(part) for part in reply))
            gw._on_reply(worker, *decode_message(frame))
            rows = [
                (r.request_id, r.name, r.status,
                 None if r.result is None else r.result.tolist(),
                 r.latency_ticks, r.energy_pj, r.worker_id, r.error)
                for r in (future.result() for future in futures)
            ]
            window = (worker.inflight, worker.outstanding_cycles, len(worker.pending))
            return rows, gw.stats.snapshot(), window

        return run(scenario())

    @pytest.mark.parametrize("label, arguments", [
        ("clean", (4096,)),
        ("rejected at admission", (5,)),
        ("failed in the pool", (4096, (2,))),
    ])
    def test_responses_and_stats_are_unchanged(self, label, arguments):
        rows, stats, window = self.wave(*arguments)
        assert [row[2] for row in rows] == self.STATUSES[label]
        digest = hashlib.sha256(repr((rows, stats, window)).encode()).hexdigest()
        assert digest == self.EXPECTED[label]

    def test_a_wave_with_no_completed_row_is_still_answered(self):
        """Every batch fails in the pool, so the result matrix is ``(12, 0)``
        -- an array with no castable buffer, which used to crash the frame's
        encoding into a batch-less ERROR and strand all twelve riders."""
        rows, stats, window = self.wave(4096, fail_pool_calls=range(1, 4))
        assert [row[2:4] for row in rows] == [("failed", None)] * 12
        assert all(row[7] == "ExecutionError: injected pool failure" for row in rows)
        assert (stats["failed"], stats["completed"], stats["transport_errors"]) == (12, 0, 0)
        assert window == (0, 0.0, 0)
