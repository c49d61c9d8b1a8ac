"""Cluster chaos layer: fault injection, hedging, breakers, supervision.

The unit half exercises the deterministic machinery in isolation --
:class:`TransportFaultInjector` on a raw ring, the seeded schedules, the
:class:`CircuitBreaker` state machine on a fake clock, and the worker's
duplicate-suppression/heartbeat behaviour via a direct ``_handle`` call
(no processes).  The e2e half spawns real worker processes and drives
the gray-failure paths end to end: induced stragglers hedged onto
replicas, dropped frames recovered by re-dispatch, breaker-open
backpressure, and supervised auto-restart after SIGKILL.

Every random schedule derives from ``REPRO_TEST_SEED`` (default 12345;
CI sweeps {12345, 1, 31337}), so any failure reproduces by exporting the
same seed locally.
"""

import asyncio
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.core.config import ChipConfig, HctConfig
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    ClusterError,
    TransportError,
)
from repro.runtime.cluster import gateway as gateway_module
from repro.runtime.cluster import (
    CircuitBreaker,
    ClusterGateway,
    ShmRing,
    TransportFaultInjector,
    TransportFaultSpec,
)
from repro.runtime.cluster.messages import K_STRAGGLE, K_SUBMIT, encode_message
from repro.runtime.cluster.worker import WorkerState, _handle
from repro.runtime.faults import FaultEvent, FaultSchedule
from repro.runtime.pool import DevicePool
from repro.runtime.server import PumServer
from repro.testing import REPRO_TEST_SEED

RNG = np.random.default_rng(11)
MATRIX = RNG.integers(-8, 8, size=(24, 16), dtype=np.int64)
TRACE = RNG.integers(0, 16, size=(40, 24), dtype=np.int64)


def run(coroutine):
    return asyncio.run(coroutine)


def gateway(**kwargs):
    kwargs.setdefault("chip", "small")
    kwargs.setdefault("num_workers", 2)
    return ClusterGateway(**kwargs)


def local_server():
    pool = DevicePool(
        num_devices=1,
        config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
    )
    return PumServer(pool=pool, queue_capacity=4096)


# --------------------------------------------------------------------- #
# Unit: seeded schedules                                                   #
# --------------------------------------------------------------------- #
class TestTransportFaultSchedule:
    def test_same_seed_same_schedule(self):
        first = FaultSchedule.from_seed(REPRO_TEST_SEED)
        again = FaultSchedule.from_seed(REPRO_TEST_SEED)
        assert first == again
        assert len(first.events) == 4

    def test_different_seeds_differ(self):
        assert FaultSchedule.from_seed(1) != FaultSchedule.from_seed(2)

    def test_events_stay_inside_the_horizon(self):
        schedule = FaultSchedule.from_seed(
            REPRO_TEST_SEED, num_events=16, horizon=8
        )
        for event in schedule.events:
            assert 0 <= event.after < 8
            assert event.duration >= 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ClusterError, match="unknown fault mode"):
            FaultEvent(after=0, mode="gremlins")
        with pytest.raises(ClusterError, match="unknown fault mode"):
            FaultSchedule.from_seed(1, modes=("gremlins",))

    def test_spec_round_trips_and_derives_per_ring(self):
        spec = TransportFaultSpec(seed=REPRO_TEST_SEED)
        assert pickle.loads(pickle.dumps(spec)) == spec
        # Every (worker, direction) ring gets its own schedule...
        request = spec.injector_for(0, "request")
        reply = spec.injector_for(0, "reply")
        other = spec.injector_for(1, "request")
        assert request.schedule != reply.schedule
        assert request.schedule != other.schedule
        # ... deterministically.
        assert spec.injector_for(0, "request").schedule == request.schedule

    def test_spec_rejects_unknown_direction(self):
        with pytest.raises(ClusterError, match="direction"):
            TransportFaultSpec(seed=1, directions=("sideways",))


# --------------------------------------------------------------------- #
# Unit: injector modes on a raw ring                                       #
# --------------------------------------------------------------------- #
class TestTransportFaultInjector:
    @pytest.fixture
    def ring(self):
        ring = ShmRing(capacity=1 << 12)
        yield ring
        ring.close()

    def test_drop_loses_the_frame_but_reports_success(self, ring):
        injector = TransportFaultInjector(kinds=None).attach(ring)
        injector.drop(1)
        assert ring.push([b"\x02gone"]) is True  # the lossy link "accepted"
        assert ring.pop() is None
        assert injector.frames_dropped == 1
        assert ring.push([b"\x02kept"])
        assert ring.pop() == b"\x02kept"

    def test_duplicate_delivers_twice(self, ring):
        injector = TransportFaultInjector(kinds=None).attach(ring)
        injector.duplicate(1)
        assert ring.push([b"\x02twin"])
        assert ring.pop() == b"\x02twin"
        assert ring.pop() == b"\x02twin"
        assert ring.pop() is None
        assert injector.frames_duplicated == 1

    def test_delay_reorders_past_later_frames(self, ring):
        injector = TransportFaultInjector(kinds=None).attach(ring)
        injector.delay_next(1, by=2)
        assert ring.push([b"\x02held"])
        assert ring.push([b"\x02first"])
        assert ring.pop() == b"\x02first"
        assert ring.pop() is None  # not due yet
        assert ring.push([b"\x02second"])
        assert ring.pop() == b"\x02held"  # delivered before the trigger frame
        assert ring.pop() == b"\x02second"
        assert injector.frames_delayed == 1

    def test_corrupt_is_detected_by_crc_and_skipped(self, ring):
        injector = TransportFaultInjector(
            seed=REPRO_TEST_SEED, kinds=None
        ).attach(ring)
        injector.corrupt(1)
        assert ring.push([b"\x02poisoned-frame"])
        with pytest.raises(TransportError, match="CRC mismatch"):
            ring.peek()
        assert ring.pop() is None  # skipped past: channel recovered
        assert ring.push([b"\x02clean"])
        assert ring.pop() == b"\x02clean"
        assert injector.frames_corrupted == 1

    def test_kind_filter_never_faults_control_frames(self, ring):
        injector = TransportFaultInjector(kinds=(K_SUBMIT,)).attach(ring)
        injector.drop(1)
        control = encode_message(K_STRAGGLE, {"batches": 1, "seconds": 0.0})
        assert ring.push(control)
        assert ring.pop() is not None  # control traffic untouched
        assert injector.frames_seen == 0
        data = encode_message(K_SUBMIT, {"batch": 0, "name": "w"},
                              [np.zeros((1, 4), dtype=np.int64)])
        assert ring.push(data)
        assert ring.pop() is None  # the armed drop hit the data frame
        assert injector.frames_dropped == 1

    def test_seeded_schedule_drives_injection(self, ring):
        schedule = FaultSchedule(events=(
            FaultEvent(after=1, mode="drop"),
        ))
        TransportFaultInjector(schedule, kinds=None).attach(ring)
        assert ring.push([b"\x02zero"])
        assert ring.push([b"\x02one"])  # scheduled drop fires here
        assert ring.push([b"\x02two"])
        assert ring.pop() == b"\x02zero"
        assert ring.pop() == b"\x02two"
        assert ring.pop() is None

    def test_campaign_is_replayable_frame_for_frame(self):
        def campaign():
            ring = ShmRing(capacity=1 << 12)
            injector = TransportFaultInjector(
                FaultSchedule.from_seed(REPRO_TEST_SEED),
                kinds=None,
            ).attach(ring)
            delivered = []
            try:
                for index in range(48):
                    ring.push([b"\x02" + bytes([index])])
                    while True:
                        try:
                            frame = ring.pop()
                        except TransportError:
                            delivered.append("corrupt")
                            continue
                        if frame is None:
                            break
                        delivered.append(frame[1])
            finally:
                ring.close()
            counts = (injector.frames_dropped, injector.frames_duplicated,
                      injector.frames_delayed, injector.frames_corrupted)
            return delivered, counts

        first_delivery, first_counts = campaign()
        again_delivery, again_counts = campaign()
        assert first_delivery == again_delivery
        assert first_counts == again_counts
        assert sum(first_counts) > 0  # the campaign actually did something


# --------------------------------------------------------------------- #
# Unit: circuit breaker state machine (fake clock)                         #
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def breaker_constants(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(gateway_module, "BREAKER_COOLDOWN", 1.0)

    def make(self):
        self.now = 0.0
        return CircuitBreaker(clock=lambda: self.now)

    def test_closed_until_consecutive_threshold(self):
        breaker = self.make()
        assert breaker.allows()
        assert breaker.record_failure() is False
        breaker.record_success()  # success resets the consecutive count
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allows()
        assert breaker.opens == 1

    def test_half_open_probe_failure_doubles_cooldown(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 1.5
        assert breaker.allows()  # cooldown elapsed: half-open
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_dispatch()
        assert not breaker.allows()  # one probe at a time
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.cooldown == 2.0
        self.now = 2.5
        assert not breaker.allows()  # doubled cooldown not yet elapsed
        self.now = 3.6
        assert breaker.allows()

    def test_probe_success_closes_and_resets_cooldown(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 1.5
        assert breaker.allows()
        breaker.record_dispatch()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.cooldown == 1.0
        assert breaker.allows()

    def test_cooldown_growth_is_capped(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "BREAKER_MAX_COOLDOWN", 4.0)
        breaker = self.make()
        for _ in range(8):
            breaker.record_failure()
            breaker.record_failure()
            self.now += 100.0
            assert breaker.allows()
            breaker.record_dispatch()
        assert breaker.cooldown <= 4.0

    def test_tuning_is_read_from_the_module_not_frozen_at_import(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "BREAKER_THRESHOLD", 3)
        monkeypatch.setattr(gateway_module, "BREAKER_COOLDOWN", 0.25)
        breaker = self.make()
        assert breaker.cooldown == 0.25
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False  # 2 < 3: still closed
        assert breaker.record_failure() is True
        self.now = 0.3
        assert breaker.allows()


# --------------------------------------------------------------------- #
# Unit: worker-side duplicate suppression and in-dispatch heartbeats       #
# --------------------------------------------------------------------- #
class TestWorkerHandle:
    def test_duplicate_submit_replays_identical_reply(self):
        server = local_server()
        server.register_matrix("w", MATRIX)
        state = WorkerState()
        header = {"batch": 7, "name": "w", "input_bits": 8}
        first = _handle(server, K_SUBMIT, header, [TRACE[:4]], state=state)
        again = _handle(server, K_SUBMIT, header, [TRACE[:4]], state=state)
        assert b"".join(first) == b"".join(again)  # bit-identical replay
        assert state.duplicates_suppressed == 1
        # The replay never re-executed: the server saw the batch once.
        assert server.stats.snapshot()["completed"] == 4

    def test_reply_cache_is_bounded(self):
        state = WorkerState()
        for batch in range(200):
            state.remember_reply(batch, [b"frame"])
        assert len(state.reply_cache) == 64
        assert 199 in state.reply_cache and 0 not in state.reply_cache

    def test_dispatch_loop_beats_the_heartbeat(self):
        """Regression: liveness must reflect progress *within* a batch.

        Workers used to beat only between messages, so a long batch was
        indistinguishable from a hang; ``_handle`` now beats once per
        scheduler tick while the batch drains.
        """
        server = local_server()
        server.register_matrix("w", MATRIX)
        beats = []
        _handle(server, K_SUBMIT, {"batch": 1, "name": "w", "input_bits": 8},
                [TRACE[:8]], beat=lambda: beats.append(time.monotonic()))
        assert len(beats) >= 1

    def test_straggle_command_sleeps_while_beating(self):
        server = local_server()
        server.register_matrix("w", MATRIX)
        state = WorkerState()
        _handle(server, K_STRAGGLE, {"batches": 1, "seconds": 0.05}, [],
                state=state)
        assert state.straggle_batches == 1
        beats = []
        started = time.monotonic()
        _handle(server, K_SUBMIT, {"batch": 1, "name": "w", "input_bits": 8},
                [TRACE[:2]], beat=lambda: beats.append(time.monotonic()),
                state=state)
        elapsed = time.monotonic() - started
        assert elapsed >= 0.05  # it did straggle
        assert state.straggle_batches == 0  # one-shot
        # The heartbeat advanced *during* the sleep: the straggler looks
        # alive to liveness, which is the whole point of the gray failure.
        assert any(stamp - started < 0.05 for stamp in beats)


# --------------------------------------------------------------------- #
# E2E: straggler hedging                                                   #
# --------------------------------------------------------------------- #
def test_straggler_is_hedged_onto_replica(monkeypatch):
    """An induced straggler times out and its batch completes elsewhere."""
    monkeypatch.setattr(gateway_module, "HEARTBEAT_INTERVAL", 0.02)
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 0.25)

    async def scenario():
        async with gateway(replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            slow = gw.placement_of("w")[0]
            ack = await gw.induce_straggler(slow, batches=1, seconds=2.0)
            assert ack["straggle"] is True
            futures = await gw.submit_batch("w", TRACE[:8])
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            assert len(responses) == 8  # zero lost futures
            assert all(r.ok for r in responses)
            # The batch finished on a replica, not on the straggler.
            assert all(r.worker_id != slow for r in responses)
            stats = gw.stats.snapshot()
            assert stats["batch_timeouts"] >= 1
            assert stats["hedged_batches"] >= 1
            # Liveness never fired: the straggler kept beating.
            assert stats["worker_failures"] == 0
            assert gw.worker_status()[slow]["alive"] is True
            return np.stack([r.result for r in responses])

    hedged = run(scenario())
    server = local_server()
    server.register_matrix("w", MATRIX)
    futures = server.submit_batch("w", TRACE[:8])
    server.run_until_idle()
    local = np.stack([f.result().result for f in futures])
    assert np.array_equal(hedged, local)  # hedged answers stay bit-identical


def test_batch_timeout_surfaces_after_max_attempts(monkeypatch):
    """With one replica and one attempt, a straggler fails the batch."""
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 1)
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 0.15)
    monkeypatch.setattr(gateway_module, "STOP_TIMEOUT", 8.0)

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            await gw.induce_straggler(0, batches=1, seconds=1.0)
            futures = await gw.submit_batch("w", TRACE[:4])
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            assert [r.status for r in responses] == ["failed"] * 4
            assert all("timed out" in r.error for r in responses)
            assert gw.stats.batch_timeouts >= 1
            # The worker's late reply must land as a counted duplicate,
            # never a second resolution.
            deadline = asyncio.get_running_loop().time() + 30
            while gw.stats.duplicate_replies < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)

    run(scenario())


def test_hedge_back_to_same_worker_at_r1(monkeypatch):
    """At replication=1 the hedge re-sends to the same worker; the
    worker's duplicate suppression makes the re-send safe and the batch
    still completes exactly once."""
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 0.2)
    monkeypatch.setattr(gateway_module, "STOP_TIMEOUT", 8.0)

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            await gw.induce_straggler(0, batches=1, seconds=0.7)
            futures = await gw.submit_batch("w", TRACE[:4])
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            assert all(r.ok for r in responses)
            assert gw.stats.hedged_batches >= 1
            stats = await gw.drain_worker(0)
            assert stats["duplicates_suppressed"] >= 1

    run(scenario())


# --------------------------------------------------------------------- #
# E2E: circuit breaker routing                                             #
# --------------------------------------------------------------------- #
def test_open_breaker_sheds_as_circuit_open_error(monkeypatch):
    monkeypatch.setattr(gateway_module, "BREAKER_THRESHOLD", 1)
    monkeypatch.setattr(gateway_module, "BREAKER_COOLDOWN", 0.3)

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            gw._workers[0].breaker.record_failure()  # trip it open
            with pytest.raises(CircuitOpenError, match="circuit breaker"):
                await gw.submit_batch("w", TRACE[:2])
            assert gw.worker_status()[0]["breaker"] == "open"
            await asyncio.sleep(0.35)  # cooldown elapses: half-open probe
            responses = await asyncio.gather(
                *await gw.submit_batch("w", TRACE[:2])
            )
            assert all(r.ok for r in responses)
            assert gw.worker_status()[0]["breaker"] == "closed"

    run(scenario())


def test_breaker_opens_on_consecutive_timeouts_and_feeds_health(monkeypatch):
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 1)
    monkeypatch.setattr(gateway_module, "BREAKER_THRESHOLD", 2)
    monkeypatch.setattr(gateway_module, "BREAKER_COOLDOWN", 5.0)
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 0.15)
    monkeypatch.setattr(gateway_module, "STOP_TIMEOUT", 8.0)

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            await gw.induce_straggler(0, batches=2, seconds=0.8)
            for _ in range(2):
                futures = await gw.submit_batch("w", TRACE[:2])
                await asyncio.wait_for(asyncio.gather(*futures), timeout=30)
            assert gw.stats.circuit_opens >= 1
            status = gw.worker_status()[0]
            assert status["breaker"] == "open"
            # Timeouts fed the DeviceHealth EWMA on the way.
            assert status["health_score"] > 0.0
            with pytest.raises(CircuitOpenError):
                await gw.submit_batch("w", TRACE[:2])

    run(scenario())


# --------------------------------------------------------------------- #
# E2E: transport faults against real workers                               #
# --------------------------------------------------------------------- #
def test_dropped_submit_recovers_via_hedge(monkeypatch):
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 0.2)

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            injector = TransportFaultInjector(
                kinds=(K_SUBMIT,)
            ).attach(gw._workers[0].requests)
            injector.drop(1)
            futures = await gw.submit_batch("w", TRACE[:4])
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            assert all(r.ok for r in responses)
            assert injector.frames_dropped == 1
            assert gw.stats.batch_timeouts >= 1
            assert gw.stats.retried_batches >= 1

    run(scenario())


def test_duplicated_submit_is_suppressed_end_to_end():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            injector = TransportFaultInjector(
                kinds=(K_SUBMIT,)
            ).attach(gw._workers[0].requests)
            injector.duplicate(1)
            futures = await gw.submit_batch("w", TRACE[:4])
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            assert all(r.ok for r in responses)
            # The worker replayed (not re-executed) the dup, and the
            # gateway discarded the extra RESULTS frame.
            deadline = asyncio.get_running_loop().time() + 30
            while gw.stats.duplicate_replies < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            stats = await gw.drain_worker(0)
            assert stats["duplicates_suppressed"] >= 1
            assert stats["completed"] == 4.0  # executed exactly once

    run(scenario())


def test_seeded_fault_campaign_stays_bit_identical(monkeypatch):
    """The chaos-gate core at test scale: a seeded drop/dup/delay/corrupt
    schedule on both directions of every ring, under replication=2 with
    hedging on -- zero lost futures and answers equal to a fault-free
    single-process server."""
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 0.4)
    monkeypatch.setattr(gateway_module, "TRANSPORT_FAULTS", TransportFaultSpec(
        seed=REPRO_TEST_SEED, num_events=3, horizon_frames=10,
    ))
    monkeypatch.setattr(gateway_module, "HEARTBEAT_INTERVAL", 0.02)
    monkeypatch.setattr(gateway_module, "STOP_TIMEOUT", 8.0)

    async def scenario():
        async with gateway(replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = []
            # 20 batches against a 10-frame fault horizon: the campaign
            # outlives its own faults, so a frame a fault ate or still holds
            # (a ``delay`` is only flushed by later pushes on its ring) has
            # traffic behind it to recover through.
            for start in range(0, 40, 2):
                while True:  # shed submits (window or breaker) retry
                    try:
                        futures.extend(
                            await gw.submit_batch("w", TRACE[start: start + 2])
                        )
                        break
                    except AdmissionError:
                        await asyncio.sleep(0.02)
                await asyncio.sleep(0.01)
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=60
            )
            assert len(responses) == 40  # zero lost futures
            assert all(r.ok for r in responses), \
                [r.error for r in responses if not r.ok]
            ordered = sorted(responses, key=lambda r: r.request_id)
            return np.stack([r.result for r in ordered])

    chaotic = run(scenario())
    server = local_server()
    server.register_matrix("w", MATRIX)
    futures = server.submit_batch("w", TRACE)
    server.run_until_idle()
    local = np.stack([f.result().result for f in futures])
    assert np.array_equal(chaotic, local)


# --------------------------------------------------------------------- #
# E2E: supervised restart                                                  #
# --------------------------------------------------------------------- #
def supervised(monkeypatch):
    """Supervised restart on, a 20 ms heartbeat and a 2 s stop timeout."""
    monkeypatch.setattr(gateway_module, "HEARTBEAT_INTERVAL", 0.02)
    monkeypatch.setattr(gateway_module, "AUTO_RESTART", True)
    monkeypatch.setattr(gateway_module, "STOP_TIMEOUT", 2.0)


def test_supervisor_restarts_killed_worker(monkeypatch):
    supervised(monkeypatch)

    async def scenario():
        async with gateway(replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            os.kill(gw._workers[0].process.pid, signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 30
            while gw.stats.supervised_restarts < 1 \
                    or not gw.worker_status()[0]["alive"]:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            # The healed worker was re-registered and serves again.
            responses = await asyncio.gather(
                *await gw.submit_batch("w", TRACE[:6])
            )
            assert all(r.ok for r in responses)
            assert gw.stats.restarts >= 1

    run(scenario())


def test_supervisor_respects_restart_budget(monkeypatch):
    monkeypatch.setattr(gateway_module, "RESTART_BUDGET", 1)
    monkeypatch.setattr(gateway_module, "RESTART_WINDOW", 120.0)
    supervised(monkeypatch)

    async def scenario():
        async with gateway(replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            os.kill(gw._workers[0].process.pid, signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 30
            while gw.stats.supervised_restarts < 1 \
                    or not gw.worker_status()[0]["alive"]:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            # Second crash inside the window: the budget is spent, so the
            # worker stays down instead of crash-looping.
            os.kill(gw._workers[0].process.pid, signal.SIGKILL)
            while gw.stats.worker_failures < 2:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            await asyncio.sleep(0.2)
            assert gw.stats.supervised_restarts == 1
            assert gw.worker_status()[0]["alive"] is False
            # The surviving replica still serves.
            responses = await asyncio.gather(
                *await gw.submit_batch("w", TRACE[:4])
            )
            assert all(r.ok for r in responses)

    run(scenario())



# --------------------------------------------------------------------- #
# Unit: the module switches reach the worker spec and the loops            #
# --------------------------------------------------------------------- #
class TestSpawnedWithTheModuleSwitches:
    """A worker learns its heartbeat period and fault schedule from the
    spec it is spawned with -- under the ``spawn`` start method the child
    re-imports the gateway at its default constants -- and the gateway
    runs the watchdog and supervisor only when their switches are on.
    Started in-process: the process class records the spec and the READY
    round trip answers at once."""

    def started(self, monkeypatch):
        """Start and close a one-worker gateway; its worker spec and the
        names of the background loops it ran."""
        specs = []

        class RecordingProcess:
            def __init__(self, target, args, daemon, name):
                specs.append(args[0])

            def start(self):
                pass

            def is_alive(self):
                return False

            def close(self):
                pass

        async def answered(worker, key, frame, what):
            return None

        gw = gateway(num_workers=1)
        monkeypatch.setattr(gw._ctx, "Process", RecordingProcess)
        monkeypatch.setattr(gw, "_call", answered)

        async def scenario():
            await gw.start()
            loops = sorted(task.get_coro().__name__ for task in gw._tasks)
            await gw.close()
            return loops

        loops = run(scenario())
        (spec,) = specs
        return spec, loops

    @pytest.mark.parametrize("interval, sent", [
        (0.02, 0.02),
        (0.05, 0.05),
        # Never so rarely that a long period reads as a frozen slot.
        (60.0, gateway_module.LIVENESS_TIMEOUT / 4),
    ])
    def test_the_spec_carries_the_heartbeat_period(self, monkeypatch, interval, sent):
        monkeypatch.setattr(gateway_module, "HEARTBEAT_INTERVAL", interval)
        spec, _ = self.started(monkeypatch)
        assert spec["heartbeat_interval"] == sent

    def test_the_spec_carries_the_fault_schedule_only_when_set(self, monkeypatch):
        spec, _ = self.started(monkeypatch)
        assert "transport_faults" not in spec
        faults = TransportFaultSpec(
            seed=REPRO_TEST_SEED, num_events=3, horizon_frames=10,
        )
        monkeypatch.setattr(gateway_module, "TRANSPORT_FAULTS", faults)
        spec, _ = self.started(monkeypatch)
        assert spec["transport_faults"] is faults

    @pytest.mark.parametrize("batch_timeout, auto_restart, loops", [
        (None, False, ["_health"]),
        (0.5, False, ["_health", "_watchdog"]),
        (None, True, ["_health", "_supervise"]),
    ])
    def test_the_watchdog_and_supervisor_run_only_when_switched_on(
            self, monkeypatch, batch_timeout, auto_restart, loops):
        monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", batch_timeout)
        monkeypatch.setattr(gateway_module, "AUTO_RESTART", auto_restart)
        _, ran = self.started(monkeypatch)
        assert ran == loops
