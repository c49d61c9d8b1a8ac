"""Degraded-mode recovery benchmark: serving through a device kill.

Drives the same open-loop request mix through two replicated (R=2) servers:
a fault-free control and a chaos run that kills one device mid-load and
heals it a few waves later.  The benchmark records what resilience costs
and how fast the pool returns to primary dispatch:

* **degraded overhead** -- p50 drain wall-clock of the chaos run over the
  control run.  Failover is an in-tick retry (no timeouts, no epochs), so
  the overhead is the cost of re-dispatching the dead device's shards on
  their replicas plus the health bookkeeping;
* **failover window** -- replica hits/retries and degraded batches
  accumulated between kill and heal;
* **recovery** -- after ``heal()`` the pool must dispatch primaries again
  immediately: zero replica hits accrue after the heal wave.

Responses must stay bit-identical to the control run and every future must
resolve as completed -- the same guarantee the tier-1 chaos gate pins in
ticks; this benchmark adds the wall-clock numbers.

PR 8 adds the integrity companion: the same drain with ABFT verification
on (``verify="full"``) versus off, plus the wall-clock cost of a live shard
rebuild after losing every replica of a band.  Tier-1 asserts what the
program controls -- identical payloads, the exact number of checks, nothing
re-executed, identical simulated cycles and energy, and the check's extra
Python-level calls and profile events per verified call
(:data:`MAX_VERIFY_EXTRA_CALLS`, :data:`MAX_VERIFY_EXTRA_EVENTS`).  The
wall-clock ratio is *recorded* (``integrity.json``, ``BENCH_recovery.json``)
and judged against :data:`MAX_VERIFY_OVERHEAD` by ``make integrity-bench``,
not by ``pytest -x``: every PR that makes the unverified drain faster moves
a fixed ~0.3 ms check toward the bound (1.05-1.12 at PR 15, 1.04-1.22 and
red one run in three at PR 20).

Results go to ``benchmarks/artifacts/recovery.json`` (and
``integrity.json``) on every run; with ``REPRO_BENCH_RECORD=1`` (the CI
benchmarks job) the headline numbers are appended to the
``BENCH_recovery.json`` trajectory at the repo root.  The correctness
assertions are exact; the one timing gate left here
(:data:`MAX_DEGRADED_OVERHEAD`) is a sanity ceiling an order of magnitude
above what it measures.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro import DevicePool, PumServer, StaticBatchingPolicy
from repro.runtime import FaultInjector
from repro.testing import profiled_calls

NUM_DEVICES = 3
REPLICATION = 2
MATRIX_SHAPE = (16, 16)
INPUT_BITS = 4
ELEMENT_SIZE = 4
WAVES = 16
WAVE_SIZE = 16
KILL_WAVE = 5
HEAL_WAVE = 11
KILL_DEVICE = 0
MAX_BATCH = 8
REPEATS = 5
#: Generous sanity ceiling on the degraded-run overhead.  Failover re-runs
#: at most the dead device's share of each batch, so the true ratio sits
#: near 1; the gate only has to catch pathological regressions (e.g. an
#: accidental retry storm), not measure precisely on shared CI hardware.
MAX_DEGRADED_OVERHEAD = 25.0
#: The PR 8 acceptance bound: ABFT verification is an ``O(batch * (rows +
#: cols))`` reduction riding an ``O(batch * rows * cols)`` MVM, so
#: ``verify="full"`` should stay within 15% of the fault-free drain.  Judged
#: by ``make integrity-bench`` from ``integrity.json``, not asserted here.
MAX_VERIFY_OVERHEAD = 1.15
#: What tier-1 holds the check to instead: Python-level calls and profile
#: events (Python + C calls) one verified single-band pooled call makes
#: beyond the same call unverified.  Measured 6 (``_finish_call``'s
#: ``verify``, ``_effective_tolerance``, ``array_equal`` and the NumPy
#: wrappers under them) and 17; the event budget leaves 10 % for a NumPy
#: that dispatches ``asarray`` / ``sum`` differently.
MAX_VERIFY_EXTRA_CALLS = 6
MAX_VERIFY_EXTRA_EVENTS = 19
#: The integrity benchmark drains a serving-sized band (one full default
#: tile) rather than the 16x16 recovery toy: the checksum's relative cost
#: is what the bound is about, and a toy matrix measures mostly fixed
#: per-call dispatch overhead instead.
INTEGRITY_MATRIX_SHAPE = (64, 64)

ARTIFACTS_DIR = Path(__file__).parent / "artifacts"


def build_server(verify: str = "off", num_devices: int = NUM_DEVICES,
                 shape: tuple = MATRIX_SHAPE) -> PumServer:
    server = PumServer(
        pool=DevicePool(num_devices=num_devices, replication=REPLICATION,
                        verify=verify),
        scheduling=StaticBatchingPolicy(MAX_BATCH, 1),
        queue_capacity=WAVES * WAVE_SIZE,
    )
    rng = np.random.default_rng(37)
    server.register_matrix(
        "m", rng.integers(-7, 8, size=shape),
        element_size=ELEMENT_SIZE, input_bits=INPUT_BITS,
    )
    return server


def offered_load(shape: tuple = MATRIX_SHAPE) -> np.ndarray:
    rng = np.random.default_rng(38)
    return rng.integers(
        0, 1 << INPUT_BITS, size=(WAVES, WAVE_SIZE, shape[0])
    )


def drain(server, vectors, injector=None):
    """Run the full open-loop load; returns (seconds, results, heal_stats).

    ``heal_stats`` snapshots the degraded counters at the heal wave, so the
    caller can assert nothing degraded accrues *after* recovery.
    """
    futures = []
    heal_stats = None
    start = time.perf_counter()
    for wave in range(WAVES):
        if injector is not None and wave == KILL_WAVE:
            injector.kill(KILL_DEVICE)
        if injector is not None and wave == HEAL_WAVE:
            injector.heal(KILL_DEVICE)
            heal_stats = (
                server.stats.replica_hits, server.stats.replica_retries
            )
        futures.extend(
            server.submit_batch("m", vectors[wave], input_bits=INPUT_BITS)
        )
        server.tick()
    server.run_until_idle()
    elapsed = time.perf_counter() - start
    responses = [future.result(timeout=0) for future in futures]
    assert all(r.status == "completed" for r in responses)
    results = np.stack([r.result for r in responses])
    return elapsed, results, heal_stats


def measure(faulted: bool):
    vectors = offered_load()
    times, results, final_server, heal_stats = [], None, None, None
    for _ in range(1 + REPEATS):  # first run is warm-up
        server = build_server()
        injector = FaultInjector().attach(server.pool) if faulted else None
        elapsed, results, heal_stats = drain(server, vectors, injector)
        times.append(elapsed)
        final_server = server
    return statistics.median(times[1:]), results, final_server, heal_stats


def test_recovery_benchmark(record_row):
    clean_p50, clean_results, clean_server, _ = measure(faulted=False)
    chaos_p50, chaos_results, chaos_server, heal_stats = measure(faulted=True)
    overhead = chaos_p50 / max(clean_p50, 1e-12)
    stats = chaos_server.stats

    # Exact guarantees first: nothing lost, nothing different.
    assert np.array_equal(chaos_results, clean_results)
    assert stats.completed == WAVES * WAVE_SIZE
    assert stats.failed == 0

    # The kill really was exercised ...
    assert stats.device_failures >= 1
    assert stats.replica_retries >= 1
    assert stats.degraded_batches >= 1
    assert clean_server.stats.degraded_batches == 0

    # ... and healing really recovers: no replica traffic after the heal.
    hits_at_heal, retries_at_heal = heal_stats
    assert stats.replica_hits == hits_at_heal, (
        "replicas still serving primary traffic after heal()"
    )
    assert stats.replica_retries == retries_at_heal

    print(
        f"\nrecovery: drain p50 {clean_p50 * 1e3:.2f} ms fault-free -> "
        f"{chaos_p50 * 1e3:.2f} ms with a mid-load kill "
        f"({overhead:.2f}x); failover window: {stats.replica_hits} replica "
        f"hits, {stats.replica_retries} retries, "
        f"{stats.degraded_batches}/{stats.batches} degraded batches"
    )

    payload = {
        "benchmark": "recovery",
        "num_devices": NUM_DEVICES,
        "replication": REPLICATION,
        "waves": WAVES,
        "wave_size": WAVE_SIZE,
        "kill_wave": KILL_WAVE,
        "heal_wave": HEAL_WAVE,
        "fault_free_drain_p50_ms": clean_p50 * 1e3,
        "degraded_drain_p50_ms": chaos_p50 * 1e3,
        "degraded_overhead": overhead,
        "max_degraded_overhead": MAX_DEGRADED_OVERHEAD,
        "replica_hits": stats.replica_hits,
        "replica_retries": stats.replica_retries,
        "device_failures": stats.device_failures,
        "degraded_batches": stats.degraded_batches,
        "batches": stats.batches,
        "replica_hits_after_heal": stats.replica_hits - hits_at_heal,
        "bit_identical": True,
        "lost_requests": 0,
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    (ARTIFACTS_DIR / "recovery.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )

    record_row("BENCH_recovery.json", {
        "fault_free_drain_p50_ms": round(clean_p50 * 1e3, 3),
        "degraded_drain_p50_ms": round(chaos_p50 * 1e3, 3),
        "degraded_overhead": round(overhead, 2),
        "degraded_batches": stats.degraded_batches,
        "replica_hits_after_heal": stats.replica_hits - hits_at_heal,
    })

    assert overhead <= MAX_DEGRADED_OVERHEAD, (
        f"degraded drain is {overhead:.1f}x the fault-free drain "
        f"(sanity ceiling {MAX_DEGRADED_OVERHEAD}x suggests a retry storm)"
    )


def measure_verify():
    """Best-of-repeats fault-free drain time, verify off vs full.

    The two modes are measured *interleaved* (off, full, off, full, ...)
    so both see the same machine state, and the minimum of each isolates
    the intrinsic cost of the checksum work from scheduler jitter --
    which is what the 1.15x bound is about.  Returns
    ``{mode: (best_seconds, results, server)}``.
    """
    vectors = offered_load(INTEGRITY_MATRIX_SHAPE)
    modes = ("off", "full")
    times = {mode: [] for mode in modes}
    outcome = {}
    for mode in modes:  # warm-up, unmeasured
        drain(build_server(verify=mode, shape=INTEGRITY_MATRIX_SHAPE), vectors)
    for _ in range(2 * REPEATS):
        for mode in modes:
            server = build_server(verify=mode, shape=INTEGRITY_MATRIX_SHAPE)
            elapsed, results, _ = drain(server, vectors)
            times[mode].append(elapsed)
            outcome[mode] = (results, server)
    return {
        mode: (min(times[mode]),) + outcome[mode] for mode in modes
    }


def measure_rebuild():
    """Median wall-clock of rebuilding a band that lost every replica."""
    times, report = [], None
    for _ in range(1 + REPEATS):  # first run is warm-up
        server = build_server(num_devices=NUM_DEVICES + 1,
                              shape=INTEGRITY_MATRIX_SHAPE)
        allocation = server.allocation_for("m")
        for device_index in allocation.devices_used:
            server.pool.mark_device_failed(device_index)
        start = time.perf_counter()
        report = server.pool.rebuild(allocation)
        times.append(time.perf_counter() - start)
        assert report.changed
        assert report.replication == REPLICATION
    return statistics.median(times[1:]), report


def pooled_call_events(server) -> tuple:
    """``(python_calls, events)`` of one steady-state pooled call on ``server``."""
    allocation = server.allocation_for("m")
    vectors = offered_load(INTEGRITY_MATRIX_SHAPE)[0][:MAX_BATCH]
    events = profiled_calls(
        lambda: server.pool.exec_mvm_batch(allocation, vectors, input_bits=INPUT_BITS)
    )
    kinds = [event for event, _ in events]
    return kinds.count("call"), kinds.count("call") + kinds.count("c_call")


def test_integrity_benchmark(record_row):
    measured = measure_verify()
    off_p50, off_results, off_server = measured["off"]
    full_p50, full_results, full_server = measured["full"]
    verify_overhead = full_p50 / max(off_p50, 1e-12)
    rebuild_p50, report = measure_rebuild()

    # Verification is transparent on clean traffic: identical payloads, one
    # check per dispatched batch of the one band, nothing fired, and no
    # simulated cycle or picojoule (the check runs on the host).
    assert np.array_equal(full_results, off_results)
    assert full_server.stats.integrity_checks == full_server.stats.batches >= 1
    assert full_server.stats.corruptions_detected == 0
    assert full_server.stats.reexecutions == 0
    assert full_server.stats.degraded_batches == 0
    assert off_server.stats.integrity_checks == 0
    full_ledger, off_ledger = (
        server.pool.total_ledger() for server in (full_server, off_server)
    )
    assert (full_ledger.cycles, full_ledger.energy_pj) == (
        off_ledger.cycles, off_ledger.energy_pj)
    # What the check costs the host, in counts the program controls.
    off_calls, off_events = pooled_call_events(off_server)
    full_calls, full_events = pooled_call_events(full_server)
    assert full_calls - off_calls <= MAX_VERIFY_EXTRA_CALLS, (full_calls, off_calls)
    assert full_events - off_events <= MAX_VERIFY_EXTRA_EVENTS, (full_events, off_events)

    print(
        f"\nintegrity: best drain {off_p50 * 1e3:.2f} ms verify=off -> "
        f"{full_p50 * 1e3:.2f} ms verify=full ({verify_overhead:.3f}x, "
        f"{full_server.stats.integrity_checks} checks); band rebuild "
        f"p50 {rebuild_p50 * 1e3:.2f} ms "
        f"({len(report.copies_programmed)} copies reprogrammed)"
    )

    payload = {
        "benchmark": "integrity",
        "num_devices": NUM_DEVICES,
        "replication": REPLICATION,
        "matrix_shape": list(INTEGRITY_MATRIX_SHAPE),
        "waves": WAVES,
        "wave_size": WAVE_SIZE,
        "verify_off_drain_ms": off_p50 * 1e3,
        "verify_full_drain_ms": full_p50 * 1e3,
        "verify_overhead": verify_overhead,
        "max_verify_overhead": MAX_VERIFY_OVERHEAD,
        "integrity_checks": full_server.stats.integrity_checks,
        "verify_extra_calls": full_calls - off_calls,
        "verify_extra_events": full_events - off_events,
        "corruptions_detected": full_server.stats.corruptions_detected,
        "rebuild_p50_ms": rebuild_p50 * 1e3,
        "rebuild_copies_programmed": len(report.copies_programmed),
        "bit_identical": True,
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    (ARTIFACTS_DIR / "integrity.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )

    record_row("BENCH_recovery.json", {
        "verify_overhead": round(verify_overhead, 3),
        "verify_full_drain_ms": round(full_p50 * 1e3, 3),
        "verify_extra_calls": full_calls - off_calls,
        "rebuild_ms": round(rebuild_p50 * 1e3, 3),
    })
