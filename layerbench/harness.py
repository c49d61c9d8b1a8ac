"""Load generators and the two passes (untraced, traced) of one workload.

``run(workload, seed, seconds, traced, ...)`` is what the command line
calls.  Untraced, it measures the end-to-end metrics with nothing
wrapped.  Traced, it alternates slices with and without the
:mod:`layerbench.trace` shims on the same objects, then runs the probes,
and returns the per-layer metrics.  Either way every answer is compared
with its oracle off the clock and refusals are counted, never absorbed.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import ChipConfig, DevicePool, HctConfig
from repro.errors import AdmissionError

from . import probes, trace
from .spec import Spec
from .workloads import (
    CLUSTER, IN_PROCESS, ClusterWorkload, Phase, Workload, signed_matrix,
)

#: Equal slices of a measured phase.  A traced pass runs every second one
#: under the shims; a cluster workload's host-clock metrics are computed
#: per slice and the quiet quartile of the slices is reported (see
#: ``quiet_rate``; in-process phases cut finer, see ``CHUNK_S``): on the
#: shared 2-CPU hosts this runs on, identical work slows by up to 40 % for
#: seconds at a time when a neighbour wakes up, and never speeds up, so
#: the quiet quartile repeats where the median does not.
SEGMENTS = 20
#: Set-ups timed per run; ``setup_s`` is their median.  A set-up takes
#: 20-90 ms, short enough for one scheduler hiccup to move it by a third.
SETUP_REPEATS = 15
#: CPU seconds of steps between two host-speed samples of an in-process
#: phase, and the CPU seconds one sample takes.
CHUNK_S = 0.05
HOST_SAMPLE_S = 0.003
#: Host-speed samples taken before and after a traced cluster load phase,
#: for the record only (an in-process phase takes one after every chunk).
EDGE_HOST_SAMPLES = 15
#: Share of ``--seconds`` a traced run spends driving load (half of it
#: traced); the rest of its time goes to the probes.
TRACED_LOAD_SHARE = 0.7
#: Seconds a refused submit waits before it is retried.
REFUSAL_WAIT = 2e-4
#: Repetitions of the traced pass's probes.
REGISTRATION_MATRICES = 12
UNPINNED_CALLS = 150
RESULTS_DIR = Path(__file__).parent / "results"


@dataclass
class Tally:
    """Single-vector requests by outcome (sent counts every attempt)."""

    sent: int = 0
    succeeded: int = 0
    refused: int = 0
    wrong: int = 0
    not_ok: int = 0

    def add(self, verdict: Tuple[int, int, int]) -> None:
        self.sent += sum(verdict)
        self.succeeded += verdict[0]
        self.wrong += verdict[1]
        self.not_ok += verdict[2]

    @property
    def failed_share(self) -> float:
        return (self.refused + self.wrong + self.not_ok) / max(1, self.sent)


def rss_mb(pid: Any = "self") -> float:
    """Resident set of one process, now."""
    with open(f"/proc/{pid}/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20


def _worker_pids() -> List[int]:
    """Live children of this process: the cluster's workers."""
    return [child.pid for child in multiprocessing.active_children()]


def rss_with_workers_mb() -> float:
    """This process plus its largest worker."""
    return rss_mb() + max(map(rss_mb, _worker_pids()), default=0.0)


def cpu_s(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have run so far
    (``schedstat`` counts nanoseconds where ``stat`` counts 10 ms ticks)."""
    return sum(int(task.read_text().split()[0])
               for task in Path(f"/proc/{pid}/task").glob("*/schedstat")) * 1e-9


def stolen_s() -> float:
    """Seconds, per CPU this process may run on, that the hypervisor has
    so far given to other guests while this one had work (``steal`` in
    ``/proc/stat``, in 10 ms ticks; always 0 on bare metal)."""
    cpus = {f"cpu{cpu}" for cpu in os.sched_getaffinity(0)}
    with open("/proc/stat") as stat:
        ticks = [int(fields[8]) for fields in map(str.split, stat)
                 if fields[0] in cpus]
    return sum(ticks) / len(ticks) / os.sysconf("SC_CLK_TCK")


def quiet_rate(rates: Sequence[float]) -> float:
    """Upper quartile of per-slice rates: the rate with the host quiet.
    Also how host-speed samples combine into one index."""
    return float(np.percentile(rates, 75))


def host_samples() -> List[float]:
    return [probes.host_speed() for _ in range(EDGE_HOST_SAMPLES)]


def quiet_latency(latencies: np.ndarray, q: float,
                  quietest: float = 25) -> float:
    """Lower quartile (or ``quietest``-th percentile) over consecutive
    slices of each slice's ``q``-th percentile latency.  Slices hold at
    least 40 samples where the run has them (so a p95 has two samples
    beyond it), down to four slices."""
    slices = max(4, min(SEGMENTS, len(latencies) // 40))
    chunks = [chunk for chunk in np.array_split(latencies, slices)
              if len(chunk)]
    return float(np.percentile(
        [np.percentile(chunk, q) for chunk in chunks], quietest))


def drift(rates: Sequence[float]) -> float:
    """Rate of the last fifth of the slices over the first fifth."""
    fifth = max(1, len(rates) // 5)
    return float(np.mean(rates[-fifth:]) / np.mean(rates[:fifth]))


def _sim_delta(before: Any, after: Any, requests: int) -> Dict[str, float]:
    def split(now: Dict[str, float], then: Dict[str, float], prefix: str):
        return sum(value - then.get(key, 0.0) for key, value in now.items()
                   if key.startswith(prefix))

    cycles = after.cycles - before.cycles
    energy = after.energy_pj - before.energy_pj
    ace_cycles = split(after.cycle_breakdown, before.cycle_breakdown, "ace.")
    ace_energy = split(after.energy_breakdown, before.energy_breakdown, "ace.")
    return {
        "cycles": cycles / requests,
        "energy_pj": energy / requests,
        "ace_cycles": ace_cycles / requests,
        # The ledger books the digital reduction inside the tile timeline
        # ("hct."), so everything that is not analog is counted as DCE.
        "dce_cycles": (cycles - ace_cycles) / requests,
        "ace_energy_pj": ace_energy / requests,
        "dce_energy_pj": (energy - ace_energy) / requests,
    }


# --------------------------------------------------------------------- #
# Closed loop, in process                                                 #
# --------------------------------------------------------------------- #
@dataclass
class PhaseResult:
    """Per-slice rates and per-step latencies, split by whether the slice
    ran under the tracer (only a traced pass has any that did)."""

    rates: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    traced_rates: List[float] = field(default_factory=list)
    #: Untraced chunks (``CHUNK_S`` of steps, or what a slice had left):
    #: good requests per second, median step seconds, and the
    #: ``probes.host_speed`` sample taken, off the clock, right after.
    chunks: List[Tuple[float, float, float]] = field(default_factory=list)
    traced_busy_s: float = 0.0
    #: Simulated cost per request over the phase's fixed window.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Resident set when step ``phase.rss_steps`` completed.
    rss_mb: float = 0.0


def run_phase(phase: Phase, seconds: float, first_step: int, tally: Tally,
              tracer: Optional[trace.Tracer] = None) -> PhaseResult:
    """Step ``phase`` for ``seconds`` of timed calls, in SEGMENTS slices.

    Only ``phase.step`` is on the clock; the oracle runs between steps.
    The first ``phase.sim_steps`` steps are the simulated-cost window, and
    memory is read when step ``phase.rss_steps`` completes: both are counts,
    so neither moves with the host's speed the way the run's length does.
    With a tracer, every second slice runs under its shims (the caller
    switches it off when the load is over).

    The host changes pace within a slice, so its speed is sampled after
    every ``CHUNK_S`` of steps and each chunk is scaled by its own sample:
    over eight runs of one commit that halved to quartered the spread of
    one sample per slice (and raw rates spread 2-6x wider still).
    """
    budget = seconds / SEGMENTS
    result = PhaseResult()
    k, window_end = first_step, first_step + phase.sim_steps
    rss_mark = first_step + phase.rss_steps
    before = phase.ledger()
    for segment in range(SEGMENTS):
        traced = tracer is not None and segment % 2 == 1
        if tracer is not None:
            tracer.switch(traced)
        # The wall clock ends a slice, so a run is as long on a slow host;
        # the CPU clock measures it (see ``probes.cpu_clock``).
        wall, busy, good = 0.0, 0.0, 0
        chunk_busy, chunk_good, chunk = 0.0, 0, []
        more = True
        while more:
            if traced:
                tracer.rec.current_wave = k
                span = tracer.rec.begin(tracer.loadgen)
            wall_start, start = time.perf_counter(), probes.cpu_clock()
            out = phase.step(k)
            elapsed = probes.cpu_clock() - start
            wall += time.perf_counter() - wall_start
            if traced:
                tracer.rec.finish(span)
            else:
                result.latencies.append(elapsed)
            verdict = phase.check(k, out)
            tally.add(verdict)
            k += 1
            if k == window_end:
                result.sim = _sim_delta(
                    before, phase.ledger(),
                    phase.sim_steps * phase.requests_per_step)
            if k == rss_mark:
                result.rss_mb = rss_mb()
            more = wall < budget or k < window_end
            chunk.append(elapsed)
            chunk_busy += elapsed
            chunk_good += verdict[0]
            if chunk_busy >= CHUNK_S or not more:
                host = probes.host_speed(HOST_SAMPLE_S)
                if not traced:
                    result.chunks.append((chunk_good / chunk_busy,
                                          float(np.median(chunk)), host))
                busy, good = busy + chunk_busy, good + chunk_good
                chunk_busy, chunk_good, chunk = 0.0, 0, []
        if traced:
            result.traced_rates.append(good / busy)
            result.traced_busy_s += wall  # spans are on the wall clock
        else:
            result.rates.append(good / busy)
    if k < rss_mark:  # a run too short to reach the mark reads at its end
        result.rss_mb = rss_mb()
    return result


def closed_loop(workload: Workload, seconds: float, tally: Tally,
                tracer: Optional[trace.Tracer] = None,
                release: bool = False) -> List[PhaseResult]:
    """Warm up and measure every phase, splitting ``seconds`` equally."""
    phases = workload.phases()
    results = []
    for phase in phases:
        for k in range(1, 1 + workload.warmup_steps):
            tally.add(phase.check(k, phase.step(k)))
        results.append(run_phase(phase, seconds / len(phases),
                                 1 + workload.warmup_steps, tally, tracer))
        if release:
            phase.finish()
    return results


def combine(results: Sequence[PhaseResult]) -> Dict[str, float]:
    """One number per metric.

    Each chunk's host-clock numbers are scaled to the reference host by
    its own host-speed sample and a phase reports their quiet quartile;
    several phases then combine by geometric mean (host clocks) or plain
    mean (simulated cost).
    """
    chunks = [np.asarray(r.chunks).T for r in results]
    index = [float(np.median(host)) for _, _, host in chunks]
    rate = [quiet_rate(r.rates) for r in results]
    p50 = [quiet_latency(np.asarray(r.latencies), 50) * 1e3 for r in results]
    p95 = [quiet_latency(np.asarray(r.latencies), 95) * 1e3 * host
           for r, host in zip(results, index)]
    out = {
        "throughput_rps": probes.geomean(
            [quiet_rate(good / host) for good, _, host in chunks]),
        "latency_p50_ms": probes.geomean(
            [float(np.percentile(step * host, 25)) * 1e3
             for _, step, host in chunks]),
        "latency_p95_ms": probes.geomean(p95),
        "raw_throughput_rps": probes.geomean(rate),
        "raw_latency_p50_ms": probes.geomean(p50),
        "host_index": probes.geomean(index),
        "drift_ratio": probes.geomean([drift(r.rates) for r in results]),
        "rss_mb": results[0].rss_mb,
    }
    if results[0].traced_rates:
        out["traced_rps"] = probes.geomean(
            [quiet_rate(r.traced_rates) for r in results])
    for key in results[0].sim:
        out[f"sim.{key}"] = float(np.mean([r.sim[key] for r in results]))
    return out


def _tiers_for(workload: Any) -> probes.Tiers:
    matrix, element_size, input_bits, _ = workload.check_wave()
    return probes.Tiers(
        [("w", matrix)], element_size, input_bits,
        probes.roomy_chip(workload.paper_tiles), workload.tiers,
        make_pool=workload.make_pool, make_server=workload.make_server,
    )


def _end_to_end(numbers: Dict[str, float], tally: Tally, setup_s: float
                ) -> Dict[str, float]:
    return {
        "throughput_rps": numbers["throughput_rps"],
        "ok_share": 1.0 - tally.failed_share,
        "setup_s": setup_s,
        "peak_rss_mb": numbers["rss_mb"],
        "sim_cycles_per_request": numbers["sim.cycles"],
        "sim_energy_pj_per_request": numbers["sim.energy_pj"],
    }


def untraced_in_process(workload: Workload, seconds: float
                        ) -> Tuple[Dict[str, float], Tally, bool]:
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start = probes.cpu_clock()
        workload.setup()
        elapsed = probes.cpu_clock() - start
        setups.append(elapsed * probes.host_speed())
    setup_s = float(np.median(setups))
    tally = Tally()
    numbers = combine(closed_loop(workload, seconds, tally, release=True))
    matrix, _, _, vectors = workload.check_wave()
    tiers = _tiers_for(workload)
    try:
        identical = probes.identical_rows(tiers, "w", vectors,
                                          vectors @ matrix)
    finally:
        tiers.close()
        workload.teardown()
    return _end_to_end(numbers, tally, setup_s), tally, identical


# --------------------------------------------------------------------- #
# Per-layer metrics shared by both traced passes                          #
# --------------------------------------------------------------------- #
Summary = Dict[str, Dict[str, Any]]


def _ms_p50(summary: Summary, name: str) -> float:
    row = summary.get(name)
    return probes.p50(row["durations"]) * 1e3 if row else 0.0


def _layer_sum(summary: Summary, layer: str, key: str) -> float:
    return float(sum(row[key] for name, row in summary.items()
                     if name.startswith(layer + ".")))


def _exec_metrics(summary: Summary, wall_s: float) -> Dict[str, float]:
    """session./pool./server. numbers read from one traced run's spans."""
    def row(name: str) -> Dict[str, Any]:
        return summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    session, pool = row("session.exec"), row("pool.exec")
    submit, tick = row("server.submit"), row("server.tick")
    pool_self = _layer_sum(summary, "pool", "self_s")
    server_self = _layer_sum(summary, "server", "self_s")
    return {
        "session.exec_calls": session["calls"],
        "session.exec_busy_s": session["busy_s"],
        "session.exec_ms_p50": _ms_p50(summary, "session.exec"),
        "pool.exec_calls": pool["calls"],
        "pool.exec_busy_s": pool["busy_s"],
        "pool.self_s": pool_self,
        "pool.self_share": pool_self / wall_s,
        "pool.exec_ms_p50": _ms_p50(summary, "pool.exec"),
        "pool.shards_per_call":
            session["calls"] / pool["calls"] if pool["calls"] else 0.0,
        "server.submit_busy_s": submit["busy_s"],
        "server.tick_calls": tick["calls"],
        "server.tick_busy_s": tick["busy_s"],
        "server.self_s": server_self,
        "server.self_share": server_self / wall_s,
    }


def _registration_metrics(tiers: probes.Tiers, top: str, name: str,
                          workload: Any, seed: int) -> Dict[str, float]:
    """Reprogram through the top tier under shims; read every tier below."""
    matrix, element_size, _, _ = workload.check_wave()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 8]))
    matrices = [signed_matrix(rng, matrix.shape, element_size)
                for _ in range(REGISTRATION_MATRICES)]
    tracer = trace.Tracer(tiers.layers(top), capacity=1 << 14)
    tracer.switch(True)
    try:
        probes.registration_probe(tiers, top, name, matrices)
    finally:
        tracer.switch(False)
    rec = tracer.rec
    rec.close()
    summary = trace.analyse(rec)
    new, reuse = trace.split_by_child(rec, "server.register",
                                      "pool.set_matrix")
    return {
        "session.set_matrix_ms_p50": _ms_p50(summary, "session.set_matrix"),
        "session.release_ms_p50": _ms_p50(summary, "session.release"),
        "plan.compile_ms_p50": _ms_p50(summary, "plan.compile"),
        "pool.set_matrix_ms_p50": _ms_p50(summary, "pool.set_matrix"),
        "pool.release_ms_p50": _ms_p50(summary, "pool.release"),
        "pool.compile_ms_p50": _ms_p50(summary, "pool.compile"),
        "server.register_new_ms_p50": probes.p50(new) * 1e3,
        "server.register_reuse_us_p50": probes.p50(reuse) * 1e6,
    }


def _counter_metrics(layers: Dict[str, Any], builds: int, exec_calls: int
                     ) -> Dict[str, float]:
    """Counts the program keeps itself (shims do not touch them).

    ``builds`` and ``exec_calls`` cover the same stretch of load; the
    pool's and server's own counters are lifetime totals.
    """
    out = {
        "plan.planner_builds": builds,
        "plan.plan_hit_share": 1.0 - builds / max(1, exec_calls),
    }
    pool = layers.get("pool")
    if pool is not None:
        out.update({
            "pool.integrity_checks": pool.integrity_checks,
            "pool.replica_retries": pool.replica_retries,
            "pool.reexecutions": pool.integrity_reexecutions,
        })
    server = layers.get("server")
    if server is not None:
        stats = server.stats
        out.update({
            "server.batches": stats.batches,
            "server.batch_fill_mean": stats.mean_batch_fill,
            "server.queue_depth_max": stats.peak_queue_depth,
            "server.queue_scans": server.queue_scans(),
            "server.planner_builds": server.planner_builds(),
            "server.registration_reuses": server.registration_reuses,
            "server.shed": stats.shed,
            "server.rejected": stats.rejected,
            "server.failed": stats.failed,
            "server.latency_ticks_p95": stats.latency_percentile(95),
        })
    return out


def _backend_metrics(workload: Any, seed: int) -> Dict[str, float]:
    chip = probes.roomy_chip(workload.paper_tiles)
    backend = probes.backend_probe(workload.probe_shapes(), chip, seed)
    return {
        "plan.accounting_ms_p50": backend["accounting"],
        "plan.exact_ms_p50": backend["exact"],
        "plan.general_ms_p50": backend["general"],
        "analog.arithmetic_ms_p50": backend["exact"] - backend["accounting"],
        "analog.macs_per_request": backend["macs"],
        "analog.bitplanes_per_request": backend["bitplanes"],
    }


def _sim_metrics(sim: Dict[str, float]) -> Dict[str, float]:
    return {
        "sim.ace_cycles_per_request": sim["ace_cycles"],
        "sim.dce_cycles_per_request": sim["dce_cycles"],
        "sim.ace_energy_pj_per_request": sim["ace_energy_pj"],
        "sim.dce_energy_pj_per_request": sim["dce_energy_pj"],
    }


def _loadgen_metrics(tally: Tally, overhead: float,
                     numbers: Dict[str, float], summary: Summary,
                     wall_s: float, dropped: int) -> Dict[str, float]:
    layers = ("loadgen", "server", "pool", "session", "plan")
    attributed = sum(_layer_sum(summary, layer, "self_s") for layer in layers)
    return {
        "loadgen.self_s": _layer_sum(summary, "loadgen", "self_s"),
        "loadgen.trace_overhead_share": overhead,
        "loadgen.drift_ratio": numbers["drift_ratio"],
        "loadgen.host_speed_index": numbers["host_index"],
        "loadgen.raw_throughput_rps": numbers["raw_throughput_rps"],
        "loadgen.latency_p50_ms": numbers["latency_p50_ms"],
        "loadgen.latency_p95_ms": numbers["latency_p95_ms"],
        "loadgen.raw_latency_p50_ms": numbers["raw_latency_p50_ms"],
        "loadgen.ladder_residual_share": 1.0 - attributed / wall_s,
        "loadgen.traced_wall_s": wall_s,
        "loadgen.loadavg_1m": os.getloadavg()[0],
        "loadgen.failed_share": tally.failed_share,
        "loadgen.refused": tally.refused,
        "loadgen.wrong": tally.wrong,
        "loadgen.spans_dropped": dropped,
    }


# --------------------------------------------------------------------- #
# Traced pass, in process                                                 #
# --------------------------------------------------------------------- #
def _unpinned_pool_ms(workload: Any, cpus: Sequence[int]) -> float:
    """ms p50 of the pool call with the process free to use every CPU."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        samples = []
        for k in range(UNPINNED_CALLS):
            start = time.perf_counter()
            workload.step(k)
            samples.append(time.perf_counter() - start)
        return probes.p50(samples[len(samples) // 5:]) * 1e3
    finally:
        os.sched_setaffinity(0, pinned)


def traced_in_process(workload: Workload, seed: int, seconds: float,
                      cpus: Sequence[int]
                      ) -> Tuple[Dict[str, float], Tally, bool]:
    workload.setup()
    layers = workload.layers()
    tracer = trace.Tracer(layers)
    tally = Tally()
    builds = workload.planner_builds()
    try:
        results = closed_loop(workload, TRACED_LOAD_SHARE * seconds, tally,
                              tracer)
    finally:
        tracer.switch(False)
    rec = tracer.rec
    rec.close()
    builds = workload.planner_builds() - builds
    numbers = combine(results)
    wall_s = sum(result.traced_busy_s for result in results)
    summary = trace.analyse(rec)
    trace.write_trace(RESULTS_DIR / f"trace_{workload.name}.json",
                      workload.name, seed, rec, summary)

    metrics = _exec_metrics(summary, wall_s)
    # Builds are counted over every slice, calls on the traced half only.
    metrics.update(_counter_metrics(
        layers, builds, 2 * int(metrics["session.exec_calls"])))
    metrics.update(_sim_metrics(
        {key[4:]: value for key, value in numbers.items()
         if key.startswith("sim.")}))
    metrics.update(_loadgen_metrics(
        tally, 1.0 - numbers["traced_rps"] / numbers["raw_throughput_rps"],
        numbers, summary, wall_s, rec.dropped))
    if workload.name == "pool_sharded":
        metrics["pool.exec_unpinned_ms_p50"] = _unpinned_pool_ms(
            workload, cpus)
    workload.teardown()

    matrix, _, _, vectors = workload.check_wave()
    tiers = _tiers_for(workload)
    try:
        identical = probes.identical_rows(tiers, "w", vectors,
                                          vectors @ matrix)
        metrics.update(_registration_metrics(
            tiers, workload.tiers[-1], "w", workload, seed))
    finally:
        tiers.close()
    metrics.update(_backend_metrics(workload, seed))
    return metrics, tally, identical


# --------------------------------------------------------------------- #
# Cluster load generators                                                 #
# --------------------------------------------------------------------- #
@dataclass
class WaveLog:
    """Per-wave times of one cluster run (seconds on ``perf_counter``)."""

    origin: float = 0.0
    span_s: float = 0.0
    due: List[float] = field(default_factory=list)
    started: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    futures: List[List[asyncio.Future]] = field(default_factory=list)
    #: Resident set (generator plus largest worker) at the memory mark.
    rss_mb: float = 0.0
    #: ``(perf_counter, stolen_s)`` at the start, each new slice and the end.
    stolen: List[Tuple[float, float]] = field(default_factory=list)
    slice: int = -1

    def enter(self, segment: int) -> None:
        if segment != self.slice:
            self.slice = segment
            self.stolen.append((time.perf_counter(), stolen_s()))


async def _submit(workload: ClusterWorkload, gateway: Any, k: int,
                  tally: Tally, log: WaveLog, on_done: Any,
                  tracer: Optional[trace.Tracer], segment: int) -> None:
    """Submit wave ``k``, waiting out refusals (each one is counted)."""
    name, vectors, _ = workload.wave(k)
    traced = tracer is not None and segment % 2 == 1
    if tracer is not None:
        tracer.switch(traced)
        tracer.rec.current_wave = k
    log.traced.append(traced)
    log.enter(segment)
    while True:
        tally.sent += len(vectors)
        try:
            futures = await gateway.submit_batch(
                name, vectors, input_bits=workload.INPUT_BITS)
            break
        except AdmissionError:  # CircuitOpenError is a subclass
            tally.refused += len(vectors)
            await asyncio.sleep(REFUSAL_WAIT)
    # A batch's futures resolve together, in row order: the last one's
    # callback marks the wave's last resolved future.
    futures[-1].add_done_callback(on_done)
    log.futures.append(futures)


async def open_loop(workload: Any, gateway: Any, seconds: float,
                    tally: Tally, tracer: Optional[trace.Tracer] = None
                    ) -> WaveLog:
    """Poisson arrivals on a fixed schedule, whatever the cluster does."""
    offsets = workload.due_times(seconds)
    log = WaveLog(origin=time.perf_counter() + 0.005, span_s=seconds,
                  done=[0.0] * len(offsets))
    for k, offset in enumerate(offsets):
        due = log.origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        log.due.append(due)
        log.started.append(time.perf_counter())

        def on_done(_future: asyncio.Future, k: int = k) -> None:
            log.done[k] = time.perf_counter()

        await _submit(workload, gateway, k, tally, log, on_done, tracer,
                      min(SEGMENTS - 1, int(offset / log.span_s * SEGMENTS)))
    # The schedule fixes the wave count, so its end is the memory mark.
    log.rss_mb = rss_with_workers_mb()
    log.enter(SEGMENTS)
    return log


async def saturate(workload: Any, gateway: Any, seconds: float,
                   tally: Tally, tracer: Optional[trace.Tracer] = None
                   ) -> WaveLog:
    """Back-to-back waves, at most ``OUTSTANDING`` of them in flight."""
    log = WaveLog(origin=time.perf_counter(), span_s=seconds)
    slots = asyncio.Semaphore(workload.OUTSTANDING)
    k = 0
    while True:
        await slots.acquire()
        now = time.perf_counter()
        if now - log.origin >= seconds and k >= 2 * SEGMENTS:
            break
        log.done.append(0.0)
        log.started.append(now)
        log.due.append(now)

        def on_done(_future: asyncio.Future, k: int = k) -> None:
            log.done[k] = time.perf_counter()
            slots.release()

        await _submit(workload, gateway, k, tally, log, on_done, tracer,
                      int((now - log.origin) / seconds * SEGMENTS))
        k += 1
        if k == workload.RSS_WAVES:
            log.rss_mb = rss_with_workers_mb()
    if k < workload.RSS_WAVES:
        log.rss_mb = rss_with_workers_mb()
    log.enter(SEGMENTS)
    return log


async def settle(workload: ClusterWorkload, log: WaveLog, tally: Tally
                 ) -> Tuple[np.ndarray, List[int]]:
    """Await every future, then run the oracle off the clock.

    Returns a per-wave flag (every row ok and equal to ``x @ W``) and the
    answering worker of every wave.
    """
    flat = [future for futures in log.futures for future in futures]
    await asyncio.wait_for(asyncio.gather(*flat), timeout=60.0)
    good = np.zeros(len(log.futures), dtype=bool)
    workers = []
    for k, futures in enumerate(log.futures):
        responses = [future.result() for future in futures]
        workers.append(responses[0].worker_id)
        if all(response.ok for response in responses):
            rows = np.stack([response.result for response in responses])
            wrong = int((rows != workload.wave(k)[2]).any(axis=1).sum())
            verdict = (len(responses) - wrong, wrong, 0)
        else:
            verdict = (0, 0, len(responses))
        # The attempt was counted in ``sent`` when it was submitted.
        tally.succeeded += verdict[0]
        tally.wrong += verdict[1]
        tally.not_ok += verdict[2]
        good[k] = verdict[0] == len(responses)
    return good, workers


def cluster_numbers(workload: Any, log: WaveLog, good: np.ndarray
                    ) -> Dict[str, float]:
    """Throughput and wave latency from a settled :class:`WaveLog`.

    Open loop: a wave counts, in the slice it was due in, if it was right
    and finished within ``LIMIT_S`` of its due time (goodput).  Saturate:
    a right wave counts in the slice it finished in, and as the processes
    never wait there except for a CPU, a slice's length is the part of it
    the hypervisor left this VM its CPUs (``stolen_s``); wave latency is
    scaled by that share of the whole run.  An open loop mostly waits, so
    its clock is the wall's.  Nothing here is scaled by a host-speed
    index: a gateway and two workers share two CPUs, and no one thread's
    speed describes the host they see (scaling by one doubled the
    run-to-run spread).
    """
    due, done = np.asarray(log.due), np.asarray(log.done)
    traced = np.asarray(log.traced)
    latency = done - due
    open_looped = hasattr(workload, "LIMIT_S")
    if open_looped:
        stamp, counted = due, good & (latency <= workload.LIMIT_S)
    else:
        stamp, counted = done, good
    edges = log.origin + np.linspace(0.0, log.span_s, SEGMENTS + 1)
    wall = np.diff(edges)
    waves = np.histogram(stamp[counted], edges)[0]
    ours = wall
    if not open_looped:
        lost = np.diff(np.interp(edges, *zip(*log.stolen)))
        ours = np.maximum(wall - lost, 0.1 * wall)
    per_slice = waves * workload.WAVE_ROWS / ours
    odd = np.arange(SEGMENTS) % 2 == 1
    untraced = ~odd if traced.any() else np.ones(SEGMENTS, dtype=bool)
    untraced_rates = per_slice[untraced]
    late = (np.asarray(log.started) - due) * 1e3
    # An open loop's CPUs idle between waves, and how long a wakeup takes
    # is the host's affair: over ten runs, three of them beside a busy
    # neighbour, the lower quartile of the slices spread 23 % and the
    # lower decile 12 %.
    quietest = 10 if open_looped else 25
    raw_p50 = quiet_latency(latency[~traced], 50, quietest) * 1e3
    out = {
        "throughput_rps": quiet_rate(untraced_rates),
        "raw_throughput_rps": quiet_rate(
            (waves * workload.WAVE_ROWS / wall)[untraced]),
        "rss_mb": log.rss_mb,
        "latency_p50_ms": raw_p50 * ours.sum() / wall.sum(),
        "raw_latency_p50_ms": raw_p50,
        "latency_p95_ms": quiet_latency(latency[~traced], 95) * 1e3,
        "latency_p99_ms": float(np.percentile(latency[~traced], 99)) * 1e3,
        "drift_ratio": drift(untraced_rates),
        "late_ms_p50": float(np.percentile(late, 50)),
        "late_ms_p99": float(np.percentile(late, 99)),
    }
    if open_looped:
        # The schedule sets the rate and slices only differ by Poisson
        # luck: goodput is over the whole run, origin to last good answer.
        out["throughput_rps"] = out["raw_throughput_rps"] = float(
            counted.sum() * workload.WAVE_ROWS
            / (done[counted].max() - log.origin)) if counted.any() else 0.0
    if traced.any():
        out["traced_rps"] = quiet_rate(per_slice[odd])
        out["traced_raw_p50_ms"] = \
            quiet_latency(latency[traced], 50, quietest) * 1e3
    return out


async def cluster_setup(workload: ClusterWorkload
                        ) -> Tuple[Any, float, float]:
    """Start, register and answer one verified wave.

    Returns ``(gateway, start_s, setup_s)``; the gateway is closed again
    if anything on the way fails.  ``start_s`` is wall seconds.  ``setup_s``
    is the CPU seconds the gateway's process and its workers spent: a vCPU
    that was idle a moment ago takes 1.4x the wall time over the same
    set-up, for seconds on end, and the same CPU time to 2 %.
    """
    gateway = workload.make_gateway()
    begin, begin_cpu = time.perf_counter(), probes.cpu_clock()
    await gateway.start()
    start_s = time.perf_counter() - begin
    try:
        await workload.register(gateway)
        name, vectors, expected = workload.wave(0)
        responses = await asyncio.gather(*await gateway.submit_batch(
            name, vectors, input_bits=workload.INPUT_BITS))
        if not all(response.ok for response in responses) or \
                not np.array_equal(
                    np.stack([r.result for r in responses]), expected):
            raise RuntimeError(f"{workload.name}: first answer failed")
    except BaseException:
        await gateway.close()
        raise
    return gateway, start_s, \
        probes.cpu_clock() - begin_cpu + sum(map(cpu_s, _worker_pids()))


def _cluster_tiers(workload: ClusterWorkload) -> probes.Tiers:
    from repro.runtime.cluster import build_worker_server

    spec = workload.worker_spec()
    chip = ChipConfig(hct=HctConfig.small(), num_hcts=spec["num_hcts"])
    return probes.Tiers(
        [(f"m{index}", matrix)
         for index, matrix in enumerate(workload.matrices)],
        workload.ELEMENT_SIZE, workload.INPUT_BITS, chip, workload.tiers,
        make_pool=lambda: DevicePool(num_devices=1, config=chip),
        make_server=lambda: build_worker_server(spec),
    )


#: Waves in the twin's simulated-cost window (fixed, so it repeats exactly).
TWIN_SIM_WAVES = 8


async def _cross_check(workload: ClusterWorkload, gateway: Any,
                       tiers: probes.Tiers) -> Tuple[bool, Dict[str, float]]:
    """One wave through all four tiers, then the twin's cost window."""
    name, vectors, expected = workload.wave(1)
    responses = await asyncio.gather(*await gateway.submit_batch(
        name, vectors, input_bits=workload.INPUT_BITS))
    through_gateway = np.stack([response.result for response in responses])
    identical = probes.identical_rows(tiers, name, vectors, expected,
                                      extra=through_gateway)
    ledger = tiers.server.pool.total_ledger
    before = ledger()
    for k in range(TWIN_SIM_WAVES):
        tiers.served(*workload.wave(k)[:2])
    sim = _sim_delta(before, ledger(), TWIN_SIM_WAVES * workload.WAVE_ROWS)
    return identical, sim


async def untraced_cluster(workload: Any, seconds: float
                           ) -> Tuple[Dict[str, float], Tally, bool]:
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            await gateway.close()
        gateway, _, setup_s = await cluster_setup(workload)
        setups.append(setup_s)
    setup_s = float(np.median(setups))
    tiers = None
    try:
        tally = Tally()
        drive = open_loop if hasattr(workload, "LIMIT_S") else saturate
        log = await drive(workload, gateway, seconds, tally)
        good, _ = await settle(workload, log, tally)
        numbers = cluster_numbers(workload, log, good)
        tiers = _cluster_tiers(workload)
        identical, sim = await _cross_check(workload, gateway, tiers)
    finally:
        if tiers is not None:
            tiers.close()
        await gateway.close()
    numbers.update({f"sim.{key}": value for key, value in sim.items()})
    return _end_to_end(numbers, tally, setup_s), tally, identical


# --------------------------------------------------------------------- #
# Traced pass, cluster                                                    #
# --------------------------------------------------------------------- #
#: Waves each ladder tier (and the one-at-a-time gateway probe) answers.
LADDER_WAVES = 200


async def _round_trips(workload: ClusterWorkload, gateway: Any
                       ) -> List[float]:
    samples = []
    for k in range(LADDER_WAVES):
        name, vectors, _ = workload.wave(k)
        start = time.perf_counter()
        await asyncio.gather(*await gateway.submit_batch(
            name, vectors, input_bits=workload.INPUT_BITS))
        samples.append(time.perf_counter() - start)
    return samples


async def _gateway_registrations(workload: ClusterWorkload, gateway: Any,
                                 seed: int) -> List[float]:
    """Seconds per reprogramming of one name on both replicas."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    samples = []
    for _ in range(8):
        matrix = signed_matrix(rng, workload.SHAPE, workload.ELEMENT_SIZE)
        start = time.perf_counter()
        await gateway.register_matrix(
            "m3", matrix, element_size=workload.ELEMENT_SIZE,
            input_bits=workload.INPUT_BITS)
        samples.append(time.perf_counter() - start)
    return samples


def _ladder(workload: ClusterWorkload, tiers: probes.Tiers
            ) -> Tuple[Dict[str, float], trace.Recorder, float, int]:
    """ms p50 per tier, then the server tier (the worker's twin) again
    under shims.  Also returns that run's recorder, wall seconds and the
    plans it built."""
    waves = [workload.wave(k) for k in range(LADDER_WAVES)]
    calls = tiers.calls()
    probes.time_tier(calls["server"], waves[:20])
    tier_ms = {
        tier: probes.p50(probes.time_tier(calls[tier], waves)) * 1e3
        for tier in ("session", "pool", "server")
    }
    tracer = trace.Tracer(tiers.layers("server"), capacity=1 << 16)
    builds = tiers.server.planner_builds()
    tracer.switch(True)
    wall = 0.0
    try:
        for k, (name, vectors, _) in enumerate(waves):
            tracer.rec.current_wave = k
            span = tracer.rec.begin(tracer.loadgen)
            start = time.perf_counter()
            calls["server"](name, vectors)
            wall += time.perf_counter() - start
            tracer.rec.finish(span)
    finally:
        tracer.switch(False)
    tracer.rec.close()
    return (tier_ms, tracer.rec, wall,
            tiers.server.planner_builds() - builds)


async def traced_cluster(workload: Any, seed: int, seconds: float
                         ) -> Tuple[Dict[str, float], Tally, bool]:
    from repro.runtime.cluster import build_worker_server

    open_looped = hasattr(workload, "LIMIT_S")
    gateway, start_s, _ = await cluster_setup(workload)
    tiers = None
    closed = False
    try:
        tracer = trace.Tracer({"gateway": gateway})
        tally = Tally()
        try:
            drive = open_loop if open_looped else saturate
            host = host_samples()
            log = await drive(workload, gateway,
                              TRACED_LOAD_SHARE * seconds, tally, tracer)
            good, workers = await settle(workload, log, tally)
        finally:
            tracer.switch(False)
        rec = tracer.rec
        rec.close()
        numbers = cluster_numbers(workload, log, good)
        numbers["host_index"] = quiet_rate(host + host_samples())
        summary = trace.analyse(rec)
        energy = [future.result().energy_pj
                  for futures in log.futures for future in futures]
        stats = gateway.stats.snapshot()

        round_trips = await _round_trips(workload, gateway)
        tiers = _cluster_tiers(workload)
        identical, sim = await _cross_check(workload, gateway, tiers)
        tier_ms, twin_rec, twin_wall, twin_builds = _ladder(workload, tiers)
        twin_summary = trace.analyse(twin_rec)
        trace.write_trace(RESULTS_DIR / f"trace_{workload.name}.json",
                          workload.name, seed, rec, summary)
        trace.write_trace(RESULTS_DIR / f"trace_{workload.name}_twin.json",
                          workload.name, seed, twin_rec, twin_summary)
        registrations = await _gateway_registrations(workload, gateway, seed)
        duplicates = 0
        for worker_id in range(workload.GATEWAY["num_workers"]):
            drained = await gateway.drain_worker(worker_id)
            duplicates += int(drained.get("duplicates_suppressed", 0))
        begin = time.perf_counter()
        await gateway.close()
        close_s = time.perf_counter() - begin
        closed = True

        metrics = _exec_metrics(twin_summary, twin_wall)
        metrics.update(_counter_metrics(
            tiers.layers("server"), twin_builds,
            int(metrics["session.exec_calls"])))
        metrics.update(_registration_metrics(
            tiers, "server", "m0", workload, seed))
    finally:
        if tiers is not None:
            tiers.close()
        if not closed:
            await gateway.close()

    builds = []
    for _ in range(3):
        begin = time.perf_counter()
        server = build_worker_server(workload.worker_spec())
        builds.append(time.perf_counter() - begin)
        server.pool.close()
    wire = probes.message_probe(workload.vectors[0], workload.expected[0])
    rtt_ms = probes.p50(round_trips) * 1e3
    unattributed = (rtt_ms - tier_ms["server"] - wire["per_wave_messages_ms"]
                    - wire["per_wave_transport_ms"])
    # An open loop's rate is its schedule, so there tracing shows in latency.
    overhead = \
        1.0 - numbers["raw_latency_p50_ms"] / numbers["traced_raw_p50_ms"] \
        if open_looped else \
        1.0 - numbers["traced_rps"] / numbers["throughput_rps"]
    metrics.update(_sim_metrics(sim))
    metrics.update(_backend_metrics(workload, seed))
    metrics.update(_loadgen_metrics(
        tally, overhead, numbers, twin_summary, twin_wall,
        rec.dropped + twin_rec.dropped))
    metrics.update({
        "messages.encode_us_p50": wire["encode_us"],
        "messages.decode_us_p50": wire["decode_us"],
        "messages.submit_frame_bytes": wire["submit_bytes"],
        "messages.results_frame_bytes": wire["results_bytes"],
        "messages.header_bytes": wire["header_bytes"],
        "messages.self_s": _layer_sum(summary, "messages", "self_s"),
        "transport.push_us_p50": wire["push_us"],
        "transport.peek_advance_us_p50": wire["peek_advance_us"],
        "transport.roundtrip_us_p50": wire["roundtrip_us"],
        "transport.self_s": _layer_sum(summary, "transport", "self_s"),
        "ladder.session_wave_ms_p50": tier_ms["session"],
        "ladder.pool_wave_ms_p50": tier_ms["pool"],
        "worker.build_server_ms": probes.p50(builds) * 1e3,
        "worker.twin_wave_ms_p50": tier_ms["server"],
        "worker.sim_energy_pj_per_request": float(np.mean(energy)),
        "worker.duplicates_suppressed": duplicates,
        "gateway.start_s": start_s,
        "gateway.close_s": close_s,
        "gateway.register_ms_p50": probes.p50(registrations) * 1e3,
        "gateway.submit_call_us_p50":
            _ms_p50(summary, "gateway.submit") * 1e3,
        "gateway.self_s": _layer_sum(summary, "gateway", "self_s"),
        "gateway.rtt_ms_p50": rtt_ms,
        "gateway.unattributed_ms_p50": unattributed,
        "gateway.unattributed_share": unattributed / rtt_ms,
        "gateway.latency_p99_ms": numbers["latency_p99_ms"],
        "gateway.busiest_worker_share":
            max(np.bincount(workers)) / len(workers),
        "loadgen.late_ms_p50": numbers["late_ms_p50"],
        "loadgen.late_ms_p99": numbers["late_ms_p99"],
    })
    for key in ("batches", "shed", "transport_errors", "retried_batches",
                "hedged_batches", "batch_timeouts", "duplicate_replies",
                "worker_failures"):
        metrics[f"gateway.{key}"] = stats[key]
    return metrics, tally, identical


# --------------------------------------------------------------------- #
# Entry point                                                             #
# --------------------------------------------------------------------- #
def run(name: str, seed: int, seconds: float, traced: bool, spec: Spec,
        cpus: Sequence[int]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one pass of one workload.

    Returns the driver's result object and the request tally behind it.
    ``cpus`` is the affinity the process started with (a pinned workload
    is handed back to it for the unpinned pool probe).
    """
    if name in IN_PROCESS:
        workload = IN_PROCESS[name](seed)
        metrics, tally, identical = (
            traced_in_process(workload, seed, seconds, cpus) if traced
            else untraced_in_process(workload, seconds))
    else:
        workload = CLUSTER[name](seed)
        metrics, tally, identical = asyncio.run(
            traced_cluster(workload, seed, seconds) if traced
            else untraced_cluster(workload, seconds))
    listed = spec.per_layer if traced else spec.end_to_end
    unknown = sorted(set(metrics) - set(listed))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    failed = tally.wrong + tally.not_ok
    result = {
        "correct": bool(identical and failed == 0),
        "attempted": tally.sent - tally.refused,
        "failed": failed,
        # A per-layer metric of a layer the workload never reaches reads 0.
        "metrics": {
            metric: {"value": float(metrics.get(metric, 0.0)),
                     "unit": listed[metric]["unit"]}
            for metric in listed
        },
    }
    return result, {
        "sent": tally.sent, "succeeded": tally.succeeded,
        "refused": tally.refused, "wrong": tally.wrong,
        "not_ok": tally.not_ok, "tiers_identical": bool(identical),
    }
