"""Profile the serving hot path and print the top cumulative hot spots.

Runs a representative dynamic-batching serving workload -- one registered
64x64 matrix, waves of single-vector requests coalesced by the scheduler --
under :mod:`cProfile` and prints the top-20 functions by cumulative time.
This is the profile-guided loop behind the vectorized execution engine:
whatever tops this list is the next optimisation target.

The ``device-call`` mode zooms into the bottom of that stack: one
steady-state ``DarthPumDevice.exec_mvm_batch`` on the proven-exact path at
the three paper shapes and at an 8-tile row band, as untraced wall time and
function calls per call *and per tile*, and the share that goes to the
tile state besides the ledger (registers, arbiter, counters), input
validation, the cost ledger and the arithmetic itself.  Three more rows price the same call at the paper shapes under
``NoiseConfig.paper_default()``, where the general path runs: untraced
microseconds, and stopwatch time in the read-noise draw, the column-sum
matmuls, the noise term and the ADC.

The ``pool-call`` mode prices the tier above it: one steady-state
``DevicePool.exec_mvm_batch`` at batch 16 against a single-band allocation
and against the layerbench ``pool_sharded`` layout (2 bands x 2 replicas,
``verify="full"``), as untraced microseconds and Python-level calls, each
split into the pool's own frames and the device calls underneath.

The ``server-round`` mode prices the tier above that: one steady-state
``submit_batch(64)`` per tenant plus ``run_until_idle()`` at 1 and 32
tenants (:func:`repro.testing.server_round`) -- untraced microseconds per
request, what ``result()`` on every row costs after the round
(``read_us_per_request``: the part of a row's cost that is paid when the row
is asked for) and what ``columns()`` on every wave costs instead, the same
batches through ``pool.exec_mvm_batch`` alone, the
server's share of the round, function calls per request split into
submit and drain, and the pool's own frames per dispatched batch -- plus
what a tick costs when nothing is due, and a
``submit`` row: the same 64 vectors admitted by 64 ``submit()`` calls, the
ingress a wave record cannot help.  With ``--profile`` it ends with the
cProfile listing of the 32-tenant tick loop.

The ``cluster-wave`` mode prices the tier above that: one 16-row wave of the
layerbench ``cluster_saturate`` workload through a gateway and one worker
that share this process (:class:`ClusterWaveTwin`: real shared-memory rings,
doorbells and heartbeat board; no second process, no event-loop turn between
the stages) -- untraced microseconds and ``sys.setprofile`` events (Python
calls + C calls) for the gateway's submit, the worker's handling (whole,
outside its pool calls, and split into its stages: :data:`WORKER_STAGES`),
the gateway's resolve and a read of every row of the
resolved wave (what a caller that gathers the whole wave adds), with the
gateway's three hops summed.

The ``registration`` mode prices the write path: one 64x64 4-bit
``PumServer.register_matrix`` with new bytes (the layerbench
``tenant_churn`` tenant, reprogrammed in place) and the first wave against
it, then the same with the shape alternating every round (released and
placed anew: the path the in-place one bypasses) -- untraced microseconds
for each, minor page faults, Python calls, planner builds and crossbars
built per round, and stopwatch self time of each stage from the memo to
the first call's lazily built shard kernel and device plan.

Usage::

    make profile
    make hotpath
    # or directly:
    PYTHONPATH=src python benchmarks/profile_serving.py [num_requests]
    PYTHONPATH=src python benchmarks/profile_serving.py device-call
    PYTHONPATH=src python benchmarks/profile_serving.py pool-call
    PYTHONPATH=src python benchmarks/profile_serving.py server-round [--profile]
    PYTHONPATH=src python benchmarks/profile_serving.py cluster-wave
    PYTHONPATH=src python benchmarks/profile_serving.py registration
"""

from __future__ import annotations

import asyncio
import cProfile
import pstats
import resource
import sys
import time
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro import (
    ChipConfig,
    DarthPumDevice,
    DevicePool,
    HctConfig,
    PumServer,
    StaticBatchingPolicy,
)
from repro.analog import ace as ace_module
from repro.analog import kernels
from repro.analog.adc import AnalogToDigitalConverter
from repro.analog.crossbar import AnalogCrossbar
from repro.analog.numbers import DifferentialPairs
from repro.plan.planner import Planner
from repro.reram import ConductanceMapper, NoiseConfig
from repro.runtime import session as session_module
from repro.testing import DEVICE_CALL_SHAPES, profiled_calls, server_round

MATRIX_SHAPE = (64, 64)
INPUT_BITS = 8

DEVICE_CALL_BATCH = 32
#: Where a device call's non-arithmetic time goes: part -> (functions
#: counted with everything they call, functions counted by self time only;
#: one that calls another listed one on the exact path is counted by self
#: time, so nothing there is counted twice).  ``sync_us`` is the tile state a call leaves besides
#: its ledger: the accumulator register stores (``store_words``, which skips
#: a register still holding the entry's words; ``set_vr_words`` keeps the
#: words, their unpack into bit planes is paid only when a register is read:
#: ``flush_us``, timed apart) and the replay's counter updates
#: (``_replay``'s own time: one count on the program, or on an older
#: ``src/`` a walk over every crossbar and counter, and the arbiter
#: reservations: ``reserve`` and its ``acquire`` per output pipeline).  ``ledger_us`` is the
#: runtime charge (``charge_streams``, one frame; on an older ``src/`` the
#: same frame also added every tile ledger's per-category totals;
#: ``charge_stream``, which calls it, is not on the exact path).  What the
#: call counted and did not charge is folded by the first read after it:
#: ``settle_us``, timed apart over 1 000 calls (``arbiter_settle_us``: the
#: arbiters alone, over 10 000).  An older ``src/`` replays per tile through
#: ``_replay_receipt``, stores with ``set_vr_words``, ``set_vr_planes`` or
#: ``set_vr_bits``, reserves through ``acquire``, commits through
#: ``_commit_schedule`` (its ledger charge lands in ``ledger_us``) and
#: charges through ``charge_stream``, ``charge_run`` / ``issue_mvm_charges``
#: (a run list, energy runs one addition per unit), which is why those names
#: stay: on either side exactly one set runs on the profiled path.
DEVICE_CALL_PARTS = {
    "sync_us": (("set_vr_words", "set_vr_planes", "set_vr_bits", "acquire"),
                ("_replay", "store_words", "reserve", "_replay_receipt", "_commit_schedule")),
    "validate_us": (("validate_input_range",), ()),
    "ledger_us": (("charge", "charge_streams", "charge_stream", "charge_run", "snapshot"),
                  ("issue_mvm_charges",)),
}

#: The device-call shapes that also run under ``NoiseConfig.paper_default()``
#: (the layerbench ``kernel_paper_shapes`` noisy cells).
NOISY_CALL_LABELS = ("resnet_conv", "aes_mixcolumns", "encoder_projection")
#: Where a noisy call's time goes, by stopwatch around the stage's function:
#: the generator draws, the column sums of both planes, the rest of the
#: noise term (its matmul, root and products), the ADC pass.
NOISY_CALL_STAGES = ("draw_us", "sums_us", "noise_term_us", "adc_us")

POOL_CALL_BATCH = 16
#: Every steady-state pooled call ``pool-call`` prices: label -> (shape,
#: element size, input bits, pool keywords).  The first is the one-band call
#: a default ``PumServer`` makes per batch; the second is the layerbench
#: ``pool_sharded`` pool, where the band loop, the reduction and the ABFT
#: check all run.
POOL_CALL_SHAPES = {
    "encoder_projection": (*DEVICE_CALL_SHAPES["encoder_projection"][:3],
                           dict(num_devices=2)),
    "pool_sharded": ((256, 16), 4, 4, dict(
        num_devices=4, config=ChipConfig(hct=HctConfig.small(), num_hcts=8),
        replication=2, verify="full",
    )),
}

#: ``(tenants, ingress)`` of each ``server-round`` row.
SERVER_ROUND_ROWS = ((1, "submit_batch"), (32, "submit_batch"), (1, "submit"))

#: The layerbench ``cluster_saturate`` shapes: what each worker builds, what
#: it holds (four 24x16 4-bit matrices) and the 16-row waves it answers.
CLUSTER_WAVE_SPEC = dict(chip="small", num_hcts=12, noise=None, max_batch=16,
                         max_wait_ticks=1, num_devices=1, queue_capacity=4096)
CLUSTER_WAVE_MATRICES, CLUSTER_WAVE_SHAPE = 4, (24, 16)
CLUSTER_WAVE_BITS, CLUSTER_WAVE_ROWS = 4, 16
#: The worker's share of a wave, in the order ``worker_main`` spends it:
#: ``answer`` is ``_serve`` (front-door check, chunked pool calls, the
#: columns).  A ``src/`` whose worker still queues a SUBMIT on its server
#: and ticks it idle spends ``copy_submit`` and ``drain`` there instead.
WORKER_STAGES = ("peek", "decode", "answer", "result_frame", "advance_push",
                 "two_beats")
QUEUED_WORKER_STAGES = ("peek", "decode", "copy_submit", "drain", "result_frame",
                        "advance_push", "two_beats")


#: The layerbench ``tenant_churn`` tenant and wave.
REGISTRATION_SHAPE, REGISTRATION_BITS, REGISTRATION_ROWS = (64, 64), 4, 32
#: The ``registration`` rows: label -> the shapes the tenant's matrix cycles
#: through, one per round, always with new bytes.  ``same_shape`` is the
#: ``tenant_churn`` round (reprogrammed in place); ``new_shape`` alternates
#: two shapes, so every round releases and places the matrix anew -- the
#: path a same-shape round took before, and the bypass of the in-place one.
REGISTRATION_KINDS = {
    "same_shape": (REGISTRATION_SHAPE,),
    "new_shape": (REGISTRATION_SHAPE, (REGISTRATION_SHAPE[0], 48)),
}
#: Where a registration and the first call against it spend their time:
#: stage -> the functions whose self time (what no other listed function
#: covers) it sums, as ``(owner, name)``.  ``memo_compare`` is the server's
#: decision (the comparison with the live matrix); ``reprogram_rest`` the
#: in-place path's own bookkeeping (the range check, copies, checksums);
#: ``program`` the arrays' rewinds and writes and the ACE write body's own
#: time (its one charge per block);
#: ``register_rest`` is placement, the device and tile bookkeeping and the
#: pool's shard table; ``first_call`` is the wave itself once the kernel and
#: the device plan exist.  ``shard_kernel_build`` / ``device_plan_compile``
#: count a build and an in-place refresh alike.  A stage whose function an
#: older ``src/`` lacks reads 0.
REGISTRATION_STAGES = {
    "memo_compare": ((PumServer, "_holds"),),
    "reprogram_rest": ((DevicePool, "update_matrix"),
                       (session_module.DarthPumDevice, "update_matrix"),
                       (session_module.DarthPumDevice, "_rewrite"),
                       (ace_module.AnalogComputeElement, "reprogram")),
    "release": ((DevicePool, "release"),),
    "encode_slice_map": ((DifferentialPairs, "encode"), (DifferentialPairs, "planes"),
                         (ace_module, "slice_matrix"),
                         (ConductanceMapper, "value_to_conductance")),
    "crossbar_construct": ((ace_module.AnalogComputeElement, "_allocate_crossbar"),),
    "program": ((AnalogCrossbar, "program_differential"), (AnalogCrossbar, "_program"),
                (AnalogCrossbar, "rewind"), (ace_module.AnalogComputeElement, "_write")),
    "tile_plan_compile": ((Planner, "_build"),),
    "shard_kernel_build": ((ace_module, "build_shard_kernel"),
                           (kernels.ShardKernel, "refresh")),
    "device_plan_compile": ((session_module, "compile_device_plan"),
                            (session_module, "restack_device_plan")),
    "register_rest": ((PumServer, "register_matrix"),),
    "first_call": ((PumServer, "submit_batch"), (PumServer, "run_until_idle")),
}


def run_serving_workload(num_requests: int = 512) -> None:
    """Serve ``num_requests`` single-vector MVMs through the PumServer."""
    rng = np.random.default_rng(11)
    matrix = rng.integers(-100, 100, size=MATRIX_SHAPE)
    vectors = rng.integers(0, 2 ** INPUT_BITS, size=(num_requests, MATRIX_SHAPE[0]))

    server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(16, 2))
    server.register_matrix("proj", matrix, element_size=8)

    wave = server.queue_capacity
    for start in range(0, num_requests, wave):
        futures = [
            server.submit("proj", vector, input_bits=INPUT_BITS)
            for vector in vectors[start: start + wave]
        ]
        server.run_until_idle()
        for future in futures:
            assert future.result().ok


def steady_operands(shape, element_size: int, input_bits: int, batch: int):
    """The seeded ``(matrix, vectors)`` every steady-state call here runs."""
    rng = np.random.default_rng(11)
    low = -(1 << (element_size - 1)) if element_size > 1 else -1
    matrix = rng.integers(low, max(1, -low), size=shape)
    vectors = rng.integers(0, 1 << input_bits, size=(batch, shape[0]),
                           dtype=np.int64)
    return matrix, vectors


def device_call_at(label: str, backend: str = "vectorized", noise=None):
    """A zero-argument steady-state ``exec_mvm_batch`` at one device-call shape.

    Ideal chip (or ``noise``), plan compiled, three warm-up calls made: what
    is left is the per-batch cost every serving tier pays.  Also returns the
    device and allocation behind the call.
    """
    shape, element_size, input_bits, config = DEVICE_CALL_SHAPES[label]
    matrix, vectors = steady_operands(shape, element_size, input_bits,
                                      DEVICE_CALL_BATCH)
    device = DarthPumDevice(config=config, noise=noise)
    allocation = device.set_matrix(matrix, element_size=element_size, precision=0)
    device.compile(allocation, input_bits=input_bits)

    def call():
        return device.exec_mvm_batch(allocation, vectors, input_bits=input_bits,
                                     backend=backend)

    for _ in range(3):
        exact = noise is None and backend != "estimate"
        assert np.array_equal(call(), vectors @ matrix) or not exact
    return call, device, allocation


def best_call_us(call, repeats: int = 9, loops: int = 300) -> float:
    """Best-of-``repeats`` untraced wall microseconds per ``call()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, (time.perf_counter() - start) / loops)
    return best * 1e6


def count_events(events) -> tuple:
    """``(python_calls, c_calls)`` among :func:`profiled_calls` events."""
    kinds = [event for event, _ in events]
    # The closing ``sys.setprofile(None)`` is itself reported as a C call.
    return kinds.count("call"), kinds.count("c_call") - 1


def count_calls(call) -> tuple:
    """``(python_calls, c_calls)`` one ``call()`` makes, by ``sys.setprofile``."""
    return count_events(profiled_calls(call))


#: Frames that are a device call: ``exec_mvm_batch``, and the body past its
#: admission (``exec_admitted``), which a pool calls directly.
DEVICE_CALL_FRAMES = ("exec_mvm_batch", "exec_admitted")


def split_pool_frames(events) -> tuple:
    """``(pool_frames, device_frames, pooled_calls)`` among profiled events.

    A pooled call is an outermost ``exec_mvm_batch`` frame (the pool's);
    the device calls are the :data:`DEVICE_CALL_FRAMES` nested inside it.
    Pool frames are the Python-level calls inside a pooled call -- itself
    included -- that no device call covers; frames outside any pooled call
    (a server's, the caller's) are counted in neither.
    """
    nesting = []
    depth = pool_frames = device_frames = pooled_calls = 0
    for event, name in events:
        if event == "call":
            nesting.append(name in DEVICE_CALL_FRAMES)
            depth += nesting[-1]
            pooled_calls += nesting[-1] and depth == 1
            pool_frames += depth == 1
            device_frames += depth > 1
        elif event == "return" and nesting:
            depth -= nesting.pop()
    return pool_frames, device_frames, pooled_calls


def register_flush_us(call, device, allocation, input_bits: int,
                      loops: int = 2000) -> float:
    """Stopwatch microseconds per ``call()`` to read back the accumulator
    registers it left: one ``arrays`` access per output pipeline, which
    unpacks whatever words are pending (nothing is, on an older ``src/``)."""
    plan = device.device_plan(allocation, input_bits)
    pipelines = [pipeline for _, _, _, outputs in plan.tiles
                 for pipeline, _, _ in outputs]
    total = 0.0
    for _ in range(loops):
        call()
        start = time.perf_counter()
        for pipeline in pipelines:
            pipeline.arrays
        total += time.perf_counter() - start
    return total / loops * 1e6


def settle_us(call, device, allocation, calls: int = 1000, repeats: int = 5,
              arbiters_only: bool = False) -> float:
    """Best-of-``repeats`` stopwatch microseconds of one read of every
    target a call counts on -- each tile's ledger, IIU, transpose unit and
    arbiter and each crossbar of the allocation, or with ``arbiters_only``
    each tile's arbiter clock -- after ``calls`` steady calls: what folding
    ``calls`` pending calls costs (on an older ``src/``, which charged them
    during the calls, the read alone)."""
    blocks = [(hct, handle) for _, hct, handle in device._tiles(allocation)]
    crossbars = [] if arbiters_only else [hct.ace.crossbar(array_id) for hct, handle in blocks
                                          for array_id in handle.array_ids]
    best = float("inf")
    for _ in range(repeats):
        for _ in range(calls):
            call()
        start = time.perf_counter()
        for hct, _ in blocks:
            if arbiters_only:
                hct.arbiter.now
            else:
                (hct.ledger.cycle_units, hct.iiu.injections, hct.transpose_unit.vector_count,
                 hct.arbiter.now)
        for crossbar in crossbars:
            crossbar.mvm_count
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def device_call_breakdown(loops: int = 2000) -> None:
    """Print the per-call breakdown of the exact path at the device-call shapes."""
    print(f"# steady-state DarthPumDevice.exec_mvm_batch, exact path, batch "
          f"{DEVICE_CALL_BATCH}: us per call.  total/estimate/matmul are untraced "
          "best-of-9;\n# sync/validate/ledger are cProfile times of the same call "
          "(inflated by the probe, compare them with each other); settle is the\n"
          "# stopwatch time of one read of every tile ledger, counter and arbiter after "
          "1000 calls, folding what they counted (arbiter_settle: the arbiters alone\n"
          "# after 10 000 calls); flush is the stopwatch time to read the accumulator "
          "registers back after a call "
          "(not part of the call)")
    header = ["shape", "tiles", "total_us", "us_per_tile", "estimate_us",
              "matmul_us", "py_calls", "calls_per_tile", "c_calls"]
    header += list(DEVICE_CALL_PARTS) + ["settle_us", "arbiter_settle_us", "flush_us"]
    print("  ".join(f"{column:>18}" for column in header))
    for label in DEVICE_CALL_SHAPES:
        call, device, allocation = device_call_at(label)
        tiles = len(allocation.placement.tiles)
        total_us = best_call_us(call)
        estimate_us = best_call_us(device_call_at(label, "estimate")[0])
        python_calls, c_calls = count_calls(call)

        # The arithmetic alone: the device plan's one matmul (on an older
        # ``src/``, whose entry is two operands, its banded contraction).
        plan = device.device_plan(allocation, DEVICE_CALL_SHAPES[label][2])
        entry = plan.operands(DEVICE_CALL_BATCH)
        operand, weights = entry[1], entry[2] if len(entry) > 2 else plan.weights
        matmul_us = best_call_us(
            lambda: np.matmul(operand, weights).astype(np.int64)
        )

        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(loops):
            call()
        profiler.disable()
        stats = pstats.Stats(profiler).stats
        parts = [
            sum(
                entry[3] if name in inclusive else entry[2] if name in own else 0.0
                for (_, _, name), entry in stats.items()
            ) / loops * 1e6
            for inclusive, own in DEVICE_CALL_PARTS.values()
        ]
        row = [label, str(tiles), f"{total_us:.1f}", f"{total_us / tiles:.1f}",
               f"{estimate_us:.1f}", f"{matmul_us:.1f}", str(python_calls),
               f"{python_calls / tiles:.1f}", str(c_calls)]
        row += [f"{part:.1f}" for part in parts]
        row.append(f"{settle_us(call, device, allocation):.1f}")
        arbiters_us = settle_us(call, device, allocation, calls=10_000, repeats=3,
                                arbiters_only=True)
        row.append(f"{arbiters_us:.1f}")
        flush_us = register_flush_us(call, device, allocation,
                                     DEVICE_CALL_SHAPES[label][2], loops)
        row.append(f"{flush_us:.1f}")
        print("  ".join(f"{column:>18}" for column in row))


def noisy_call_stages(call, device, allocation, loops: int = 100) -> dict:
    """Per ``call()``: stopwatch microseconds in each of ``NOISY_CALL_STAGES``,
    generator ``draws`` and standard-normal ``samples``."""
    totals = dict.fromkeys(NOISY_CALL_STAGES + ("draws", "samples"), 0.0)

    def timed(stage, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                totals[stage] += time.perf_counter() - start
        return wrapper

    def counted(rng):
        """A stand-in for a crossbar's generator that times and counts its draws."""
        def standard_normal(size=None, out=None):
            totals["draws"] += 1
            totals["samples"] += int(np.prod(size))
            return rng.standard_normal(size, out=out)
        return SimpleNamespace(standard_normal=timed("draw_us", standard_normal))

    stacks = [hct.ace.crossbar(array_id).noise
              for _, hct, handle in device._tiles(allocation)
              for array_id in handle.array_ids]
    patched = [(kernels, "normalised_column_sums", "sums_us"),
               (kernels, "add_read_noise", "noise_term_us"),
               (AnalogToDigitalConverter, "convert", "adc_us")]
    restore = [(owner, name, getattr(owner, name)) for owner, name, _ in patched]
    restore += [(stack, "_rng", stack.rng) for stack in stacks]
    try:
        for owner, name, stage in patched:
            setattr(owner, name, timed(stage, getattr(owner, name)))
        for stack in stacks:
            stack._rng = counted(stack.rng)
        for _ in range(loops):
            call()
    finally:
        for owner, name, original in restore:
            setattr(owner, name, original)
    totals["noise_term_us"] -= totals["draw_us"]
    return {key: value / loops * (1e6 if key.endswith("_us") else 1)
            for key, value in totals.items()}


def noisy_call_breakdown() -> None:
    """Print the general path's per-call breakdown under paper-default noise."""
    print(f"# the same call under NoiseConfig.paper_default() (general path), batch "
          f"{DEVICE_CALL_BATCH}: total_us is untraced best-of-9;\n# draw/sums/"
          "noise_term/adc are stopwatch us around the stage's function (rest_us = "
          "total - those: bit slicing, rounding + shift-and-add, DCE accounting)")
    header = ["shape", "tiles", "crossbars", "total_us", *NOISY_CALL_STAGES,
              "rest_us", "samples"]
    print("  ".join(f"{column:>18}" for column in header))
    for label in NOISY_CALL_LABELS:
        call, device, allocation = device_call_at(label, noise=NoiseConfig.paper_default())
        total_us = best_call_us(call, loops=30)
        stages = noisy_call_stages(call, device, allocation)
        staged = [stages[stage] for stage in NOISY_CALL_STAGES]
        row = [label, str(len(allocation.placement.tiles)), f"{stages['draws']:.0f}",
               f"{total_us:.1f}", *(f"{value:.1f}" for value in staged),
               f"{total_us - sum(staged):.1f}", f"{stages['samples']:.0f}"]
        print("  ".join(f"{column:>18}" for column in row))


def pool_call_at(label: str):
    """A zero-argument steady-state pooled call at one pool-call shape, and
    the same device calls made without the pool: ``(pooled, devices_alone,
    allocation)``.  Plans compiled, three warm-up calls made."""
    shape, element_size, input_bits, pool_keywords = POOL_CALL_SHAPES[label]
    matrix, vectors = steady_operands(shape, element_size, input_bits,
                                      POOL_CALL_BATCH)
    pool = DevicePool(**pool_keywords)
    allocation = pool.set_matrix(matrix, element_size=element_size)
    pool.compile(allocation, input_bits=input_bits)
    bands = [
        (pool.devices[task.device_index], task.device_allocation,
         vectors[:, task.row_start: task.row_end])
        for task in allocation.tasks
    ]

    def pooled():
        return pool.exec_mvm_batch(allocation, vectors, input_bits=input_bits)

    def devices_alone():
        for device, device_allocation, sub in bands:
            device.exec_mvm_batch(device_allocation, sub, input_bits=input_bits)

    for _ in range(3):
        assert np.array_equal(pooled(), vectors @ matrix)
    return pooled, devices_alone, allocation


def pool_call_breakdown() -> None:
    """Print what the pool adds to its device calls at the pool-call shapes."""
    print(f"# steady-state DevicePool.exec_mvm_batch, exact path, batch "
          f"{POOL_CALL_BATCH}: us are untraced best-of-9 (pool_us = total - the "
          "same device calls made directly);\n# frames are sys.setprofile counts "
          "of Python-level calls: the pool's own, and those under its device calls")
    header = ["shape", "bands", "total_us", "device_us", "pool_us", "py_calls",
              "pool_frames", "device_frames", "c_calls"]
    print("  ".join(f"{column:>18}" for column in header))
    for label in POOL_CALL_SHAPES:
        pooled, devices_alone, allocation = pool_call_at(label)
        total_us = best_call_us(pooled, loops=1000)
        device_us = best_call_us(devices_alone, loops=1000)
        events = profiled_calls(pooled)[1:]  # drop the ``pooled`` closure itself
        pool_frames, device_frames, _ = split_pool_frames(events)
        python_calls, c_calls = count_events(events)
        row = [label, str(allocation.num_shards), f"{total_us:.1f}",
               f"{device_us:.1f}", f"{total_us - device_us:.1f}", str(python_calls),
               str(pool_frames), str(device_frames), str(c_calls)]
        print("  ".join(f"{column:>18}" for column in row))


def server_round_row(tenants: int, ingress: str = "submit_batch") -> dict:
    """What one steady-state server round costs at ``tenants`` tenants.

    ``ingress="submit"`` admits the same vectors one ``submit()`` at a time.
    """
    server, vectors, submit, drain = server_round(tenants)
    _, rows, _ = vectors.shape
    requests = tenants * rows
    input_bits = DEVICE_CALL_SHAPES["encoder_projection"][2]
    if ingress == "submit":
        def submit():
            return [
                [server.submit(f"t{tenant}", vector, input_bits=input_bits)
                 for vector in block]
                for tenant, block in enumerate(vectors)
            ]

        for _ in range(2):  # warm the batch arenas this ingress gathers into
            submit()
            drain()
    max_batch = server.scheduling.max_batch
    allocations = [server.allocation_for(f"t{tenant}") for tenant in range(tenants)]

    def whole_round():
        futures = submit()
        drain()
        return futures

    def pool_alone():
        # The batches the round dispatches, without the server around them.
        for allocation, block in zip(allocations, vectors):
            for start in range(0, rows, max_batch):
                server.pool.exec_mvm_batch(
                    allocation, block[start: start + max_batch], input_bits=input_bits
                )

    def read_rows(wave):
        for future in wave:
            future.result()

    def read_us(read):
        # What it then costs to ask every wave for its rows (each loop reads
        # a fresh round: a row's response is built once).
        rounds = [whole_round() for _ in range(loops)]
        start = time.perf_counter()
        for futures in rounds:
            for wave in futures:
                read(wave)
        return (time.perf_counter() - start) / loops * 1e6

    loops = max(1, 4096 // requests)
    round_us = best_call_us(whole_round, loops=loops)
    pool_us = best_call_us(pool_alone, loops=loops)
    rows_us = min(read_us(read_rows) for _ in range(9))
    # The same read as arrays; a wave without ``columns`` (an older ``src/``,
    # or the lists the ``submit`` ingress builds) is skipped.
    columns_us = None
    if hasattr(submit()[0], "columns"):
        columns_us = min(read_us(lambda wave: wave.columns()) for _ in range(9))
    drain()
    submit_calls = count_calls(submit)
    drain_events = profiled_calls(drain)
    drain_calls = count_events(drain_events)
    pool_frames, _, batches = split_pool_frames(drain_events)
    idle_tick_calls = count_calls(server.tick)
    # One request per tenant, too few and too young to dispatch.
    for tenant in range(tenants):
        server.submit_batch(f"t{tenant}", vectors[tenant, :1], input_bits=input_bits)
    waiting_tick_calls = count_calls(server.tick)
    drain()
    assert server.queue_scans() == 0  # the tick loop never scans the queue
    return {
        "tenants": tenants,
        "ingress": ingress,
        "requests": requests,
        "us_per_request": round(round_us / requests, 2),
        "read_us_per_request": round(rows_us / requests, 2),
        "columns_us_per_request":
            None if columns_us is None else round(columns_us / requests, 2),
        "pool_us_per_request": round(pool_us / requests, 2),
        "server_share": round(1.0 - pool_us / round_us, 3),
        "submit_py_calls_per_request": round(submit_calls[0] / requests, 2),
        "drain_py_calls_per_request": round(drain_calls[0] / requests, 2),
        "submit_c_calls_per_request": round(submit_calls[1] / requests, 2),
        "drain_c_calls_per_request": round(drain_calls[1] / requests, 2),
        "pool_frames_per_batch": round(pool_frames / batches, 2),
        "idle_tick_py_calls": idle_tick_calls[0],
        "waiting_tick_py_calls": waiting_tick_calls[0],
    }


def server_round_breakdown(profile: bool) -> None:
    """Print the per-request cost of a steady-state server round."""
    print("# steady-state PumServer round: submit_batch(64) per tenant (or 64 "
          "submit() calls) + run_until_idle(), 64x64 6-bit tenants, default "
          "scheduling.\n"
          "# us are untraced best-of-9; calls are sys.setprofile counts; a "
          "waiting tick has one undispatchable request per tenant queued")
    rows = [server_round_row(*row) for row in SERVER_ROUND_ROWS]
    print("  ".join(f"{column:>27}" for column in rows[0]))
    for row in rows:
        print("  ".join(f"{'-' if value is None else value:>27}" for value in row.values()))
    if not profile:
        return
    tenants = max(tenants for tenants, _ in SERVER_ROUND_ROWS)
    _, _, submit, drain = server_round(tenants)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(20):
        submit()
        drain()
    profiler.disable()
    print(f"# top-25 cumulative hot spots (20 rounds x {tenants} tenants)")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


def registration_row(kind: str = "same_shape", rounds: int = 200, repeats: int = 5) -> dict:
    """What a registration with new bytes and the first call against it cost.

    ``kind`` picks the shapes from :data:`REGISTRATION_KINDS`.
    ``register_new_us`` / ``first_call_us`` are untraced best-of-``repeats``
    means over ``rounds`` rounds, each replacing the tenant's matrix with
    new bytes, and ``minor_faults`` the page faults per round of the last
    of those passes (``ru_minflt``).  ``py_calls`` (Python frames of one
    round), ``planner_builds`` and ``crossbars_built`` (per round) come
    from a counted pass, the ``*_stage_us`` entries from a stopwatch pass.
    """
    shapes = REGISTRATION_KINDS[kind]
    rng = np.random.default_rng(11)
    half = 1 << (REGISTRATION_BITS - 1)
    # An even count, so that round k holds shape k % len(shapes).
    matrices = [rng.integers(-half, half, size=shapes[index % len(shapes)])
                for index in range(14)]
    vectors = rng.integers(0, 1 << REGISTRATION_BITS,
                           size=(REGISTRATION_ROWS, REGISTRATION_SHAPE[0]), dtype=np.int64)
    server = PumServer(num_devices=2)
    spent = {"register": 0.0, "call": 0.0}

    def new_round(k: int) -> None:
        start = time.perf_counter()
        server.register_matrix("t", matrices[k % len(matrices)],
                               element_size=REGISTRATION_BITS, input_bits=REGISTRATION_BITS)
        registered = time.perf_counter()
        futures = server.submit_batch("t", vectors, input_bits=REGISTRATION_BITS)
        server.run_until_idle()
        spent["call"] += time.perf_counter() - registered
        spent["register"] += registered - start
        assert futures[-1].result().ok

    best = dict.fromkeys(spent, float("inf"))
    for _ in range(repeats + 1):  # the first pass warms arenas and memos
        spent.update(register=0.0, call=0.0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for k in range(rounds):
            new_round(k)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        best = {key: min(best[key], spent[key] / rounds) for key in spent}
    assert server.registration_reuses == 0

    counted = 20
    calls = sum(count_calls(lambda k=k: new_round(k))[0] - 2  # the lambda, new_round
                for k in range(counted)) / counted
    built = []
    construct = AnalogCrossbar.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        construct(self, *args, **kwargs)

    builds = server.planner_builds()
    AnalogCrossbar.__init__ = counting
    try:
        for k in range(counted):
            new_round(k)
    finally:
        AnalogCrossbar.__init__ = construct
    counts = {"py_calls": round(calls, 1),
              "planner_builds": (server.planner_builds() - builds) / counted,
              "crossbars_built": len(built) / counted,
              "minor_faults": round(faults / rounds, 2)}

    totals = dict.fromkeys(REGISTRATION_STAGES, 0.0)
    nested = []

    def staged(stage, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            nested.append(0.0)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[stage] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed
        return wrapper

    patched = [(owner, name, stage) for stage, functions in REGISTRATION_STAGES.items()
               for owner, name in functions if hasattr(owner, name)]
    restore = [(owner, name, getattr(owner, name)) for owner, name, _ in patched]
    try:
        for owner, name, stage in patched:
            setattr(owner, name, staged(stage, getattr(owner, name)))
        for k in range(rounds):
            new_round(k)
    finally:
        for owner, name, original in restore:
            setattr(owner, name, original)
    row = {"kind": kind, "shapes": [list(shape) for shape in shapes],
           "element_size": REGISTRATION_BITS, "rows": REGISTRATION_ROWS,
           "register_new_us": round(best["register"] * 1e6, 1),
           "first_call_us": round(best["call"] * 1e6, 1), **counts}
    row.update({f"{stage}_stage_us": round(total / rounds * 1e6, 1)
                for stage, total in totals.items()})
    return row


def registration_breakdown() -> None:
    """Print what a registration with new bytes and its first call cost."""
    rows = [registration_row(kind) for kind in REGISTRATION_KINDS]
    print(f"# one {REGISTRATION_BITS}-bit PumServer.register_matrix with new bytes + the "
          f"first {REGISTRATION_ROWS}-row wave against it, ideal device; same_shape: "
          f"{REGISTRATION_SHAPE[0]}x{REGISTRATION_SHAPE[1]} every round (reprogrammed in "
          "place), new_shape: alternating with 64x48 (release + place + compile).\n"
          "# register_new_us / first_call_us are untraced best-of-5 means over 200 "
          "rounds; minor_faults per round of the last of those passes; py_calls, "
          "planner_builds and crossbars_built per round of a counted pass; stage rows "
          "are stopwatch self time of a separate pass (inflated by the probe, compare "
          "them with each other)")
    print(f"{'':>30}  " + "  ".join(f"{row['kind']:>10}" for row in rows))
    for key, value in rows[0].items():
        if isinstance(value, (int, float)) and key not in ("element_size", "rows"):
            print(f"{key:>30}  " + "  ".join(f"{row[key]:>10.1f}" for row in rows))


class ClusterWaveTwin:
    """A gateway and one ``cluster_saturate`` worker sharing this process.

    The gateway is scripted the way ``tests/test_cluster.py`` scripts one
    (started, worker 0 alive and holding every matrix) on real rings with
    real doorbells; the worker is :func:`build_worker_server`'s server and
    the functions ``worker_main`` calls.  ``submit`` / ``serve`` /
    ``resolve`` move one wave one hop each, so each can be timed and
    profiled alone.  Build it inside a running event loop (the gateway makes
    asyncio futures) and ``close`` it there.
    """

    def __init__(self) -> None:
        from repro.runtime.cluster import ClusterGateway, build_worker_server
        from repro.runtime.cluster.gateway import RING_CAPACITY, _MatrixRecord
        from repro.runtime.cluster.transport import Doorbell, HeartbeatBoard, ShmRing
        from repro.runtime.cluster.worker import WorkerState

        rng = np.random.default_rng(11)
        half = 1 << (CLUSTER_WAVE_BITS - 1)
        self.server = build_worker_server(CLUSTER_WAVE_SPEC)
        self.state = WorkerState()
        self.board = HeartbeatBoard(num_slots=1)
        self.gateway = ClusterGateway(num_workers=1)
        self.gateway._started = True
        self.worker = worker = self.gateway._workers[0]
        worker.alive = True
        worker.requests = ShmRing(RING_CAPACITY, bell=Doorbell())
        worker.replies = ShmRing(RING_CAPACITY, bell=Doorbell())
        self.matrices = {}
        for index in range(CLUSTER_WAVE_MATRICES):
            name = f"m{index}"
            self.matrices[name] = matrix = rng.integers(-half, half, size=CLUSTER_WAVE_SHAPE)
            self.server.register_matrix(name, matrix, element_size=CLUSTER_WAVE_BITS,
                                        input_bits=CLUSTER_WAVE_BITS)
            worker.plan_handles[name] = self.server.plan_handle(name, CLUSTER_WAVE_BITS)
            self.gateway._matrices[name] = _MatrixRecord(
                fingerprint=(name,), matrix=matrix, element_size=CLUSTER_WAVE_BITS,
                precision=0, input_bits=CLUSTER_WAVE_BITS, placement=[0],
            )
        self.vectors = rng.integers(
            0, 1 << CLUSTER_WAVE_BITS, dtype=np.int64,
            size=(CLUSTER_WAVE_ROWS, CLUSTER_WAVE_SHAPE[0]),
        )
        self.waves = 0

    def beat(self) -> None:
        self.board.beat(0)

    def submit(self) -> Sequence:
        """Gateway: route, make the batch, encode, push; returns the wave's
        futures.  Waves alternate over the matrices, as the workload's do."""
        name = f"m{self.waves % CLUSTER_WAVE_MATRICES}"
        self.waves += 1
        call = self.gateway.submit_batch(name, self.vectors, input_bits=CLUSTER_WAVE_BITS)
        try:  # it never suspends: drive it to its result in place
            call.send(None)
        except StopIteration as done:
            return done.value
        raise RuntimeError("submit_batch suspended")

    def serve(self) -> None:
        """Worker: one turn of ``worker_main``'s loop on the frame ``submit``
        pushed."""
        from repro.runtime.cluster.worker import _answer

        requests = self.worker.requests
        self.beat()
        payload = requests.peek()
        reply = _answer(self.server, payload, self.beat, self.state)
        payload = None
        requests.advance()
        self.worker.replies.push(reply)

    def serve_staged(self, stages: dict) -> None:
        """The same turn taken apart the way ``_handle`` puts it together;
        each stage's seconds are added to its :data:`WORKER_STAGES` entry
        (:data:`QUEUED_WORKER_STAGES` on a worker that has no ``_serve``)."""
        from repro.runtime.cluster import worker
        from repro.runtime.cluster.messages import K_RESULTS, decode_message, encode_message

        requests, clock = self.worker.requests, time.perf_counter
        marks = [clock()]
        payload = requests.peek()
        marks.append(clock())
        _, header, arrays = decode_message(payload)
        marks.append(clock())
        if hasattr(worker, "_serve"):
            answer = worker._serve(self.server, header, arrays[0], lambda: None)
            marks.append(clock())
            reply = encode_message(K_RESULTS, *answer)
            names = WORKER_STAGES
        else:
            futures = self.server.submit_batch(
                header["name"], np.array(arrays[0]), input_bits=header["input_bits"])
            marks.append(clock())
            worker._drain_batch(self.server, lambda: None)
            marks.append(clock())
            reply = worker._result_frame(self.server, header, futures)
            names = QUEUED_WORKER_STAGES
        marks.append(clock())
        payload = arrays = answer = None
        requests.advance()
        self.worker.replies.push(reply)
        marks.append(clock())
        self.beat()
        self.beat()
        marks.append(clock())
        for stage, start, stop in zip(names, marks, marks[1:]):
            stages[stage] = stages.get(stage, 0.0) + stop - start

    def resolve(self) -> None:
        """Gateway: the reply bell's callback -- decode, resolve the wave."""
        self.gateway._on_bell(self.worker)

    def wave(self) -> list:
        """One whole wave; returns its resolved futures."""
        futures = self.submit()
        self.serve()
        self.resolve()
        return futures

    def close(self) -> None:
        self.worker.requests.close()
        self.worker.replies.close()
        self.board.close()


def events_outside(events, frame: str) -> tuple:
    """:func:`count_events` of the :func:`profiled_calls` events that are not
    inside (or the entry of) a Python frame named ``frame``."""
    nesting, kept = [], []
    inside = 0
    for event, name in events:
        if event == "call":
            nesting.append(name == frame)
            inside += nesting[-1]
        if not inside:
            kept.append((event, name))
        if event == "return" and nesting:
            inside -= nesting.pop()
    return count_events(kept)


def cluster_wave_events(twin: ClusterWaveTwin) -> dict:
    """``sys.setprofile`` events of one steady-state wave, per hop, as
    ``(python_calls, c_calls)`` -- the worker's also outside its pool calls --
    and the ``names`` of every Python function entered on the way.
    ``gateway_read`` asks the resolved wave for every row, as a caller that
    gathers the whole wave does: a gateway that makes a row's future and
    response only when the row is asked for pays for them there, so submit
    + resolve + read is the whole per-row cost either way."""
    waves, futures = [], []
    submit = profiled_calls(lambda: waves.append(twin.submit()))
    serve = profiled_calls(twin.serve)
    resolve = profiled_calls(twin.resolve)
    read = profiled_calls(lambda: futures.extend(waves[0]))
    assert len(futures) == CLUSTER_WAVE_ROWS and all(future.done() for future in futures)
    return {
        "gateway_submit": count_events(submit),
        "worker": count_events(serve),
        "worker_outside_pool": events_outside(serve, "exec_mvm_batch"),
        "gateway_resolve": count_events(resolve),
        "gateway_read": count_events(read),
        "names": {name for event, name in submit + serve + resolve + read
                  if event == "call"},
    }


def cluster_wave_breakdown(waves: int = 2000, repeats: int = 5) -> None:
    """Print what one 16-row wave costs at each hop of the cluster."""

    async def measure():
        twin = ClusterWaveTwin()
        try:
            for _ in range(200):  # plans, receipts, arenas and table memos warm
                assert all(future.result().ok for future in twin.wave())
            hops = {"gateway_submit": [], "worker": [], "gateway_resolve": [],
                    "gateway_read": []}
            stages = []
            for _ in range(repeats):
                seconds = dict.fromkeys(hops, 0.0)
                for _ in range(waves):
                    t0 = time.perf_counter()
                    wave = twin.submit()
                    t1 = time.perf_counter()
                    twin.serve()
                    t2 = time.perf_counter()
                    twin.resolve()
                    t3 = time.perf_counter()
                    list(wave)
                    t4 = time.perf_counter()
                    for hop, spent in zip(hops, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                        seconds[hop] += spent
                for hop in hops:
                    hops[hop].append(seconds[hop] / waves * 1e6)
                staged = {}
                for _ in range(waves):
                    twin.submit()
                    twin.serve_staged(staged)
                    twin.resolve()
                stages.append({stage: staged[stage] / waves * 1e6 for stage in staged})
            return ({hop: min(samples) for hop, samples in hops.items()},
                    {stage: min(sample[stage] for sample in stages)
                     for stage in stages[0]},
                    cluster_wave_events(twin))
        finally:
            twin.close()

    hops, stages, events = asyncio.run(measure())
    print(f"# one {CLUSTER_WAVE_ROWS}-row wave at the cluster_saturate shapes, gateway "
          f"and worker in one process on real rings and bells: us are untraced "
          f"best-of-{repeats} means over {waves} waves;\n# calls are sys.setprofile "
          "counts of one wave (python + c); gateway_read asks the resolved wave for "
          "every row, as a gathering caller does;\n# the stage rows take the worker's "
          "turn apart and are timed in a separate pass")
    def row(*columns) -> None:
        print("  ".join(f"{column:>22}" for column in columns))

    row("hop", "us_per_wave", "py_calls", "c_calls")
    for hop in ("gateway_submit", "worker", "worker_outside_pool", "gateway_resolve",
                "gateway_read"):
        row(hop, f"{hops[hop]:.1f}" if hop in hops else "-", *events[hop])
    gateway = ("gateway_submit", "gateway_resolve", "gateway_read")
    row("gateway_total", f"{sum(hops[hop] for hop in gateway):.1f}",
        *map(sum, zip(*(events[hop] for hop in gateway))))
    for stage, us in stages.items():
        row(f"worker.{stage}", f"{us:.1f}", "", "")


def main() -> None:
    if sys.argv[1:2] == ["cluster-wave"]:
        cluster_wave_breakdown()
        return
    if sys.argv[1:2] == ["device-call"]:
        device_call_breakdown()
        noisy_call_breakdown()
        return
    if sys.argv[1:2] == ["pool-call"]:
        pool_call_breakdown()
        return
    if sys.argv[1:2] == ["server-round"]:
        server_round_breakdown(profile="--profile" in sys.argv[2:])
        return
    if sys.argv[1:2] == ["registration"]:
        registration_breakdown()
        return
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    profiler = cProfile.Profile()
    profiler.enable()
    run_serving_workload(num_requests)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(f"# top-20 cumulative hot spots ({num_requests} served requests)")
    stats.print_stats(20)


if __name__ == "__main__":
    main()
