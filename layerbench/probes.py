"""Off-the-clock probes: the tier ladder and single-layer micro-timings.

The ladder pushes the same waves through session -> pool -> server
(-> gateway) objects built the way the workload builds its own, so a
tier's cost is the difference to the tier below and the rows each tier
returns can be required to be identical.  The other probes time one
layer's public call in isolation at the workload's shapes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import ChipConfig, DarthPumDevice, DevicePool, HctConfig, PumServer
from repro.reram import NoiseConfig

from .workloads import signed_matrix

Shape = Tuple[Tuple[int, int], int, int, int]
#: Timed calls per backend in ``backend_probe``; frames per kind in
#: ``message_probe``.
BACKEND_REPS = 24
MESSAGE_REPS = 400


def p50(samples: Sequence[float]) -> float:
    return float(np.median(samples)) if len(samples) else 0.0


def geomean(values: Sequence[float]) -> float:
    values = [value for value in values if value > 0]
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


_CAL_INT = np.arange(2048, dtype=np.int64).reshape(32, 64)
_CAL_FLOAT = np.linspace(0.0, 1.0, 2048).reshape(32, 64)


def _interpreter_round() -> None:
    table: Dict[int, Tuple[int, int]] = {}
    total = 0
    for index in range(300):
        table[index & 15] = (index, total)
        total += len(table)


def _integer_round() -> None:
    for _ in range(6):
        planes = ((_CAL_INT >> 1) & 1) + _CAL_INT
        planes.sum(axis=0)
        np.stack([planes, planes])


def _float_round() -> None:
    np.round((_CAL_FLOAT @ _CAL_FLOAT.T) * 3.0).sum()


#: The calibration rounds and the rounds per second each reached on the
#: quiet 2.1 GHz two-vCPU host the benchmark was sized on.  The constants
#: only fix the scale of the index (1.0 = that host); a result is compared
#: with another result, never with them.
_CALIBRATION = ((_interpreter_round, 43000.0), (_integer_round, 18600.0),
                (_float_round, 92000.0))


#: The clock of the in-process workloads: CPU seconds of this process, all
#: threads.  They are pinned to one CPU and nothing in them sleeps, so on a
#: quiet host it reads what the wall clock reads; on a shared host the wall
#: clock also counts what the hypervisor gave to a neighbour (half of every
#: second, 5-40 ms at a time, on a bad day), and this does not.
cpu_clock = time.process_time


def host_speed(seconds: float = 0.009) -> float:
    """How fast this host runs right now, as a share of the reference host.

    Times three fixed rounds of work the program under test never executes
    -- interpreter bytecode, small int64 array passes, a small float
    matmul -- for a third of ``seconds`` each, and returns the geometric
    mean of their rates over the reference rates.  On the shared VMs this
    runs on the same commit measures 1.5x apart minutes apart; the index
    moves with it (correlation 0.83-0.96 over the in-process workloads), so
    durations scaled by it repeat 2-5x more closely than raw ones.
    """
    shares = []
    for work, reference in _CALIBRATION:
        rounds, start = 0, cpu_clock()
        while cpu_clock() - start < seconds / len(_CALIBRATION):
            work()
            rounds += 1
        shares.append(rounds / (cpu_clock() - start) / reference)
    return geomean(shares)


def roomy_chip(paper_tiles: bool) -> ChipConfig:
    """A chip with the workload's tile geometry and room for any matrix."""
    hct = HctConfig.paper_default() if paper_tiles else HctConfig.small()
    return ChipConfig(hct=hct, num_hcts=64)


class Tiers:
    """Session, pool and server objects holding the same named matrices."""

    def __init__(
        self,
        named: Sequence[Tuple[str, np.ndarray]],
        element_size: int,
        input_bits: int,
        chip: ChipConfig,
        upto: Sequence[str],
        make_pool: Optional[Callable[[], DevicePool]] = None,
        make_server: Optional[Callable[[], PumServer]] = None,
    ) -> None:
        self.element_size, self.input_bits = element_size, input_bits
        self.device = DarthPumDevice(config=chip)
        self.device_allocations = {
            name: self._program(self.device, matrix) for name, matrix in named
        }
        self.pool = self.server = None
        if "pool" in upto:
            self.pool = make_pool() if make_pool is not None else \
                DevicePool(num_devices=1, config=chip)
            self.pool_allocations = {
                name: self._program(self.pool, matrix)
                for name, matrix in named
            }
        if "server" in upto:
            self.server = make_server() if make_server is not None else \
                PumServer(pool=DevicePool(num_devices=1, config=chip),
                          queue_capacity=4096)
            for name, matrix in named:
                self.server.register_matrix(
                    name, matrix, element_size=element_size,
                    input_bits=input_bits,
                )

    def _program(self, owner: Any, matrix: np.ndarray) -> Any:
        allocation = owner.set_matrix(
            matrix, element_size=self.element_size, precision=0
        )
        owner.compile(allocation, input_bits=self.input_bits)
        return allocation

    def session(self, name: str, vectors: np.ndarray) -> np.ndarray:
        return self.device.exec_mvm_batch(
            self.device_allocations[name], vectors, input_bits=self.input_bits
        )

    def pooled(self, name: str, vectors: np.ndarray) -> np.ndarray:
        return self.pool.exec_mvm_batch(
            self.pool_allocations[name], vectors, input_bits=self.input_bits
        )

    def served(self, name: str, vectors: np.ndarray) -> np.ndarray:
        futures = self.server.submit_batch(
            name, vectors, input_bits=self.input_bits
        )
        self.server.run_until_idle()
        return np.stack([future.result(timeout=0).result
                         for future in futures])

    def calls(self) -> Dict[str, Callable[[str, np.ndarray], np.ndarray]]:
        calls = {"session": self.session}
        if self.pool is not None:
            calls["pool"] = self.pooled
        if self.server is not None:
            calls["server"] = self.served
        return calls

    def layers(self, tier: str) -> Dict[str, Any]:
        """What ``trace.install`` shims to see inside one tier."""
        if tier == "session":
            return {"devices": [self.device]}
        if tier == "pool":
            return {"pool": self.pool, "devices": self.pool.devices}
        return {"server": self.server, "pool": self.server.pool,
                "devices": self.server.pool.devices}

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        if self.server is not None:
            self.server.pool.close()


def identical_rows(tiers: Tiers, name: str, vectors: np.ndarray,
                   expected: np.ndarray,
                   extra: Optional[np.ndarray] = None) -> bool:
    """One wave through every tier: all rows equal ``x @ W`` and each other."""
    rows = [call(name, vectors) for call in tiers.calls().values()]
    if extra is not None:
        rows.append(extra)
    return all(np.array_equal(row, expected) for row in rows)


def time_tier(call: Callable[[str, np.ndarray], np.ndarray],
              waves: Sequence[Tuple[str, np.ndarray, np.ndarray]]
              ) -> List[float]:
    """Seconds per wave of one tier, one wave at a time."""
    samples = []
    for name, vectors, _ in waves:
        start = time.perf_counter()
        call(name, vectors)
        samples.append(time.perf_counter() - start)
    return samples


def registration_probe(tiers: Tiers, top: str, name: str,
                       matrices: Sequence[np.ndarray]) -> None:
    """Reprogram ``name`` through the ``top`` tier once per matrix.

    Run with shims installed on ``tiers.layers(top)``: the spans give the
    set_matrix / release / compile cost of every tier below.  Through a
    server each matrix is registered twice, so every second call is a
    registration-memo reuse.
    """
    for matrix in matrices:
        if top == "server":
            for _ in range(2):
                tiers.server.register_matrix(
                    name, matrix, element_size=tiers.element_size,
                    input_bits=tiers.input_bits,
                )
            continue
        owner, allocations = (
            (tiers.pool, tiers.pool_allocations) if top == "pool"
            else (tiers.device, tiers.device_allocations)
        )
        owner.release(allocations[name])
        allocations[name] = tiers._program(owner, matrix)


def backend_probe(shapes: Sequence[Shape], chip: ChipConfig, seed: int
                  ) -> Dict[str, float]:
    """ms p50 of one batch on the cost-only, exact and noisy backends.

    ``estimate`` issues the identical ledger charges without arithmetic,
    so exact minus estimate is the arithmetic; ``general`` is the same
    vectorized backend on a ``NoiseConfig.paper_default()`` chip.  Several
    shapes are combined by geometric mean.
    """
    rows: Dict[str, List[float]] = {"accounting": [], "exact": [],
                                    "general": []}
    partials, macs = [], []
    for index, (shape, element_size, input_bits, batch) in enumerate(shapes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 9, index]))
        matrix = signed_matrix(rng, shape, element_size)
        vectors = rng.integers(0, 1 << input_bits, size=(batch, shape[0]),
                               dtype=np.int64)
        for label, noise, backend in (
            ("accounting", None, "estimate"),
            ("exact", None, "vectorized"),
            ("general", NoiseConfig.paper_default(), "vectorized"),
        ):
            device = DarthPumDevice(config=chip, noise=noise)
            allocation = device.set_matrix(matrix, element_size=element_size)
            plans = device.compile(allocation, input_bits=input_bits)
            samples = []
            for _ in range(BACKEND_REPS + 2):
                start = time.perf_counter()
                device.exec_mvm_batch(allocation, vectors,
                                      input_bits=input_bits, backend=backend)
                samples.append(time.perf_counter() - start)
            rows[label].append(p50(samples[2:]) * 1e3)
        partials.append(sum(plan.num_partial_products for plan in plans))
        macs.append(shape[0] * shape[1])
    out = {label: geomean(values) for label, values in rows.items()}
    out["bitplanes"] = float(np.mean(partials))
    out["macs"] = float(np.mean(macs))
    return out


def message_probe(vectors: np.ndarray, results: np.ndarray
                  ) -> Dict[str, float]:
    """Codec and ring cost of one SUBMIT and one RESULTS frame."""
    from repro.runtime.cluster.messages import (
        K_RESULTS, K_SUBMIT, decode_message, encode_message,
    )
    from repro.runtime.cluster.transport import ShmRing

    rows = len(vectors)

    def submit() -> List[bytes]:
        return encode_message(
            K_SUBMIT, {"batch": 123456, "name": "m0", "input_bits": 4},
            [vectors])

    def reply() -> List[bytes]:
        return encode_message(
            K_RESULTS, {"batch": 123456, "name": "m0"},
            [np.zeros(rows, dtype=np.uint8), results,
             np.ones(rows, dtype=np.int64), np.ones(rows, dtype=np.float64)])

    def size(parts: List[bytes]) -> float:
        return float(sum(len(memoryview(part).cast("B")) for part in parts))

    encode, decode, push, take, roundtrip = [], [], [], [], []
    ring = ShmRing(capacity=1 << 20, create=True)
    try:
        for build in (submit, reply):
            for _ in range(MESSAGE_REPS):
                t0 = time.perf_counter()
                parts = build()
                t1 = time.perf_counter()
                ring.push(parts)
                t2 = time.perf_counter()
                payload = ring.peek()
                t3 = time.perf_counter()
                _, _, arrays = decode_message(payload)
                t4 = time.perf_counter()
                payload = arrays = None  # views must die before advance
                ring.advance()
                t5 = time.perf_counter()
                encode.append(t1 - t0)
                push.append(t2 - t1)
                decode.append(t4 - t3)
                take.append((t3 - t2) + (t5 - t4))
                roundtrip.append((t3 - t1) + (t5 - t4))
    finally:
        ring.close()
    return {
        "encode_us": p50(encode) * 1e6, "decode_us": p50(decode) * 1e6,
        "push_us": p50(push) * 1e6, "peek_advance_us": p50(take) * 1e6,
        "roundtrip_us": p50(roundtrip) * 1e6,
        "submit_bytes": size(submit()),
        "results_bytes": size(reply()),
        "header_bytes": float(len(submit()[0]) + len(submit()[1])),
        # One wave pays one SUBMIT and one RESULTS frame, each encoded,
        # pushed, peeked, decoded and released once.
        "per_wave_messages_ms": 2 * (p50(encode) + p50(decode)) * 1e3,
        "per_wave_transport_ms": 2 * p50(roundtrip) * 1e3,
    }
