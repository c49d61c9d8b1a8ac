"""The six workloads: seeded inputs, set-up, one timed step, and the oracle.

A workload only hands the program arrays it generated from its seed.
In-process workloads are lists of :class:`Phase` objects the closed-loop
driver in :mod:`layerbench.harness` steps; the two cluster workloads
share :class:`ClusterWorkload`, which the asyncio drivers there use.
Every shape and count below is part of the benchmark's definition (see
``README.md``): changing one changes what later results are compared to.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import ChipConfig, DarthPumDevice, DevicePool, HctConfig, PumServer
from repro.metrics import CostLedger
from repro.reram import NoiseConfig

#: Counts of one check: (rows answered correctly, rows answered wrongly,
#: rows whose response was not ``ok``).
Verdict = Tuple[int, int, int]


def _rng(seed: int, *label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *label]))


def signed_matrix(rng: np.random.Generator, shape: Tuple[int, int],
            element_size: int) -> np.ndarray:
    """A matrix filling ``set_matrix``'s signed ``element_size`` range
    (1-bit matrices are GF(2): 0/1)."""
    if element_size == 1:
        return rng.integers(0, 2, size=shape, dtype=np.int64)
    half = 1 << (element_size - 1)
    return rng.integers(-half, half, size=shape, dtype=np.int64)


def _rows_of(futures: Sequence[Any]) -> Tuple[Optional[np.ndarray], int]:
    """Stack the result rows of server futures; also count non-ok ones."""
    responses = [future.result(timeout=0) for future in futures]
    bad = sum(1 for response in responses if not response.ok)
    if bad:
        return None, bad
    return np.stack([response.result for response in responses]), 0


def _verdict(rows: Optional[np.ndarray], bad: int, expected: np.ndarray
             ) -> Verdict:
    if rows is None:
        return 0, 0, max(bad, len(expected))
    wrong = int((rows != expected).any(axis=1).sum())
    return len(expected) - wrong, wrong, 0


class Phase:
    """One closed-loop stream of identical steps against one object."""

    name = "phase"
    #: Single-vector requests carried by one step.
    requests_per_step = 0
    #: Steps in the window the simulated statistics are read over.  Fixed,
    #: so the ``sim_*`` metrics repeat exactly whatever the host's speed.
    sim_steps = 1
    #: Measured steps after which memory is read: the program keeps state
    #: per request, so memory at the end of a timed run follows the host's
    #: speed, and memory at a fixed count does not.  Sized to be reached in
    #: about a third of a ``run_seconds`` pass.
    rss_steps = 1

    def step(self, k: int) -> Any:
        """The timed call(s) of step ``k``; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, k: int, out: Any) -> Verdict:
        """Compare step ``k``'s answers with the oracle (off the clock)."""
        raise NotImplementedError

    def ledger(self) -> CostLedger:
        """Merged simulated-cost ledger of everything this phase drives."""
        raise NotImplementedError

    def finish(self) -> None:
        """Drop what the phase holds, so the next starts from a small heap."""


class Workload:
    """Base of the in-process workloads."""

    name = "workload"
    #: Tiers the cross-tier identity check pushes one wave through.
    tiers: Tuple[str, ...] = ("session",)
    #: Steps run (untimed) between set-up and the measured phase.
    warmup_steps = 8
    #: Whether the chips use the paper's 64x64 tiles (else 16x16 ``small``).
    paper_tiles = True
    #: Factories of an empty pool / server built the way the workload builds
    #: its own, for the tier ladder; ``None`` means a generic one will do.
    make_pool = None
    make_server = None

    def setup(self) -> None:
        """Construct, program, compile and answer one verified wave."""
        raise NotImplementedError

    def phases(self) -> List[Phase]:
        raise NotImplementedError

    def layers(self) -> Dict[str, Any]:
        """Instances the traced pass shims (``trace.install``)."""
        raise NotImplementedError

    def probe_shapes(self) -> List[Tuple[Tuple[int, int], int, int, int]]:
        """``(shape, element_size, input_bits, batch)`` of the kernels
        behind this workload, for the backend and registration probes."""
        raise NotImplementedError

    def check_wave(self) -> Tuple[np.ndarray, int, int, np.ndarray]:
        """``(matrix, element_size, input_bits, vectors)`` for the
        cross-tier identity check."""
        raise NotImplementedError

    def planner_builds(self) -> int:
        """Execution plans compiled so far by everything the workload drives."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release threads and devices."""


# --------------------------------------------------------------------- #
# kernel_paper_shapes                                                     #
# --------------------------------------------------------------------- #
class _KernelCell(Phase):
    WAVES = 16
    BATCH = 32
    #: Noisy calls checked bit for bit against ``backend="reference"``.
    REFERENCE_SAMPLE = 4
    sim_steps = 4
    requests_per_step = BATCH

    def __init__(self, seed: int, index: int, label: str,
                 shape: Tuple[int, int], element_size: int, input_bits: int,
                 noisy: bool, rss_steps: int) -> None:
        self.name = f"{label}.{'noisy' if noisy else 'ideal'}"
        self.rss_steps = rss_steps
        self.shape, self.element_size = shape, element_size
        self.input_bits, self.noisy = input_bits, noisy
        rng = _rng(seed, 1, index)
        self.matrix = signed_matrix(rng, shape, element_size)
        self.waves = rng.integers(
            0, 1 << input_bits, size=(self.WAVES, self.BATCH, shape[0]),
            dtype=np.int64,
        )
        self.expected = self.waves @ self.matrix
        self.device: Optional[DarthPumDevice] = None
        self.twin: Optional[DarthPumDevice] = None
        self._twin_calls = 0

    def _build(self) -> Tuple[DarthPumDevice, Any]:
        noise = NoiseConfig.paper_default() if self.noisy else None
        device = DarthPumDevice(noise=noise)
        allocation = device.set_matrix(
            self.matrix, element_size=self.element_size, precision=0
        )
        device.compile(allocation, input_bits=self.input_bits)
        return device, allocation

    def build(self) -> None:
        self.device, self.allocation = self._build()
        if self.noisy:
            # An identically seeded twin replays the first calls on the
            # step-faithful interpreter: the oracle of the noisy cells.
            self.twin, self.twin_allocation = self._build()
            self._twin_calls = 0
        verdict = self.check(0, self.step(0))
        if verdict[1] or verdict[2]:
            raise RuntimeError(f"{self.name}: first answer failed its oracle")

    def step(self, k: int) -> np.ndarray:
        return self.device.exec_mvm_batch(
            self.allocation, self.waves[k % self.WAVES],
            input_bits=self.input_bits,
        )

    def check(self, k: int, out: np.ndarray) -> Verdict:
        expected = self.expected[k % self.WAVES]
        if not self.noisy:
            return _verdict(out, 0, expected)
        if self._twin_calls < self.REFERENCE_SAMPLE + 1:
            self._twin_calls += 1
            reference = self.twin.exec_mvm_batch(
                self.twin_allocation, self.waves[k % self.WAVES],
                input_bits=self.input_bits, backend="reference",
            )
            return _verdict(out, 0, reference)
        # Past the sample the noise streams have diverged from any replay;
        # an answer further than 5 % of full scale from x @ W is wrong.
        slack = 1 + 0.05 * np.abs(expected).max()
        wrong = int((np.abs(out - expected) > slack).any(axis=1).sum())
        return len(expected) - wrong, wrong, 0

    def ledger(self) -> CostLedger:
        return self.device.chip.total_ledger()

    def finish(self) -> None:
        self.device = self.twin = None
        self.allocation = self.twin_allocation = None


class KernelPaperShapes(Workload):
    """One paper-default chip per cell, ``exec_mvm_batch`` at batch 32."""

    name = "kernel_paper_shapes"
    tiers = ("session",)
    warmup_steps = 4
    #: label, shape, element size, input bits, memory mark (ideal, noisy).
    #: The conv cell keeps the most state per call, so it runs first: the
    #: first phase's mark is the one ``peak_rss_mb`` reports, on a heap no
    #: earlier phase has grown by a host-dependent amount.
    SHAPES = (
        ("resnet_conv", (144, 16), 6, 7, (600, 50)),
        ("aes_mixcolumns", (32, 32), 1, 1, (2500, 1200)),
        ("encoder_projection", (64, 64), 6, 7, (1500, 50)),
    )

    def __init__(self, seed: int) -> None:
        self.cells = [
            _KernelCell(seed, 2 * index + noisy, label, shape, element_size,
                        input_bits, bool(noisy), marks[noisy])
            for index, (label, shape, element_size, input_bits, marks)
            in enumerate(self.SHAPES)
            for noisy in (0, 1)
        ]

    def setup(self) -> None:
        for cell in self.cells:
            cell.build()

    def phases(self) -> List[Phase]:
        return list(self.cells)

    def layers(self) -> Dict[str, Any]:
        return {"devices": [cell.device for cell in self.cells]}

    def probe_shapes(self):
        return [(shape, element_size, input_bits, _KernelCell.BATCH)
                for _, shape, element_size, input_bits, _ in self.SHAPES]

    def check_wave(self):
        cell = self.cells[0]
        return cell.matrix, cell.element_size, cell.input_bits, cell.waves[0]

    def planner_builds(self) -> int:
        return sum(cell.device.planner_builds() for cell in self.cells
                   if cell.device is not None)

    def teardown(self) -> None:
        for cell in self.cells:
            cell.finish()


# --------------------------------------------------------------------- #
# pool_sharded                                                            #
# --------------------------------------------------------------------- #
class PoolSharded(Workload, Phase):
    """2 row bands x 2 replicas over 4 small chips, ABFT ``verify="full"``."""

    name = "pool_sharded"
    tiers = ("session", "pool")
    paper_tiles = False
    SHAPE, ELEMENT_SIZE, INPUT_BITS, BATCH, WAVES = (256, 16), 4, 4, 32, 16
    requests_per_step = BATCH
    sim_steps = 4
    rss_steps = 1000

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, 2)
        self.matrix = signed_matrix(rng, self.SHAPE, self.ELEMENT_SIZE)
        self.waves = rng.integers(
            0, 1 << self.INPUT_BITS,
            size=(self.WAVES, self.BATCH, self.SHAPE[0]), dtype=np.int64,
        )
        self.expected = self.waves @ self.matrix
        self.pool: Optional[DevicePool] = None

    @staticmethod
    def make_pool() -> DevicePool:
        return DevicePool(
            num_devices=4,
            config=ChipConfig(hct=HctConfig.small(), num_hcts=8),
            replication=2, verify="full",
        )

    def setup(self) -> None:
        self.pool = self.make_pool()
        self.allocation = self.pool.set_matrix(
            self.matrix, element_size=self.ELEMENT_SIZE, precision=0
        )
        self.pool.compile(self.allocation, input_bits=self.INPUT_BITS)
        if self.check(0, self.step(0))[0] != self.BATCH:
            raise RuntimeError("pool_sharded: first answer failed its oracle")

    def phases(self) -> List[Phase]:
        return [self]

    def step(self, k: int) -> np.ndarray:
        return self.pool.exec_mvm_batch(
            self.allocation, self.waves[k % self.WAVES],
            input_bits=self.INPUT_BITS,
        )

    def check(self, k: int, out: np.ndarray) -> Verdict:
        return _verdict(out, 0, self.expected[k % self.WAVES])

    def ledger(self) -> CostLedger:
        return self.pool.total_ledger()

    def layers(self) -> Dict[str, Any]:
        return {"pool": self.pool, "devices": self.pool.devices}

    def probe_shapes(self):
        return [(self.SHAPE, self.ELEMENT_SIZE, self.INPUT_BITS, self.BATCH)]

    def check_wave(self):
        return self.matrix, self.ELEMENT_SIZE, self.INPUT_BITS, self.waves[0]

    def planner_builds(self) -> int:
        return self.pool.planner_builds()

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


# --------------------------------------------------------------------- #
# server_deep_queue and tenant_churn                                      #
# --------------------------------------------------------------------- #
class _ServerWorkload(Workload, Phase):
    tiers = ("session", "pool", "server")
    warmup_steps = 2
    TENANTS, SHAPE, ELEMENT_SIZE, INPUT_BITS = 0, (0, 0), 4, 4

    @staticmethod
    def make_server() -> PumServer:
        return PumServer(num_devices=2, queue_capacity=2048)

    def _tenant_matrices(self, rng: np.random.Generator) -> List[np.ndarray]:
        return [signed_matrix(rng, self.SHAPE, self.ELEMENT_SIZE)
                for _ in range(self.TENANTS)]

    def setup(self) -> None:
        self.server = self.make_server()
        self.current = list(self.matrices)
        for tenant, matrix in enumerate(self.current):
            self.server.register_matrix(
                f"t{tenant}", matrix, element_size=self.ELEMENT_SIZE,
                input_bits=self.INPUT_BITS,
            )
        verdict = self.check(0, self.step(0))
        if verdict[1] or verdict[2]:
            raise RuntimeError(f"{self.name}: first answer failed its oracle")

    def phases(self) -> List[Phase]:
        return [self]

    def ledger(self) -> CostLedger:
        return self.server.pool.total_ledger()

    def layers(self) -> Dict[str, Any]:
        return {"server": self.server, "pool": self.server.pool,
                "devices": self.server.pool.devices}

    def planner_builds(self) -> int:
        return self.server.planner_builds()

    def teardown(self) -> None:
        self.server.pool.close()


class ServerDeepQueue(_ServerWorkload):
    """32 tenants, 2048 requests queued per round, default scheduling."""

    name = "server_deep_queue"
    TENANTS, SHAPE, ROWS, ROUNDS = 32, (16, 16), 64, 4
    requests_per_step = TENANTS * ROWS
    sim_steps = 1
    rss_steps = 80

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, 3)
        self.matrices = self._tenant_matrices(rng)
        self.vectors = rng.integers(
            0, 1 << self.INPUT_BITS,
            size=(self.ROUNDS, self.TENANTS, self.ROWS, self.SHAPE[0]),
            dtype=np.int64,
        )
        self.expected = np.stack([
            np.stack([self.vectors[r, t] @ self.matrices[t]
                      for t in range(self.TENANTS)])
            for r in range(self.ROUNDS)
        ])

    def step(self, k: int) -> List[List[Any]]:
        server, vectors = self.server, self.vectors[k % self.ROUNDS]
        futures = [
            server.submit_batch(f"t{tenant}", vectors[tenant],
                                input_bits=self.INPUT_BITS)
            for tenant in range(self.TENANTS)
        ]
        server.run_until_idle()
        return futures

    def check(self, k: int, out: List[List[Any]]) -> Verdict:
        good = wrong = bad = 0
        for tenant, futures in enumerate(out):
            rows, not_ok = _rows_of(futures)
            verdict = _verdict(rows, not_ok,
                               self.expected[k % self.ROUNDS, tenant])
            good, wrong, bad = (good + verdict[0], wrong + verdict[1],
                                bad + verdict[2])
        return good, wrong, bad

    def probe_shapes(self):
        return [(self.SHAPE, self.ELEMENT_SIZE, self.INPUT_BITS, 16)]

    def check_wave(self):
        return (self.matrices[0], self.ELEMENT_SIZE, self.INPUT_BITS,
                self.vectors[0, 0])


class TenantChurn(_ServerWorkload):
    """Writes beside reads: every round re-registers one tenant.

    Rounds come in pairs on one tenant: new bytes (release, reprogram,
    compile), then the same bytes again (registration-memo reuse).  Each
    round then sends 32 requests to that tenant and 32 to its neighbour.
    """

    name = "tenant_churn"
    #: Odd, so that with set-up's step 0 the measured phase starts a pair.
    warmup_steps = 7
    TENANTS, SHAPE, ROWS, WAVES = 16, (64, 64), 32, 16
    #: Replacement matrices, cycled; coprime with TENANTS so a tenant
    #: never gets back the bytes it already holds.
    REPLACEMENTS = 37
    requests_per_step = 2 * ROWS
    sim_steps = 2
    rss_steps = 1200

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, 4)
        self.matrices = self._tenant_matrices(rng)
        self.replacements = [signed_matrix(rng, self.SHAPE, self.ELEMENT_SIZE)
                             for _ in range(self.REPLACEMENTS)]
        self.vectors = rng.integers(
            0, 1 << self.INPUT_BITS,
            size=(self.WAVES, 2, self.ROWS, self.SHAPE[0]), dtype=np.int64,
        )

    def step(self, k: int) -> Tuple[List[Any], List[Any]]:
        server = self.server
        tenant = (k // 2) % self.TENANTS
        if k % 2 == 0:
            self.current[tenant] = \
                self.replacements[(k // 2) % self.REPLACEMENTS]
        server.register_matrix(
            f"t{tenant}", self.current[tenant],
            element_size=self.ELEMENT_SIZE, input_bits=self.INPUT_BITS,
        )
        mine, next_door = self.vectors[k % self.WAVES]
        out = (
            server.submit_batch(f"t{tenant}", mine,
                                input_bits=self.INPUT_BITS),
            server.submit_batch(f"t{(tenant + 1) % self.TENANTS}", next_door,
                                input_bits=self.INPUT_BITS),
        )
        server.run_until_idle()
        return out

    def check(self, k: int, out: Tuple[List[Any], List[Any]]) -> Verdict:
        tenant = (k // 2) % self.TENANTS
        good = wrong = bad = 0
        for futures, vectors, owner in zip(
            out, self.vectors[k % self.WAVES],
            (tenant, (tenant + 1) % self.TENANTS),
        ):
            rows, not_ok = _rows_of(futures)
            verdict = _verdict(rows, not_ok, vectors @ self.current[owner])
            good, wrong, bad = (good + verdict[0], wrong + verdict[1],
                                bad + verdict[2])
        return good, wrong, bad

    def probe_shapes(self):
        return [(self.SHAPE, self.ELEMENT_SIZE, self.INPUT_BITS, 16)]

    def check_wave(self):
        return (self.matrices[0], self.ELEMENT_SIZE, self.INPUT_BITS,
                self.vectors[0, 0])


# --------------------------------------------------------------------- #
# cluster_open_loop and cluster_saturate                                  #
# --------------------------------------------------------------------- #
class ClusterWorkload:
    """Two workers, replication 2, four 24x16 4-bit matrices, 16-row waves."""

    tiers = ("session", "pool", "server", "gateway")
    paper_tiles = False
    MATRICES, SHAPE, ELEMENT_SIZE, INPUT_BITS = 4, (24, 16), 4, 4
    WAVE_ROWS, WAVES = 16, 64
    #: A 24-row matrix takes two 16-row small tiles; each worker holds all
    #: four (replication 2 over 2 workers), so the default 3 HCTs is too few.
    GATEWAY = dict(num_workers=2, replication=2, chip="small", noise=None,
                   max_batch=16, max_wait_ticks=1, num_hcts=12)

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, 5)
        self.matrices = [signed_matrix(rng, self.SHAPE, self.ELEMENT_SIZE)
                         for _ in range(self.MATRICES)]
        self.vectors = rng.integers(
            0, 1 << self.INPUT_BITS,
            size=(self.WAVES, self.WAVE_ROWS, self.SHAPE[0]), dtype=np.int64,
        )
        self.expected = np.stack([
            self.vectors[w] @ self.matrices[w % self.MATRICES]
            for w in range(self.WAVES)
        ])
        self.seed = seed

    def wave(self, k: int) -> Tuple[str, np.ndarray, np.ndarray]:
        """``(matrix name, vectors, expected rows)`` of wave ``k``."""
        slot = k % self.WAVES
        return (f"m{slot % self.MATRICES}", self.vectors[slot],
                self.expected[slot])

    def worker_spec(self) -> Dict[str, Any]:
        """The spec ``ClusterGateway`` hands its workers, for the twin."""
        spec = {key: self.GATEWAY[key] for key in
                ("chip", "num_hcts", "noise", "max_batch", "max_wait_ticks")}
        spec.update(num_devices=1, backend=None, policy="cache_affinity",
                    queue_capacity=4096, verify="off")
        return spec

    def make_gateway(self):
        from repro.runtime.cluster import ClusterGateway

        return ClusterGateway(**self.GATEWAY)

    async def register(self, gateway) -> None:
        for index, matrix in enumerate(self.matrices):
            await gateway.register_matrix(
                f"m{index}", matrix, element_size=self.ELEMENT_SIZE,
                input_bits=self.INPUT_BITS,
            )

    def probe_shapes(self):
        return [(self.SHAPE, self.ELEMENT_SIZE, self.INPUT_BITS,
                 self.WAVE_ROWS)]

    def check_wave(self):
        return (self.matrices[0], self.ELEMENT_SIZE, self.INPUT_BITS,
                self.vectors[0])


class ClusterOpenLoop(ClusterWorkload):
    """Poisson arrivals of 16-row waves at a fixed 2000 requests/s."""

    name = "cluster_open_loop"
    RATE_RPS = 2000.0
    #: A request answered later than this after its due time is not goodput.
    LIMIT_S = 0.1

    def due_times(self, seconds: float) -> np.ndarray:
        """Poisson arrivals over ``seconds``, given how many there are (the
        same count for every seed, so no seed offers more than another)."""
        waves = max(20, int(seconds * self.RATE_RPS / self.WAVE_ROWS))
        return np.sort(_rng(self.seed, 6).uniform(0.0, seconds, size=waves))


class ClusterSaturate(ClusterWorkload):
    """One generator, back to back, at most 8 waves outstanding."""

    name = "cluster_saturate"
    OUTSTANDING = 8
    #: Waves after which memory is read (see ``Phase.rss_steps``).
    RSS_WAVES = 6000


IN_PROCESS = {cls.name: cls for cls in
              (KernelPaperShapes, PoolSharded, ServerDeepQueue, TenantChurn)}
CLUSTER = {cls.name: cls for cls in (ClusterOpenLoop, ClusterSaturate)}
