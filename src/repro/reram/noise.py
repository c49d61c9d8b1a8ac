"""Analog non-ideality models (Section 2.2.1 and Section 7.5).

The paper identifies five error sources for analog PUM: programming noise,
parasitics (IR drop; modelled in :mod:`repro.reram.parasitics`), read noise,
conductance drift, and stuck-at faults.  Each is modelled here as a small,
composable transformer over conductance matrices so the analog crossbar can
apply exactly the subset of error sources an experiment enables.

Read noise has one definition and one execution form.  The definition is
per device: :meth:`ReadNoiseModel.apply` reads every conductance as
``max(g * (1 + sigma * n), 0)`` with an independent ``n ~ N(0, 1)`` per
device per access.  The MVM paths never materialise those perturbed
planes: only bitline sums are observed, and for a binary wordline vector
``x`` the sum of the per-device terms down column ``j`` is exactly
``N(0, sigma**2 * (x @ (g_pos**2 + g_neg**2))_j)``, so both execution
engines draw one standard normal per *bitline* per access
(:func:`repro.analog.crossbar.add_read_noise`) -- ``batch * cols`` samples
per crossbar step where the per-device form needs ``2 * rows * cols``.
The bitline form drops only the clamp at zero conductance, reachable for
``n < -1 / sigma`` (-500 standard deviations at the device default 0.002);
it is the per-device model in distribution for ``sigma <~ 0.1``
(``tests/test_reram.py`` measures the two against each other).

Every crossbar owns one generator, seeded ``(config.seed, tile_id,
array_id)``: programming noise, the stuck-at map and read noise of one
array draw from it, and no two arrays of a device share a stream, so their
errors add in quadrature rather than coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .device import DeviceParameters

__all__ = [
    "NoiseConfig",
    "ProgrammingNoiseModel",
    "ReadNoiseModel",
    "DriftModel",
    "StuckAtFaultModel",
    "NoiseStack",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Which error sources are enabled, and with what strength.

    ``None`` for a sigma/rate means "use the device default"; ``0`` disables
    the corresponding error source entirely.
    """

    programming_noise: bool = True
    read_noise: bool = True
    ir_drop: bool = True
    drift: bool = False
    stuck_at_faults: bool = False
    programming_sigma: Optional[float] = None
    read_sigma: Optional[float] = None
    drift_rate: float = 0.001
    stuck_at_rate: Optional[float] = None
    seed: int = 0

    @classmethod
    def ideal(cls) -> "NoiseConfig":
        """A configuration with every error source disabled."""
        return cls(
            programming_noise=False,
            read_noise=False,
            ir_drop=False,
            drift=False,
            stuck_at_faults=False,
        )

    @classmethod
    def paper_default(cls) -> "NoiseConfig":
        """The error sources CrossSim models in detail (Section 7.5):
        programming noise and parasitics, plus read noise."""
        return cls(programming_noise=True, read_noise=True, ir_drop=True)


class ProgrammingNoiseModel:
    """Write--verify programming noise (MILO-style level dependence).

    The residual error after write--verify programming grows with the target
    conductance: devices programmed near ``g_max`` show a larger absolute
    spread than devices near ``g_min``.  We model the error as zero-mean
    Gaussian with standard deviation ``sigma * g_target`` (relative noise),
    clipped to the physical conductance range.
    """

    def __init__(self, params: DeviceParameters, sigma: Optional[float] = None) -> None:
        self.params = params
        self.sigma = params.programming_noise_sigma if sigma is None else float(sigma)

    def apply(self, conductances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return programmed conductances with residual write error."""
        if self.sigma == 0.0:
            return np.array(conductances, dtype=float, copy=True)
        conductances = np.asarray(conductances, dtype=float)
        noise = rng.normal(0.0, self.sigma, size=conductances.shape) * conductances
        return np.clip(conductances + noise, self.params.g_min, self.params.g_max)


class ReadNoiseModel:
    """Per-access random perturbation of the sensed current.

    Read noise is re-drawn on every MVM, unlike programming noise which is
    frozen when the matrix is written.  :meth:`apply` is the per-device
    definition; MVMs execute its bitline-sum equivalent (module docstring).
    """

    def __init__(self, params: DeviceParameters, sigma: Optional[float] = None) -> None:
        self.params = params
        self.sigma = params.read_noise_sigma if sigma is None else float(sigma)

    def apply(self, conductances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return effective conductances seen by a single read/MVM."""
        if self.sigma == 0.0:
            return conductances
        conductances = np.asarray(conductances, dtype=float)
        noise = rng.normal(0.0, self.sigma, size=conductances.shape) * conductances
        return np.clip(conductances + noise, 0.0, None)


class DriftModel:
    """Conductance drift over time.

    Modelled as a multiplicative decay toward ``g_min`` with rate
    ``drift_rate`` per unit time: ``g(t) = g_min + (g - g_min) * (1 - rate)**t``.
    """

    def __init__(self, params: DeviceParameters, drift_rate: float = 0.001) -> None:
        if not 0.0 <= drift_rate < 1.0:
            raise ValueError("drift_rate must be in [0, 1)")
        self.params = params
        self.drift_rate = float(drift_rate)

    def apply(self, conductances: np.ndarray, elapsed: float) -> np.ndarray:
        """Return conductances after ``elapsed`` time units of drift."""
        if elapsed < 0:
            raise ValueError("elapsed time must be non-negative")
        conductances = np.asarray(conductances, dtype=float)
        factor = (1.0 - self.drift_rate) ** elapsed
        return self.params.g_min + (conductances - self.params.g_min) * factor


class StuckAtFaultModel:
    """Devices stuck at the high- or low-conductance extreme.

    The fault map is generated once per array (manufacturing defects) and
    then applied to every programming operation.
    """

    def __init__(self, params: DeviceParameters, rate: Optional[float] = None) -> None:
        self.params = params
        self.rate = params.stuck_at_probability if rate is None else float(rate)
        self._mask: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    def build_fault_map(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Generate (and remember) a fault map for an array of ``shape``."""
        mask = rng.random(shape) < self.rate
        stuck_high = rng.random(shape) < 0.5
        values = np.where(stuck_high, self.params.g_max, self.params.g_min)
        self._mask = mask
        self._values = values
        return mask

    @property
    def fault_count(self) -> int:
        """Number of stuck devices in the current fault map."""
        return 0 if self._mask is None else int(self._mask.sum())

    def apply(self, conductances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Overwrite stuck positions with their stuck value."""
        if self.rate == 0.0:
            return conductances
        conductances = np.asarray(conductances, dtype=float)
        if self._mask is None or self._mask.shape != conductances.shape:
            self.build_fault_map(conductances.shape, rng)
        assert self._mask is not None and self._values is not None
        return np.where(self._mask, self._values, conductances)


@dataclass
class NoiseStack:
    """The full set of error sources applied by an analog array.

    ``program()`` is applied once when a matrix is written; ``read()`` is
    the per-device read of a conductance plane (MVMs add the equivalent
    bitline term instead, drawing from :attr:`rng`).  IR drop is handled
    separately by the crossbar because it depends on the applied inputs,
    not only the stored state.
    """

    params: DeviceParameters
    config: NoiseConfig = field(default_factory=NoiseConfig)
    #: What names this array under ``config.seed`` -- ``(tile_id, array_id)``
    #: inside a device -- so every array draws from its own stream.
    stream: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self._rng: Optional[np.random.Generator] = None
        self.programming = ProgrammingNoiseModel(self.params, self.config.programming_sigma)
        self.read_noise = ReadNoiseModel(self.params, self.config.read_sigma)
        self.drift = DriftModel(self.params, self.config.drift_rate)
        self.stuck_at = StuckAtFaultModel(self.params, self.config.stuck_at_rate)

    @property
    def rng(self) -> np.random.Generator:
        """This array's generator, shared by its stochastic error sources.

        Built at the first draw: an array that is programmed and read
        without an active error source never pays for one.
        """
        if self._rng is None:
            self._rng = np.random.default_rng((self.config.seed, *self.stream))
        return self._rng

    def program(self, conductances: np.ndarray) -> np.ndarray:
        """Apply programming-time error sources (write noise, stuck-at)."""
        result = np.array(conductances, dtype=float, copy=True)
        if self.config.programming_noise:
            result = self.programming.apply(result, self.rng)
        if self.config.stuck_at_faults:
            result = self.stuck_at.apply(result, self.rng)
        return result

    def read(self, conductances: np.ndarray, elapsed: float = 0.0) -> np.ndarray:
        """Apply read-time error sources (read noise, drift)."""
        result = conductances
        if self.config.drift and elapsed > 0:
            result = self.drift.apply(result, elapsed)
        if self.config.read_noise:
            result = self.read_noise.apply(result, self.rng)
        return result

    @property
    def read_noise_active(self) -> bool:
        """Whether an access draws fresh stochastic noise."""
        return bool(self.config.read_noise and self.read_noise.sigma != 0.0)
