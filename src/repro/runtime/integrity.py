"""ABFT output verification and device-health scoring for the pool.

Silent data corruption is the one fault the replication tier (PR 6) cannot
see: a device that bit-flips a partial result still *returns*, so nothing
retries and the wrong answer rides all the way to the caller.  This module
closes that hole with the classic algorithm-based fault tolerance (ABFT)
trick for matrix products -- Huang & Abraham's checksum encoding:

* For each row band ``W`` of a registered matrix, precompute the column-sum
  check vector ``c = W @ 1`` once (``O(rows * cols)``, paid at
  registration).  Because ``(x @ W) @ 1 == x @ (W @ 1)``, any partial
  result ``P = x @ W`` must satisfy ``P @ 1 == x @ c`` -- a property the
  pool can test in ``O(batch * (rows + cols))``, a vanishing fraction of
  the MVM's ``O(batch * rows * cols)``.
* On the integer fast path (noise-free pools) the identity is *exact*: a
  single flipped bit always perturbs the row sum, so every corruption is
  detected.  Under analog noise presets the comparison is tolerance-banded
  against ``|x| @ |W|1`` (best-effort detection: perturbations inside the
  band are indistinguishable from noise by construction).
* :class:`DeviceHealth` turns detections and failures into a per-device
  EWMA score so a chip that keeps corrupting results is *quarantined*
  (auto ``mark_device_failed``) instead of being retried forever.

The checker is wired into :class:`~repro.runtime.pool.DevicePool` via the
``verify`` mode (``"off"`` / ``"audit"`` / ``"full"``); see that class for
the serving-path semantics.

>>> import numpy as np
>>> from repro.runtime.integrity import IntegrityChecker, band_check_vector
>>> matrix = np.arange(12, dtype=np.int64).reshape(4, 3)
>>> checker = IntegrityChecker()
>>> checker.register(0, matrix, [(0, 4)])
>>> x = np.array([[1, 0, 2, 1]], dtype=np.int64)
>>> checker.verify(0, 0, x, x @ matrix)
True
>>> corrupted = (x @ matrix) ^ 4  # one flipped bit
>>> checker.verify(0, 0, x, corrupted)
False
>>> bool(np.array_equal(band_check_vector(matrix), matrix.sum(axis=1)))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics import ema

__all__ = [
    "DEFAULT_NOISE_TOLERANCE",
    "VERIFY_MODES",
    "BandChecksum",
    "DeviceHealth",
    "IntegrityChecker",
    "band_check_vector",
]

#: Supported verification modes (see ``DevicePool(verify=...)``).
VERIFY_OFF = "off"
VERIFY_AUDIT = "audit"
VERIFY_FULL = "full"
VERIFY_MODES = (VERIFY_OFF, VERIFY_AUDIT, VERIFY_FULL)

#: Relative tolerance used under noise presets when the caller does not
#: pass an explicit one: residuals up to this fraction of ``|x| @ |W|1``
#: are attributed to analog noise rather than corruption.
DEFAULT_NOISE_TOLERANCE = 0.05


def band_check_vector(block: np.ndarray) -> np.ndarray:
    """The ABFT column-sum check vector ``W @ 1`` of one row band."""
    return np.asarray(block, dtype=np.int64).sum(axis=1)


@dataclass(frozen=True)
class BandChecksum:
    """Precomputed check vectors of one row band of one allocation."""

    row_start: int
    row_end: int
    #: ``W @ 1``: the exact-identity check vector.
    check: np.ndarray
    #: ``|W| @ 1``: scales the tolerance band under analog noise.
    abs_check: np.ndarray


@dataclass
class DeviceHealth:
    """EWMA fault score of one pool device (quarantine input).

    Every verified-clean call decays the score toward 0; every corruption
    detection or device failure pulls it toward 1 with weight ``alpha``.
    With the defaults (``alpha=0.25``, ``threshold=0.5``) three
    back-to-back bad events cross the threshold (0.25, 0.44, 0.58) while
    isolated glitches wash out -- the pool quarantines the device at the
    crossing.  ``corruptions`` / ``failures`` are lifetime counters and
    survive :meth:`reset`; the score and the quarantine flag do not.
    """

    alpha: float = 0.25
    threshold: float = 0.5
    score: float = 0.0
    corruptions: int = 0
    failures: int = 0
    quarantined: bool = False

    def record_ok(self) -> None:
        """Decay the score after one verified-clean (or uneventful) call."""
        if self.score:
            self.score = ema(self.score, 0.0, self.alpha)

    def record_corruption(self) -> bool:
        """Account one checksum detection; True when the threshold is crossed."""
        self.corruptions += 1
        return self._bump()

    def record_failure(self) -> bool:
        """Account one device failure; True when the threshold is crossed."""
        self.failures += 1
        return self._bump()

    def _bump(self) -> bool:
        self.score = ema(self.score, 1.0, self.alpha)
        return self.score >= self.threshold

    def reset(self) -> None:
        """Clear the score and the quarantine flag (``restore_device``)."""
        self.score = 0.0
        self.quarantined = False


class IntegrityChecker:
    """Registry of per-band ABFT checksums plus the verification predicate.

    One checker serves one pool: ``register`` is called at matrix
    registration with the source matrix and its band boundaries, ``verify``
    once per checked fan-out result.  ``tolerance`` overrides the relative
    tolerance band (``None`` = exact on noise-free pools,
    :data:`DEFAULT_NOISE_TOLERANCE` under noise; ``0.0`` forces exact).
    """

    def __init__(self, tolerance: Optional[float] = None,
                 noisy: bool = False) -> None:
        if tolerance is not None and tolerance < 0:
            raise ValueError("integrity tolerance must be >= 0")
        self.tolerance = tolerance
        self.noisy = bool(noisy)
        #: allocation id -> that allocation's checksums in band order.
        self._bands: Dict[int, List[BandChecksum]] = {}

    def register(
        self,
        allocation_id: int,
        matrix: np.ndarray,
        bands: Sequence[Tuple[int, int]],
    ) -> None:
        """Precompute check vectors for every ``(row_start, row_end)`` band."""
        matrix = np.asarray(matrix, dtype=np.int64)
        self._bands[allocation_id] = [
            BandChecksum(
                row_start=row_start,
                row_end=row_end,
                check=matrix[row_start:row_end, :].sum(axis=1),
                abs_check=np.abs(matrix[row_start:row_end, :]).sum(axis=1),
            )
            for row_start, row_end in bands
        ]

    def forget(self, allocation_id: int) -> None:
        """Drop every checksum of one allocation (on release)."""
        self._bands.pop(allocation_id, None)

    def covers(self, allocation_id: int) -> bool:
        """Whether ``allocation_id`` has registered checksums."""
        return allocation_id in self._bands

    def _effective_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return DEFAULT_NOISE_TOLERANCE if self.noisy else 0.0

    def verify(
        self,
        allocation_id: int,
        position: int,
        vectors: np.ndarray,
        partial: np.ndarray,
    ) -> Optional[bool]:
        """Check one shard partial against its band checksum.

        ``vectors`` is the input slice the band consumed (``(batch, rows)``
        or a single ``(rows,)`` vector); ``partial`` the device's
        full-width contribution.  Returns ``True``/``False`` for a
        registered band, ``None`` when the band has no checksum (nothing
        to verify -- e.g. an allocation created before the checker).
        """
        checksums = self._bands.get(allocation_id)
        if checksums is None or position >= len(checksums):
            return None
        band = checksums[position]
        # One scalar per vector either way: a batch reduces row by row, a
        # single vector to a 0-d value.
        vectors = np.asarray(vectors, dtype=np.int64)
        expected = vectors @ band.check
        got = np.asarray(partial, dtype=np.int64).sum(axis=-1)
        tolerance = self._effective_tolerance()
        if tolerance == 0.0:
            return bool(np.array_equal(got, expected))
        # Scale the band per vector: larger inputs accumulate more analog
        # noise.  The +tolerance floor keeps all-zero vectors checkable.
        bound = tolerance * (np.abs(vectors) @ band.abs_check) + tolerance
        return bool(np.all(np.abs(got - expected) <= bound))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntegrityChecker(allocations={len(self._bands)}, "
            f"tolerance={self._effective_tolerance()})"
        )
