"""The ACE-to-DCE shift unit (Section 4.1).

Without a shift unit, every partial product written into the DCE must be
shifted into its bit position with digital PUM operations *before* it can be
accumulated, serialising write, shift, and add (Figure 10a).  The shift unit
applies the (statically known) shift while the data crosses the ACE-to-DCE
transfer network, so the DCE receives partial products already aligned and
only the pipelined adds remain (Figure 10b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = ["ShiftUnit", "ShiftedTransfer"]


@dataclass(frozen=True)
class ShiftedTransfer:
    """A partial-product vector after the in-flight shift."""

    values: np.ndarray
    shift: int
    transfer_cycles: float


class ShiftUnit:
    """Applies fixed shifts during ACE-to-DCE transfers and rate-matches them.

    Parameters
    ----------
    transfer_bytes_per_cycle:
        Bandwidth of the ACE-to-DCE data network (Table 2 uses 8 B/cycle,
        chosen to rate-match ADC throughput with DCE write bandwidth).
    element_bytes:
        Size of one transferred partial-product element.
    """

    def __init__(self, transfer_bytes_per_cycle: int = 8, element_bytes: int = 2) -> None:
        if transfer_bytes_per_cycle < 1 or element_bytes < 1:
            raise ConfigurationError("transfer bandwidth and element size must be positive")
        self.transfer_bytes_per_cycle = int(transfer_bytes_per_cycle)
        self.element_bytes = int(element_bytes)
        #: Shift amount per input bit position, configured when a vACore is
        #: allocated; ``None`` means "use the shift supplied with the data".
        self.configured_shift_per_bit: Optional[int] = None

    def configure(self, shift_per_input_bit: int) -> None:
        """Fix the per-input-bit shift (done by ``allocVACore``)."""
        if shift_per_input_bit < 0:
            raise ConfigurationError("shift per input bit must be non-negative")
        self.configured_shift_per_bit = shift_per_input_bit

    def transfer_cycles(self, num_elements: int) -> float:
        """Cycles to move ``num_elements`` partial products across the network."""
        total_bytes = num_elements * self.element_bytes
        return float(-(-total_bytes // self.transfer_bytes_per_cycle))

    def apply(self, values: np.ndarray, input_bit: int, extra_shift: int = 0) -> ShiftedTransfer:
        """Shift ``values`` according to their input-bit position during transfer.

        ``extra_shift`` carries the weight-slice contribution for bit-sliced
        matrices; both are known statically, so no software intervention or
        reconfigurable interconnect is needed.
        """
        per_bit = 1 if self.configured_shift_per_bit is None else self.configured_shift_per_bit
        shift = input_bit * per_bit + extra_shift
        shifted = np.asarray(values, dtype=np.int64) << shift
        # ``values`` may be one partial-product vector or a (batch, width)
        # matrix of them; either way every element crosses the network.
        return ShiftedTransfer(
            values=shifted,
            shift=shift,
            transfer_cycles=self.transfer_cycles(int(np.asarray(values).size)),
        )
