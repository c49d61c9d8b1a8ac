"""The shared front-end unit (Figure 8, Table 3).

One front end serves eight HCTs: it fetches hybrid-ISA instructions, decodes
them into analog or digital µop classes, and issues them to the target
HCT's queues.  Thanks to the per-HCT instruction injection units, the front
end only issues one instruction per MVM instead of the hundreds of reduction
µops, which is what lets a single front end keep eight tiles busy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import IsaError
from ..isa.instructions import Instruction, InstructionClass
from ..metrics import CostLedger

__all__ = ["FrontEnd", "IssueRecord"]


@dataclass(frozen=True)
class IssueRecord:
    """One issued instruction with its decode/issue timing."""

    instruction: Instruction
    hct_index: int
    issue_cycle: float


@dataclass
class FrontEnd:
    """A fetch/decode/issue unit shared by a cluster of HCTs."""

    front_end_id: int = 0
    hcts_served: int = 8
    #: Cycles to fetch+decode+issue one instruction.
    issue_latency_cycles: float = 1.0
    #: Power of the front end while active (Table 3: 63 mW).
    power_mw: float = 63.0
    ledger: CostLedger = field(default_factory=CostLedger)
    issued: List[IssueRecord] = field(default_factory=list)
    _clock: float = 0.0
    _stalled_until: Dict[int, float] = field(default_factory=dict)

    def issue(self, instruction: Instruction, hct_index: int) -> IssueRecord:
        """Issue one instruction to an HCT it serves.

        Analog-class instructions mark the target HCT busy for their expected
        duration; issuing to a busy HCT stalls the front end (Section 4.2's
        motivation for the IIU).
        """
        if hct_index // self.hcts_served != self.front_end_id and self.hcts_served > 0:
            # Front ends only serve their own cluster; the chip routes around.
            raise IsaError(
                f"front end {self.front_end_id} does not serve HCT {hct_index}"
            )
        ready = self._stalled_until.get(hct_index, 0.0)
        start = max(self._clock, ready)
        stall = start - self._clock
        self._clock = start + self.issue_latency_cycles
        if instruction.klass is InstructionClass.ANALOG:
            self._stalled_until[hct_index] = start + max(
                instruction.expected_cycles, self.issue_latency_cycles
            )
        self.ledger.charge_power(
            "frontend.issue", cycles=self.issue_latency_cycles + stall, power_mw=self.power_mw
        )
        record = IssueRecord(instruction=instruction, hct_index=hct_index, issue_cycle=start)
        self.issued.append(record)
        return record

    @property
    def clock(self) -> float:
        """Current front-end cycle."""
        return self._clock
