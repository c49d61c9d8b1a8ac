"""Cost-model-driven scheduling policies for the :class:`PumServer`.

The scheduler's dispatch decision used to be a hard-wired knob pair: a
group dispatched when it held ``max_batch`` requests or its oldest member
had waited ``max_wait_ticks``.  This module makes that decision a pluggable
strategy, and a policy instance handed to ``PumServer(scheduling=...)`` is
the one way to say when a batch dispatches.  Every policy carries the knob pair:

* :class:`StaticBatchingPolicy` is the knob pair itself (same readiness
  checks, same dispatch order, same ledgers) and what a server built
  without a policy uses.
* :class:`CostAwarePolicy` uses each group's cached
  :class:`~repro.plan.ir.PlanCostModel` as an online oracle: it predicts
  the batch's latency *before dispatching anything* and weighs the
  prediction against the group's tightest deadline slack, so a group
  dispatches the moment waiting longer would start shedding its riders --
  instead of blindly aging out.  Urgent groups dispatch first.
* :class:`SloClass` names a latency target + priority pair so callers
  submit with ``slo="interactive"`` instead of computing absolute deadline
  ticks by hand.

Every decision is a pure function of the queue state, the tick counter,
and closed-form plan costs -- replaying one tick trace twice produces
identical dispatch batches, responses, and shed sets.

>>> from repro.runtime.scheduling import CostAwarePolicy, StaticBatchingPolicy
>>> StaticBatchingPolicy(max_batch=8, max_wait_ticks=2)
StaticBatchingPolicy(max_batch=8, max_wait_ticks=2)
>>> CostAwarePolicy().name
'cost_aware'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..errors import SchedulerError, SloError
from .queueing import GroupKey, IndexedRequestQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import PumServer

__all__ = [
    "CostAwarePolicy",
    "SLO_CLASSES",
    "SchedulingPolicy",
    "SloClass",
    "StaticBatchingPolicy",
    "resolve_slo",
]

#: :class:`CostAwarePolicy`'s constants, read at use (a test sets one with
#: ``monkeypatch.setattr``).  Modelled chip cycles per scheduler tick: how a
#: predicted batch latency becomes ticks.
TICK_CYCLES = 10_000.0
#: Ticks of margin on top of a group's predicted batch latency: a group whose
#: deadline slack is within the sum dispatches at once.
MARGIN_TICKS = 1
#: How far (relative) the predicted per-request cost at the current fill
#: may sit above its full-batch value for the group to stop waiting.
AMORTIZATION_TOLERANCE = 0.05


# ---------------------------------------------------------------------- #
# SLO classes                                                             #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SloClass:
    """A named service-level objective: latency target plus priority.

    ``latency_target_ticks`` is relative -- ``submit(slo=...)`` turns it
    into an absolute deadline at admission time (``None`` means no
    deadline).  ``shed_priority`` is the priority the request assumes when
    the caller does not pass one explicitly.  It orders dispatch only:
    within a group, tight classes ride the next batch ahead of loose ones.
    Nothing is shed at admission -- a full queue rejects the newcomer,
    whatever its class -- and a queued request is shed only when its
    deadline passes.
    """

    name: str
    latency_target_ticks: Optional[int] = None
    shed_priority: int = 0

    def __post_init__(self) -> None:
        if self.latency_target_ticks is not None and self.latency_target_ticks < 1:
            raise SloError(
                f"SLO class {self.name!r}: latency_target_ticks must be >= 1 "
                f"or None (got {self.latency_target_ticks})"
            )

    def deadline_for(self, now: int) -> Optional[int]:
        """Absolute deadline tick of a request admitted at ``now``."""
        if self.latency_target_ticks is None:
            return None
        return now + self.latency_target_ticks


#: The built-in SLO classes (callers may also pass their own instances).
SLO_CLASSES: Dict[str, SloClass] = {
    "interactive": SloClass("interactive", latency_target_ticks=4, shed_priority=20),
    "standard": SloClass("standard", latency_target_ticks=16, shed_priority=10),
    "batch": SloClass("batch", latency_target_ticks=None, shed_priority=0),
}


def resolve_slo(slo: Union[None, str, SloClass]) -> Optional[SloClass]:
    """Resolve an SLO name (or pass through an instance / ``None``)."""
    if slo is None or isinstance(slo, SloClass):
        return slo
    resolved = SLO_CLASSES.get(slo)
    if resolved is None:
        raise SloError(
            f"unknown SLO class {slo!r}; expected one of {tuple(SLO_CLASSES)} "
            f"or an SloClass instance"
        )
    return resolved


# ---------------------------------------------------------------------- #
# The scheduling strategy surface                                         #
# ---------------------------------------------------------------------- #
class SchedulingPolicy:
    """Strategy object deciding *when* each request group dispatches.

    The server calls, under its lock, in tick order: :meth:`ready_groups` to
    enumerate the groups worth visiting, and :meth:`dispatch_now` once per
    candidate batch inside the dispatch loop (the batch dispatches only
    when it returns True, sized by :attr:`max_batch`).  Every policy has
    the knob pair ``max_batch`` / ``max_wait_ticks``; policies hold no
    other state and may be shared between servers.
    """

    name = "base"

    def __init__(self, max_batch: int = 16, max_wait_ticks: int = 4) -> None:
        if max_batch < 1:
            raise SchedulerError("max_batch must be >= 1")
        if max_wait_ticks < 0:
            raise SchedulerError("max_wait_ticks must be >= 0")
        #: Largest coalesced batch handed to ``exec_mvm_batch``.
        self.max_batch = int(max_batch)
        #: Ticks the oldest member of a group may wait before it dispatches.
        self.max_wait_ticks = int(max_wait_ticks)

    def ready_groups(
        self, server: "PumServer", queue: IndexedRequestQueue, now: int
    ) -> List[GroupKey]:
        """The groups to visit this tick, in dispatch-priority order."""
        raise NotImplementedError

    def dispatch_now(
        self, server: "PumServer", queue: IndexedRequestQueue, key: GroupKey, now: int
    ) -> bool:
        """Whether ``key`` should dispatch a batch now rather than wait."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(max_batch={self.max_batch}, "
            f"max_wait_ticks={self.max_wait_ticks})"
        )


class StaticBatchingPolicy(SchedulingPolicy):
    """The classic knob pair, and the server's default policy.

    A group dispatches when it holds ``max_batch`` requests or its oldest
    member has waited ``max_wait_ticks`` -- evaluated through the queue's
    own ``ready_groups``.
    """

    name = "static"

    def ready_groups(
        self, server: "PumServer", queue: IndexedRequestQueue, now: int
    ) -> List[GroupKey]:
        return queue.ready_groups(now, self.max_batch, self.max_wait_ticks)

    def dispatch_now(
        self, server: "PumServer", queue: IndexedRequestQueue, key: GroupKey, now: int
    ) -> bool:
        # The oldest member's wait is only read when the batch is not
        # already full.
        if queue.group_pending(key) >= self.max_batch:
            return True
        return queue.oldest_wait(key, now) >= self.max_wait_ticks


class CostAwarePolicy(SchedulingPolicy):
    """Profile-guided dispatch: the plan cost model as an online oracle.

    For every group the policy reads the tightest deadline among its
    members and asks the group's cached :class:`~repro.plan.ir.PlanCostModel`
    (through :meth:`PumServer.predicted_batch_cycles`, closed-form, cached,
    zero execution) what the pending batch would cost.  The decision flow
    per group:

    1. full batch (``pending >= max_batch``) -> dispatch;
    2. deadline pressure: ``slack <= predicted_batch_ticks +``
       :data:`MARGIN_TICKS` -> dispatch *now*, before waiting longer sheds
       the tight riders the static policy would age past their deadline;
    3. amortisation converged: the predicted per-request cycles at the
       current fill are within :data:`AMORTIZATION_TOLERANCE` of their value
       at a full batch (waiting longer buys nothing the cost model can see)
       and the group has waited at least one tick -> dispatch;
    4. otherwise wait, bounded by ``max_wait_ticks`` exactly like the
       static policy.

    Ready groups are visited tightest-slack first (ties: oldest arrival),
    so urgent work never queues behind loose work.  :data:`TICK_CYCLES`
    maps modelled chip cycles onto scheduler ticks.
    """

    name = "cost_aware"

    def predicted_batch_ticks(
        self, server: "PumServer", key: GroupKey, batch: int
    ) -> float:
        """Predicted batch latency in scheduler ticks (cycles / TICK_CYCLES)."""
        name, input_bits = key
        return server.predicted_batch_cycles(name, input_bits, batch) / TICK_CYCLES

    def ready_groups(
        self, server: "PumServer", queue: IndexedRequestQueue, now: int
    ) -> List[GroupKey]:
        ready: List[Tuple[float, int, GroupKey]] = []
        for key in queue.group_keys():
            if not queue.group_pending(key):
                continue
            if self.dispatch_now(server, queue, key, now):
                deadline = queue.min_deadline(key)
                slack = float(deadline - now) if deadline is not None else float("inf")
                arrival = now - queue.oldest_wait(key, now)
                ready.append((slack, arrival, key))
        ready.sort()
        return [key for _, _, key in ready]

    def dispatch_now(
        self, server: "PumServer", queue: IndexedRequestQueue, key: GroupKey, now: int
    ) -> bool:
        pending = queue.group_pending(key)
        if pending >= self.max_batch:
            return True
        deadline = queue.min_deadline(key)
        if deadline is not None:
            predicted = self.predicted_batch_ticks(server, key, pending)
            if (deadline - now) <= predicted + MARGIN_TICKS:
                return True
        wait = queue.oldest_wait(key, now)
        if wait >= self.max_wait_ticks:
            return True
        if wait >= 1 and pending:
            # Deadline-free pressure valve: when the cost model says the
            # per-request cost has already converged to its full-batch
            # amortised value, waiting longer only adds latency.
            name, input_bits = key
            per_now = server.predicted_batch_cycles(name, input_bits, pending) / pending
            per_full = server.predicted_batch_cycles(
                name, input_bits, self.max_batch) / self.max_batch
            if per_now <= per_full * (1.0 + AMORTIZATION_TOLERANCE):
                return True
        return False
