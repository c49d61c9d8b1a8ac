"""Cost-model-driven scheduling policies for the :class:`PumServer`.

The scheduler's dispatch decision used to be a hard-wired knob pair: a
group dispatched when it held ``max_batch`` requests or its oldest member
had waited ``max_wait_ticks``.  This module makes that decision a pluggable
strategy -- the same pattern the pool uses for placement
(:class:`~repro.runtime.pool.PlacementPolicy`) -- and a policy instance
handed to ``PumServer(scheduling=...)`` is the one way to say when a batch
dispatches:

* :class:`StaticBatchingPolicy` is the knob pair itself (same readiness
  checks, same dispatch order, same ledgers) and what a server built
  without a policy uses.
* :class:`CostAwarePolicy` uses each group's cached
  :class:`~repro.plan.ir.PlanCostModel` as an online oracle: it predicts
  the batch's latency (and optionally energy) *before dispatching anything*
  and weighs the prediction against the group's tightest deadline slack,
  so a group dispatches the moment waiting longer would start shedding its
  riders -- instead of blindly aging out.  Urgent groups dispatch first.
* :class:`SloClass` names a latency target + shed priority pair so callers
  submit with ``slo="interactive"`` instead of computing absolute deadline
  ticks by hand; the cost-aware admission pricer uses predicted per-request
  cost so a cheap tight-deadline request is never shed behind an expensive
  loose one.
* :class:`Autotuner` keeps the static policy's mental model but nudges its
  knobs from live :class:`~repro.runtime.server.ServingStats` windows
  (sheds -> dispatch sooner; saturated fill -> bigger batches; sparse fill
  -> batch harder).

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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..errors import SchedulerError, SloError
from ..metrics import ema
from .queueing import GroupKey, IndexedRequestQueue, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import PumServer

__all__ = [
    "Autotuner",
    "CostAwarePolicy",
    "SLO_CLASSES",
    "SchedulingPolicy",
    "SloClass",
    "StaticBatchingPolicy",
    "resolve_slo",
]


# ---------------------------------------------------------------------- #
# SLO classes                                                             #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SloClass:
    """A named service-level objective: latency target plus shed priority.

    ``latency_target_ticks`` is relative -- ``submit(slo=...)`` turns it
    into an absolute deadline at admission time (``None`` means no
    deadline).  ``shed_priority`` is the priority the request assumes when
    the caller does not pass one explicitly: admission shedding and
    in-batch ordering both honour it, so tight classes outrank loose ones
    under pressure.
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

    The server calls, under its lock, in tick order: :meth:`on_tick` once
    at the start of every tick (autotuning hook), :meth:`ready_groups` to
    enumerate the groups worth visiting, and :meth:`dispatch_now` once per
    candidate batch inside the dispatch loop (the batch dispatches only
    when it returns True, sized by :attr:`max_batch`).
    :meth:`victim_order` lets a policy reprice admission shedding; ``None``
    keeps the queue's default (priority, arrival, id) order.

    Policies with mutable state (:class:`Autotuner`) belong to one server;
    stateless policies may be shared.
    """

    name = "base"

    #: Largest coalesced batch handed to ``exec_mvm_batch``.
    max_batch: int = 16

    def on_tick(self, server: "PumServer") -> None:
        """Observe the start of one scheduler tick (no-op by default)."""

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

    def victim_order(
        self, server: "PumServer"
    ) -> Optional[Callable[[Request], tuple]]:
        """Admission-shedding order override (``None`` = queue default).

        The key is evaluated on per-row :class:`~repro.runtime.queueing.Request`
        views of the queued waves, only while the queue is at capacity.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class StaticBatchingPolicy(SchedulingPolicy):
    """The classic knob pair, and the server's default policy.

    A group dispatches when it holds ``max_batch`` requests or its oldest
    member has waited ``max_wait_ticks`` -- evaluated through the queue's
    own ``ready_groups``.
    """

    name = "static"

    def __init__(self, max_batch: int = 16, max_wait_ticks: int = 4) -> None:
        if max_batch < 1:
            raise SchedulerError("max_batch must be >= 1")
        if max_wait_ticks < 0:
            raise SchedulerError("max_wait_ticks must be >= 0")
        self.max_batch = int(max_batch)
        self.max_wait_ticks = int(max_wait_ticks)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticBatchingPolicy(max_batch={self.max_batch}, "
            f"max_wait_ticks={self.max_wait_ticks})"
        )


class CostAwarePolicy(SchedulingPolicy):
    """Profile-guided dispatch: the plan cost model as an online oracle.

    For every group the policy reads the tightest deadline among its
    members and asks the group's cached :class:`~repro.plan.ir.PlanCostModel`
    (through :meth:`PumServer.predicted_batch_cycles`, closed-form, cached,
    zero execution) what the pending batch would cost.  The decision flow
    per group:

    1. full batch (``pending >= max_batch``) -> dispatch;
    2. deadline pressure: ``slack <= predicted_batch_ticks + margin_ticks``
       -> dispatch *now*, before waiting longer sheds the tight riders the
       static policy would age past their deadline;
    3. amortisation converged: the predicted per-request cost at the
       current fill is within ``amortization_tolerance`` of its value at a
       full batch (waiting longer buys nothing the cost model can see) and
       the group has waited at least one tick -> dispatch;
    4. otherwise wait, bounded by ``max_wait_ticks`` exactly like the
       static policy.

    Ready groups are visited tightest-slack first (ties: oldest arrival),
    so urgent work never queues behind loose work.  ``tick_cycles`` maps
    modelled chip cycles onto scheduler ticks; ``energy_weight`` (pJ -> the
    same unit as cycles) folds predicted analog energy into the amortised
    cost and the admission price.  Admission shedding is *priced*: among
    equal-priority victims the most expensive, loosest-deadline request is
    shed first (see :meth:`victim_order`).
    """

    name = "cost_aware"

    def __init__(
        self,
        max_batch: int = 16,
        max_wait_ticks: int = 4,
        tick_cycles: float = 10_000.0,
        margin_ticks: int = 1,
        amortization_tolerance: float = 0.05,
        energy_weight: float = 0.0,
    ) -> None:
        if max_batch < 1:
            raise SchedulerError("max_batch must be >= 1")
        if max_wait_ticks < 0:
            raise SchedulerError("max_wait_ticks must be >= 0")
        if tick_cycles <= 0:
            raise SchedulerError("tick_cycles must be > 0")
        if margin_ticks < 0:
            raise SchedulerError("margin_ticks must be >= 0")
        if amortization_tolerance < 0:
            raise SchedulerError("amortization_tolerance must be >= 0")
        if energy_weight < 0:
            raise SchedulerError("energy_weight must be >= 0")
        self.max_batch = int(max_batch)
        self.max_wait_ticks = int(max_wait_ticks)
        self.tick_cycles = float(tick_cycles)
        self.margin_ticks = int(margin_ticks)
        self.amortization_tolerance = float(amortization_tolerance)
        self.energy_weight = float(energy_weight)

    # -------------------------------------------------------------- #
    # Cost oracle plumbing                                             #
    # -------------------------------------------------------------- #
    def _predicted_cost(self, server: "PumServer", key: GroupKey, batch: int) -> float:
        """Predicted cost of dispatching ``batch`` of ``key`` (cycles + energy)."""
        name, input_bits = key
        cost = server.predicted_batch_cycles(name, input_bits, batch)
        if self.energy_weight:
            cost += self.energy_weight * server.predicted_batch_energy_pj(
                name, input_bits, batch
            )
        return cost

    def predicted_batch_ticks(
        self, server: "PumServer", key: GroupKey, batch: int
    ) -> float:
        """Predicted batch latency in scheduler ticks (cycles / tick_cycles)."""
        name, input_bits = key
        return server.predicted_batch_cycles(name, input_bits, batch) / self.tick_cycles

    # -------------------------------------------------------------- #
    # The dispatch decision                                            #
    # -------------------------------------------------------------- #
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
            if (deadline - now) <= predicted + self.margin_ticks:
                return True
        wait = queue.oldest_wait(key, now)
        if wait >= self.max_wait_ticks:
            return True
        if wait >= 1 and pending:
            # Deadline-free pressure valve: when the cost model says the
            # per-request cost has already converged to its full-batch
            # amortised value, waiting longer only adds latency.
            per_now = self._predicted_cost(server, key, pending) / pending
            per_full = self._predicted_cost(server, key, self.max_batch) / self.max_batch
            if per_now <= per_full * (1.0 + self.amortization_tolerance):
                return True
        return False

    def victim_order(
        self, server: "PumServer"
    ) -> Callable[[Request], tuple]:
        """Priced shedding: lowest priority, then most expensive, loosest first."""
        now = server.now
        weight = self.energy_weight

        def priced(request: Request) -> tuple:
            cost = server.predicted_batch_cycles(
                request.name, request.input_bits, 1
            )
            if weight:
                cost += weight * server.predicted_batch_energy_pj(
                    request.name, request.input_bits, 1
                )
            slack = (
                float(request.deadline - now)
                if request.deadline is not None
                else float("inf")
            )
            return (request.priority, -cost, -slack,
                    request.arrival_tick, request.request_id)

        return priced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostAwarePolicy(max_batch={self.max_batch}, "
            f"max_wait_ticks={self.max_wait_ticks}, "
            f"tick_cycles={self.tick_cycles}, margin_ticks={self.margin_ticks})"
        )


class Autotuner(SchedulingPolicy):
    """A static policy whose knobs are nudged from live serving telemetry.

    Dispatch decisions delegate to an inner :class:`StaticBatchingPolicy`,
    so users keep the exact static semantics between adjustments.  Every
    ``interval_ticks`` ticks the tuner reads the window deltas of
    :class:`~repro.runtime.server.ServingStats` and applies one nudge:

    * sheds in the window (or p99 above ``target_p99_ticks``) -> lower
      ``max_wait_ticks`` by one (dispatch sooner, trade fill for latency);
    * smoothed batch fill >= 90% of ``max_batch`` -> raise ``max_batch``
      (the pipeline is saturated; bigger batches amortise better);
    * smoothed batch fill <= 50% with zero sheds -> raise
      ``max_wait_ticks`` by one (coalesce harder, trade latency for
      energy/fill).

    Fill is smoothed with :func:`repro.metrics.ema` so one quiet window
    does not whipsaw the knobs; every adjustment is appended to
    :attr:`history` as ``(tick, knob, old, new)``.  Deterministic: the
    telemetry it reads is itself a pure function of the tick trace.
    """

    name = "autotuned"

    def __init__(
        self,
        max_batch: int = 16,
        max_wait_ticks: int = 4,
        interval_ticks: int = 32,
        target_p99_ticks: Optional[float] = None,
        fill_smoothing: float = 0.5,
        min_wait_ticks: int = 0,
        max_wait_ticks_limit: Optional[int] = None,
        max_batch_limit: Optional[int] = None,
    ) -> None:
        self.static = StaticBatchingPolicy(max_batch, max_wait_ticks)
        if interval_ticks < 1:
            raise SchedulerError("interval_ticks must be >= 1")
        if not 0.0 < fill_smoothing <= 1.0:
            raise SchedulerError("fill_smoothing must be in (0, 1]")
        if min_wait_ticks < 0:
            raise SchedulerError("min_wait_ticks must be >= 0")
        self.interval_ticks = int(interval_ticks)
        self.target_p99_ticks = target_p99_ticks
        self.fill_smoothing = float(fill_smoothing)
        self.min_wait_ticks = int(min_wait_ticks)
        self.max_wait_ticks_limit = (
            int(max_wait_ticks_limit)
            if max_wait_ticks_limit is not None
            else max(1, max_wait_ticks) * 4
        )
        self.max_batch_limit = (
            int(max_batch_limit) if max_batch_limit is not None else max_batch * 4
        )
        #: Knob adjustments applied so far: ``(tick, knob, old, new)``.
        self.history: List[Tuple[int, str, int, int]] = []
        self._ticks = 0
        self._last_shed = 0
        self._last_completed = 0
        self._last_batches = 0
        self._smoothed_fill: Optional[float] = None

    @property
    def max_batch(self) -> int:  # type: ignore[override]
        return self.static.max_batch

    @property
    def max_wait_ticks(self) -> int:
        return self.static.max_wait_ticks

    def on_tick(self, server: "PumServer") -> None:
        self._ticks += 1
        if self._ticks % self.interval_ticks:
            return
        stats = server.stats
        shed_delta = stats.shed - self._last_shed
        completed_delta = stats.completed - self._last_completed
        batches_delta = stats.batches - self._last_batches
        self._last_shed = stats.shed
        self._last_completed = stats.completed
        self._last_batches = stats.batches
        if batches_delta:
            self._smoothed_fill = ema(
                self._smoothed_fill,
                completed_delta / batches_delta,
                self.fill_smoothing,
            )
        static = self.static
        latency_pressure = shed_delta > 0 or (
            self.target_p99_ticks is not None
            and stats.latency_percentile(99) > self.target_p99_ticks
        )
        if latency_pressure:
            self._set_wait(server, static.max_wait_ticks - 1)
        elif (
            batches_delta
            and self._smoothed_fill is not None
            and self._smoothed_fill >= 0.9 * static.max_batch
        ):
            self._set_batch(server, static.max_batch * 2)
        elif (
            batches_delta
            and self._smoothed_fill is not None
            and self._smoothed_fill <= 0.5 * static.max_batch
        ):
            self._set_wait(server, static.max_wait_ticks + 1)

    def _set_wait(self, server: "PumServer", value: int) -> None:
        value = max(self.min_wait_ticks, min(self.max_wait_ticks_limit, value))
        if value != self.static.max_wait_ticks:
            self.history.append(
                (server.now, "max_wait_ticks", self.static.max_wait_ticks, value)
            )
            self.static.max_wait_ticks = value

    def _set_batch(self, server: "PumServer", value: int) -> None:
        value = max(1, min(self.max_batch_limit, value))
        if value != self.static.max_batch:
            self.history.append(
                (server.now, "max_batch", self.static.max_batch, value)
            )
            self.static.max_batch = value

    def ready_groups(
        self, server: "PumServer", queue: IndexedRequestQueue, now: int
    ) -> List[GroupKey]:
        return self.static.ready_groups(server, queue, now)

    def dispatch_now(
        self, server: "PumServer", queue: IndexedRequestQueue, key: GroupKey, now: int
    ) -> bool:
        return self.static.dispatch_now(server, queue, key, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Autotuner(max_batch={self.max_batch}, "
            f"max_wait_ticks={self.max_wait_ticks}, "
            f"interval_ticks={self.interval_ticks}, "
            f"adjustments={len(self.history)})"
        )
