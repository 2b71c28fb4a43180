"""Scheduler policies: who gets the next free GPU slot.

A :class:`SchedulerPolicy` only *orders* — the simulator owns admission
mechanics (slot counting, memory feasibility, prefill batching), so a
policy is a pure, deterministic ranking over the waiting queue plus an
optional preemption rule evaluated at token boundaries.

Ties always break on ``(arrival_s, rid)`` so every policy is a total
order and replays are byte-identical.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Collection

from repro.errors import ServingError
from repro.serving.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.predictor import LengthPredictor


class SchedulerPolicy:
    """Base class: FCFS order, no preemption."""

    name = "fcfs"
    preemptive = False
    #: True when :meth:`sort_key` is constant while a request waits — the
    #: replica kernel then keeps its queue pre-sorted incrementally
    #: instead of re-sorting per step.  A policy whose key can change
    #: while a request waits must set this False.
    static_order = True
    #: Length predictor the replica kernel feeds every completed request
    #: (``None``: the policy ranks without one).
    predictor: LengthPredictor | None = None

    def sort_key(self, req: Request) -> tuple:
        """The total-order key :meth:`order` sorts by (ties on rid).
        The default is first-come-first-served."""
        return (req.arrival_s, req.rid)

    def order(self, waiting: list[Request]) -> list[Request]:
        """Admission order, head first: ``waiting`` sorted by
        :meth:`sort_key`, a deterministic total order."""
        return sorted(waiting, key=self.sort_key)

    def victim(  # reach: base method; only PriorityPolicy(preempt=True) is consulted
        self, running: Collection[Request], candidate: Request
    ) -> Request | None:
        """Which running request (if any) to preempt for ``candidate``.
        ``None`` means don't preempt.  Only consulted when ``preemptive``,
        with a full (so non-empty) running batch."""
        return None


class FCFSPolicy(SchedulerPolicy):
    """First-come-first-served (the arrival order)."""


class SJFPolicy(SchedulerPolicy):
    """Shortest-job-first on *remaining* generation length.

    The simulator knows each request's true ``gen_len``; a real serving
    stack would substitute a length predictor here.  Ranking by remaining
    tokens (not total) keeps preempted long jobs from starving further.
    """

    name = "sjf"

    def sort_key(self, req: Request) -> tuple:
        # remaining_tokens only changes while RUNNING, so the key is
        # constant for the whole time a request sits in the queue.
        return (req.remaining_tokens, req.arrival_s, req.rid)


class PriorityPolicy(SchedulerPolicy):
    """Highest priority first, optionally preempting at token boundaries.

    With ``preempt=True``, a waiting request may evict the lowest-priority
    running request whose priority is *strictly* lower — evaluated only
    between decode steps (a token boundary), never mid-step.
    """

    name = "priority"

    def __init__(self, preempt: bool = False) -> None:
        self.preemptive = preempt
        if preempt:
            self.name = "priority-preempt"

    def sort_key(self, req: Request) -> tuple:
        return (-req.priority, req.arrival_s, req.rid)

    def victim(
        self, running: Collection[Request], candidate: Request
    ) -> Request | None:
        lowest = min(running, key=lambda r: (r.priority, -r.arrival_s, -r.rid))
        if lowest.priority < candidate.priority:
            return lowest
        return None


class PredictedSJFPolicy(SchedulerPolicy):
    """Shortest-job-first ranked by a length *predictor*, not the oracle.

    The ranking is ``(predictor.predict(req), arrival_s, rid)``.  With
    :class:`~repro.serving.predictor.OracleLengthPredictor` this is
    exactly :class:`SJFPolicy` (`predict` returns ``remaining_tokens`` as
    a float; int→float conversion is exact for token counts, so the sort
    is identical).  With a learned predictor the ranking can change as the
    predictor observes completions, so the queue cannot be kept pre-sorted
    incrementally: ``static_order`` follows ``predictor.learned``.
    """

    name = "sjf-predict"

    def __init__(self, predictor: "LengthPredictor | None" = None) -> None:
        from repro.serving.predictor import OracleLengthPredictor

        self.predictor = predictor or OracleLengthPredictor()
        self.static_order = not self.predictor.learned
        self.name = f"sjf-predict({self.predictor.name})"

    def sort_key(self, req: Request) -> tuple:
        return (self.predictor.predict(req), req.arrival_s, req.rid)


def _learned_sjf() -> PredictedSJFPolicy:
    from repro.serving.predictor import BucketedQuantilePredictor

    return PredictedSJFPolicy(BucketedQuantilePredictor())


#: Every scheduler by its CLI/bench name.
POLICIES: dict[str, Callable[[], SchedulerPolicy]] = {
    "fcfs": FCFSPolicy,
    "sjf": SJFPolicy,
    "priority": PriorityPolicy,
    "priority-preempt": partial(PriorityPolicy, preempt=True),
    "sjf-predict": _learned_sjf,
}


def make_policy(name: str) -> SchedulerPolicy:
    """A fresh scheduler policy by its :data:`POLICIES` name."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ServingError(
            f"unknown scheduler policy {name!r}; expected one of "
            + ", ".join(POLICIES)
        ) from None
    return factory()
