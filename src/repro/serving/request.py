"""Request lifecycle: the unit of work the serving simulator schedules.

A :class:`RequestSpec` is the immutable description an arrival trace
carries (when it arrives, how long its prompt and generation are); a
:class:`Request` is the mutable lifecycle record the simulator advances
through ``QUEUED -> RUNNING -> FINISHED`` (or ``DROPPED``), stamping the
timestamps every serving metric (TTFT, TPOT, e2e latency, goodput) is
computed from.

While a request runs, its generated-token count is not stored on it:
the replica's :class:`~repro.serving.kernel.RunningBatch` advances one
token clock for the whole batch, and :attr:`Request.tokens_done` reads
the request's value at join plus the clock's advance since.  Leaving the
batch fixes the value again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ServingError

if TYPE_CHECKING:
    from repro.serving.kernel import RunningBatch


class RequestState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    DROPPED = "dropped"


class DropReason(enum.Enum):
    QUEUE_FULL = "queue_full"
    TIMEOUT = "timeout"
    INFEASIBLE = "infeasible"
    #: An aborted step pushed the request past its deadline (fault layer).
    FAULT_ABORT = "fault_abort"
    #: The request burned through its per-request retry budget.
    RETRY_EXHAUSTED = "retry_exhausted"
    #: Fleet only: a crash/restart displaced the request more times than
    #: its migration budget allows.
    FAILOVER_EXHAUSTED = "failover_exhausted"
    #: Fleet only: no schedulable replica existed when the request needed
    #: placement (all down, draining, breaker-open or full).
    REPLICA_LOST = "replica_lost"


@dataclass(frozen=True)
class RequestSpec:
    """One trace entry: arrival time + sequence shape (+ priority).

    ``model`` tags the request with the model it must be served by
    (multi-model serving); the empty string — the default, and the only
    value single-model traces ever carry — means "whatever model the
    simulator serves", keeping every pre-multi-model trace byte-identical.
    """

    arrival_s: float
    prompt_len: int
    gen_len: int
    priority: int = 0
    model: str = ""

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ServingError("request arrival time must be non-negative")
        if self.prompt_len <= 0 or self.gen_len <= 0:
            raise ServingError("prompt_len and gen_len must be positive")


@dataclass(slots=True)
class Request:
    """A live request with its lifecycle timestamps.

    Timestamps are virtual-clock seconds; ``None`` until the corresponding
    event happens.  ``tokens_done`` counts generated tokens (the first one
    is produced by the prefill step).
    """

    rid: int
    arrival_s: float
    prompt_len: int
    gen_len: int
    priority: int = 0
    #: Model this request targets (multi-model serving); "" in
    #: single-model runs.
    model: str = ""

    state: RequestState = RequestState.QUEUED
    admit_s: float | None = None
    first_token_s: float | None = None
    finish_s: float | None = None
    drop_s: float | None = None
    drop_reason: DropReason | None = None
    preemptions: int = 0
    #: Aborted steps this request has been caught in (fault layer);
    #: counted against ``ServingConfig.retry_limit``.
    retries: int = 0
    #: Human-readable detail attached to a drop (e.g. the planner error
    #: message behind an INFEASIBLE verdict).
    drop_detail: str | None = None
    #: Fleet only: times a crash/restart moved this request (or its hedge)
    #: to another replica.  Always 0 in single-engine runs.
    migrations: int = 0
    #: Queue re-entries after preemption do not reset ``arrival_s``; the
    #: scheduler keys on this field so FCFS stays stable under preemption.
    queued_since_s: float = field(default=0.0)
    #: Generated tokens: the whole count off the batch, the count at
    #: join while running (read :attr:`tokens_done`).
    _tokens: int = field(default=0, init=False)
    #: The batch this request runs in (``None`` off the batch), its token
    #: clock at join, and the join's ticket (it validates heap entries).
    _batch: RunningBatch | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _join: int = field(default=0, init=False, repr=False, compare=False)
    _ticket: int = field(default=0, init=False, repr=False, compare=False)

    @classmethod
    def from_spec(cls, rid: int, spec: RequestSpec) -> "Request":
        return cls(
            rid=rid,
            arrival_s=spec.arrival_s,
            prompt_len=spec.prompt_len,
            gen_len=spec.gen_len,
            priority=spec.priority,
            model=spec.model,
            queued_since_s=spec.arrival_s,
        )

    # -- derived quantities ------------------------------------------------

    @property
    def tokens_done(self) -> int:
        batch = self._batch
        if batch is None:
            return self._tokens
        return self._tokens + batch.clock - self._join

    @tokens_done.setter
    def tokens_done(self, value: int) -> None:
        if self._batch is not None:
            raise ServingError(
                f"request rid={self.rid} is running: its token count follows "
                "the batch clock and cannot be set until it leaves the batch"
            )
        self._tokens = value

    @property
    def context_len(self) -> int:
        """Tokens the KV cache currently holds for this request."""
        return self.prompt_len + self.tokens_done

    @property
    def remaining_tokens(self) -> int:
        return self.gen_len - self.tokens_done

    @property
    def ttft_s(self) -> float | None:
        """Time to first token (arrival -> end of the prefill step)."""
        if self.first_token_s is None:  # reach: input: a request with no token yet
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float | None:
        """Mean time per output token after the first (queueing included:
        a preempted request's stall shows up here, as it does for users)."""
        if self.finish_s is None or self.first_token_s is None:  # reach: input: an unfinished request
            return None
        if self.gen_len <= 1:  # reach: input: a one-token request
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.gen_len - 1)

    @property
    def e2e_s(self) -> float | None:
        if self.finish_s is None:  # reach: input: an unfinished request
            return None
        return self.finish_s - self.arrival_s

    def meets_slo(self, ttft_slo_s: float, tpot_slo_s: float) -> bool:
        """Did this (finished) request stay within both latency SLOs?"""
        return (
            self.state is RequestState.FINISHED
            and self.ttft_s is not None
            and self.ttft_s <= ttft_slo_s
            and (self.tpot_s or 0.0) <= tpot_slo_s
        )
