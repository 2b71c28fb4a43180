"""The replica-step kernel: one serving replica's state and step mechanics.

Every serving driver in this package runs the same continuous-batching
iteration — expire, admit, prefill, decode — over one replica.  The part
that does not depend on the driver lives here, once:

* **state** — the admission queue, the running batch, the virtual clock,
  the step record (coalesced :class:`StepRun` entries plus exact
  :class:`ServingAggregates`) and the chaos RNG/backoff state;
* **prefill** — admitted prompts run one batched step that produces each
  request's first token (resumed requests re-prefill their accumulated
  context, the real cost of preemption under offloading);
* **decode** — every running request advances one token per step, priced
  by the :class:`~repro.serving.costing.StepCostOracle` (Eq. 2's max over
  the six tasks of the zig-zag block schedule, at the batch's maximum
  context).  On request, a whole *run* of provably identical steps is
  committed at once, up to the next scheduling event;
* **transient faults** — with a fault schedule, each attempted step draws
  once from the replica's RNG; an aborted step loses its work, waits a
  capped, jittered exponential backoff, and culls requests past their
  deadline (``FAULT_ABORT``) or retry budget (``RETRY_EXHAUSTED``).

Three drivers sit on top and own only what differs between them:
:class:`~repro.serving.simulator.ServingSimulator` (ingest, the drift
watchdog and degradation ladder, stalls),
:class:`~repro.serving.multimodel.MultiModelSimulator` (which model is
resident) and :class:`~repro.serving.fleet.FleetSimulator` (outage
windows, routing, breakers and hedges).  Each driver expires and admits
(through :func:`~repro.serving.simulator.admit_batch`), then calls
:meth:`ReplicaKernel.prefill` and :meth:`ReplicaKernel.decode`.

Clocks are pure float arithmetic: a coalesced run advances with
``np.cumsum``, whose sequential accumulation is bit-identical to ``k``
repeated ``t += dur`` additions, so a run expands back into exactly the
per-step records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import RetryExhaustedError
from repro.obs.profiling import PROFILER
from repro.serving.request import DropReason, Request, RequestState

if TYPE_CHECKING:
    from repro.faults import FaultSchedule, FaultStats
    from repro.serving.costing import StepCostOracle
    from repro.serving.queue import AdmissionQueue
    from repro.serving.simulator import ServingConfig


@dataclass(frozen=True)
class StepRecord:
    """One GPU step: what ran, when, at what batch/context.

    ``kind`` is ``"prefill"`` / ``"decode"`` for completed steps and
    ``"abort-prefill"`` / ``"abort-decode"`` for steps a transient fault
    killed (their interval covers the lost work, not the backoff wait).
    """

    kind: str
    start_s: float
    end_s: float
    batch: int
    max_ctx: int
    rids: tuple[int, ...]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _run_clock(start_s: float, dur_s: float, count: int) -> np.ndarray:
    """Clock values ``[start, t_1, ..., t_count]`` of ``count`` equal
    steps.  ``np.cumsum`` accumulates sequentially, so every intermediate
    value is bit-identical to the legacy loop's repeated ``t += dur``."""
    steps = np.empty(count + 1, dtype=np.float64)
    steps[0] = start_s
    steps[1:] = dur_s
    return np.cumsum(steps)


@dataclass(frozen=True)
class StepRun:
    """``count`` consecutive identical steps, recorded as one entry.

    Between scheduling events the batch composition and the bucketed
    step price are constant, so one run captures what the legacy engine
    recorded as ``count`` :class:`StepRecord` entries plus ``count``
    queue-depth samples.  :meth:`expand` / :meth:`expand_depth`
    reconstruct those sequences exactly (decode context grows one token
    per step; the clock is re-derived with the same ``np.cumsum`` the
    engine advanced it with).  Abort and prefill runs always have
    ``count == 1``.
    """

    kind: str
    start_s: float
    end_s: float
    dur_s: float
    count: int
    batch: int
    max_ctx: int
    rids: tuple[int, ...]
    #: Waiting-queue length at every step of the run (constant: arrivals
    #: and expiries are run boundaries).
    queue_len: int
    #: ``len(running)`` after the run's final step (completions happen
    #: only there; during the run it equals ``batch``).
    running_after: int
    #: Clock at the post-step sample point — equals ``end_s`` except for
    #: aborted steps, whose sample lands after the retry backoff.
    sample_t: float

    def expand(self) -> list[StepRecord]:
        if self.count == 1:
            return [
                StepRecord(
                    kind=self.kind, start_s=self.start_s, end_s=self.end_s,
                    batch=self.batch, max_ctx=self.max_ctx, rids=self.rids,
                )
            ]
        times = _run_clock(self.start_s, self.dur_s, self.count)
        return [
            StepRecord(
                kind=self.kind, start_s=float(times[j]), end_s=float(times[j + 1]),
                batch=self.batch, max_ctx=self.max_ctx + j, rids=self.rids,
            )
            for j in range(self.count)
        ]

    def expand_depth(self) -> list[tuple[float, int, int]]:
        if self.count == 1:
            return [(self.sample_t, self.queue_len, self.running_after)]
        times = _run_clock(self.start_s, self.dur_s, self.count)
        out = [
            (float(times[j]), self.queue_len, self.batch)
            for j in range(1, self.count)
        ]
        out.append((self.sample_t, self.queue_len, self.running_after))
        return out


@dataclass
class ServingAggregates:
    """Running aggregates the loop maintains instead of unbounded
    per-step lists — everything :func:`repro.serving.metrics.compute_metrics`
    needs, accumulated incrementally and byte-identical to the values the
    legacy engine derived from ``result.steps`` / ``result.queue_depth``
    (integer sums and maxima are exact)."""

    step_counts: dict[str, int] = field(default_factory=dict)
    depth_samples: int = 0
    waiting_sum: int = 0
    max_waiting: int = 0
    max_in_system: int = 0
    #: Largest step batch observed — lets the metrics registry report a
    #: batch series without retaining per-step records.
    max_batch: int = 0

    def count_steps(self, kind: str, count: int) -> None:
        self.step_counts[kind] = self.step_counts.get(kind, 0) + count

    def observe_depth(
        self, waiting: int, batch: int, running_after: int, count: int
    ) -> None:
        self.depth_samples += count
        self.waiting_sum += waiting * count
        if batch > self.max_batch:
            self.max_batch = batch
        if waiting > self.max_waiting:
            self.max_waiting = waiting
        if count > 1 and waiting + batch > self.max_in_system:
            self.max_in_system = waiting + batch
        if waiting + running_after > self.max_in_system:
            self.max_in_system = waiting + running_after

    def steps_of_kind(self, kind: str) -> int:
        return self.step_counts.get(kind, 0)

    @property
    def aborted_steps(self) -> int:
        return sum(
            n for kind, n in self.step_counts.items()
            if kind.startswith("abort-")
        )


class ReplicaKernel:
    """One replica's queue, batch, clock and step record, plus the
    prefill/decode mechanics every serving driver shares.

    ``faults`` is the schedule each attempted step draws a transient
    abort against (``None``: no draw, no RNG use); aborts are logged in
    ``fault_stats``.  ``predictor`` is fed every completed request.
    :meth:`prefill` and :meth:`decode` return ``True`` for a completed
    step, ``False`` for an aborted one, and ``None`` when :meth:`_cut`
    vetoed the step before it started.  Requests that completed here are
    appended to ``finished``; requests an abort dropped go to
    ``queue.dropped``.
    """

    def __init__(
        self,
        oracle: StepCostOracle,
        queue: AdmissionQueue,
        config: ServingConfig,
        *,
        collect_steps: bool = True,
        predictor: Any = None,
        faults: FaultSchedule | None = None,
        rng: Any = None,
        fault_stats: FaultStats | None = None,
    ) -> None:
        self.oracle = oracle
        self.queue = queue
        self.running: list[Request] = []
        self.t = 0.0
        self.runs: list[StepRun] = []
        self.agg = ServingAggregates()
        #: Retain the coalesced step runs; ``False`` keeps only aggregates.
        self.keep = collect_steps
        self.predictor = predictor
        self.faults = faults
        self.rng = rng
        self.fault_stats = fault_stats
        self.retry = config.retry_policy()
        self.deadline_s = config.request_deadline_s
        self.consec_aborts = 0
        self.finished: list[Request] = []
        #: Optional ``sample(start, end, batch)`` called after every
        #: recorded step (a driver's live time-series sampling).
        self.sample: Callable[[float, float, int], None] | None = None

    def emit(
        self, kind: str, start: float, end: float, dur: float, count: int,
        batch: int, max_ctx: int, rids: tuple[int, ...], running_after: int,
    ) -> None:
        """Record ``count`` identical steps, sampled at the current clock."""
        self.agg.count_steps(kind, count)
        q = len(self.queue)
        self.agg.observe_depth(q, batch, running_after, count)
        if self.keep:
            self.runs.append(
                StepRun(
                    kind=kind, start_s=start, end_s=end, dur_s=dur,
                    count=count, batch=batch, max_ctx=max_ctx, rids=rids,
                    queue_len=q, running_after=running_after, sample_t=self.t,
                )
            )
        if self.sample is not None:
            self.sample(start, end, batch)

    def finish_tokens(
        self, batch: list[Request], now: float, k: int = 1
    ) -> list[Request]:
        """Credit ``k`` generated tokens to every request in ``batch`` at
        ``now``; returns the ones still running, in batch order."""
        predictor = self.predictor
        running: list[Request] = []
        for req in batch:
            req.tokens_done += k
            if req.tokens_done < req.gen_len:
                running.append(req)
                continue
            req.state = RequestState.FINISHED
            req.finish_s = now
            if predictor is not None:
                predictor.observe(req)
            self.finished.append(req)
        return running

    def _cut(self, start: float, end: float) -> bool:
        """Driver veto on a priced step before it runs (fleet crashes)."""
        return False

    def _abort(
        self, start: float, dur: float, kind: str, participants: list[Request]
    ) -> list[Request]:
        """Charge an aborted step plus its backoff (the clock lands after
        both) and cull participants past their deadline or retry budget.
        Returns the survivors."""
        self.consec_aborts += 1
        end = start + dur
        elapsed = end - min(r.arrival_s for r in participants)
        delay = self.retry.delay(self.consec_aborts, float(self.rng.random()), elapsed)
        stats = self.fault_stats
        stats.aborts.append((start, end, kind, len(participants)))
        stats.backoffs.append((end, end + delay, self.consec_aborts))
        stats.lost_s += dur + delay
        now = self.t = end + delay
        survivors: list[Request] = []
        for req in participants:
            req.retries += 1
            if self.deadline_s is not None and now - req.arrival_s > self.deadline_s:
                reason = DropReason.FAULT_ABORT
                detail = (
                    f"{kind} step aborted by a transient fault at "
                    f"t={end:.3f}s; past the {self.deadline_s:g}s deadline"
                )
            else:
                try:
                    self.retry.check_budget(req.rid, req.retries)
                except RetryExhaustedError as exc:
                    reason, detail = DropReason.RETRY_EXHAUSTED, str(exc)
                else:
                    survivors.append(req)
                    continue
            req.state = RequestState.DROPPED
            req.drop_s = now
            req.drop_reason = reason
            req.drop_detail = detail
            self.queue.dropped.append(req)
        return survivors

    def prefill(self, admitted: list[Request]) -> bool | None:
        """One batched prefill step over ``admitted``."""
        n = len(admitted)
        max_ctx = max(r.context_len for r in admitted)
        dur = self.oracle.prefill_seconds(n, max_ctx)
        start = self.t
        if self._cut(start, start + dur):
            return None
        rids = tuple(r.rid for r in admitted) if self.keep else ()
        # The chaos draw: one RNG sample per attempted step.
        faults = self.faults
        if faults is not None and self.rng.random() < faults.transient_abort_probability(start):
            for req in self._abort(start, dur, "prefill", admitted):
                # Aborted before its first token: back to the queue intact
                # (arrival_s keeps its place in FCFS order).
                self.queue.requeue(req, self.t)
            self.emit(
                "abort-prefill", start, start + dur, dur, 1,
                n, max_ctx, rids, len(self.running),
            )
            return False
        self.consec_aborts = 0
        t = self.t = start + dur
        for req in admitted:
            req.state = RequestState.RUNNING
            if req.admit_s is None:
                req.admit_s = start
            if req.first_token_s is None:
                req.first_token_s = t
        self.running.extend(self.finish_tokens(admitted, t))
        self.emit("prefill", start, t, dur, 1, n, max_ctx, rids, len(self.running))
        if PROFILER.enabled:
            PROFILER.count("serving.steps.prefill")
        return True

    def decode(
        self, coalesce: bool = False, next_arrival: float | None = None
    ) -> bool | None:
        """One decode step over the running batch.

        With ``coalesce`` (the driver vouches that admission cannot act
        before the batch changes), a run of identical steps is committed
        at once, ending at the earliest completion, price-bucket boundary,
        ``next_arrival`` or queue-timeout expiry.
        """
        running = self.running
        n = len(running)
        max_ctx = max(r.context_len for r in running)
        dur = self.oracle.decode_step_seconds(n, max_ctx)
        start = self.t
        if self._cut(start, start + dur):
            return None
        rids = tuple(r.rid for r in running) if self.keep else ()
        faults = self.faults
        if faults is not None and self.rng.random() < faults.transient_abort_probability(start):
            self.running = self._abort(start, dur, "decode", running)
            self.emit(
                "abort-decode", start, start + dur, dur, 1,
                n, max_ctx, rids, len(self.running),
            )
            return False
        self.consec_aborts = 0
        k = 1
        t = start + dur
        if coalesce:
            k, t = self._run_length(start, dur, max_ctx, next_arrival)
        self.t = t
        self.running = self.finish_tokens(running, t, k)
        self.emit("decode", start, t, dur, k, n, max_ctx, rids, len(self.running))
        if PROFILER.enabled:
            PROFILER.count("serving.steps.decode", k)
        return True

    def _run_length(
        self, start: float, dur: float, max_ctx: int, next_arrival: float | None
    ) -> tuple[int, float]:
        """Steps until the next scheduling event, and the clock after them.
        The earliest completion and the price-bucket boundary bound the run
        up front; the next arrival and queue-deadline expiries cut it on
        the clock."""
        k = min(
            min(r.remaining_tokens for r in self.running),
            self.oracle.decode_bucket_headroom(max_ctx),
        )
        if k == 1:
            return 1, start + dur
        times = _run_clock(start, dur, k)
        if next_arrival is not None:
            # First intermediate boundary that would ingest the arrival.
            cut = int(np.searchsorted(times[1:k], next_arrival, side="left")) + 1
            if cut < k:
                k = cut
        a_min = self.queue.next_expirable_arrival()
        if a_min is not None:
            # Exactly the per-step expiry comparison, over the run's boundaries.
            hits = np.nonzero((times[1:k] - a_min) > self.queue.timeout_s)[0]
            if hits.size:
                k = int(hits[0]) + 1
        return k, float(times[k])
