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
* **the running batch** — :class:`RunningBatch` holds one token clock for
  every running request (they all advance together), so a decode step
  costs O(1) plus O(log n) per request that finishes: the maximum
  context and the minimum remaining tokens come from two lazily
  invalidated heaps, and only a join or a leave (admit, finish, preempt,
  shed, abort, crash) touches an individual request;
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

Clocks are pure float arithmetic: a coalesced run advances with ``k``
repeated ``t += dur`` additions, and :meth:`StepRun.expand` re-derives
them with ``np.cumsum``, whose sequential accumulation is bit-identical,
so a run expands back into exactly the per-step records.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.errors import RetryExhaustedError, ServingError
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
        times = [self.start_s, self.end_s]
        if self.count > 1:  # reach: tests/test_fleet.py::test_single_replica_zero_fault_byte_identical_to_serving_sim (coalesced runs)
            # Clock values [start, t_1, ..., t_count].  ``np.cumsum`` adds
            # sequentially, so each one is bit-identical to the kernel's
            # repeated ``t += dur``.
            steps = np.full(self.count + 1, self.dur_s)
            steps[0] = self.start_s
            times = np.cumsum(steps).tolist()
        return [
            StepRecord(
                kind=self.kind, start_s=times[j], end_s=times[j + 1],
                batch=self.batch, max_ctx=self.max_ctx + j, rids=self.rids,
            )
            for j in range(self.count)
        ]

    def expand_depth(self) -> list[tuple[float, int, int]]:
        """``(clock, waiting, running)`` after each step: the inner steps
        end at the run's boundaries, the last at ``sample_t``."""
        out = [
            (rec.end_s, self.queue_len, self.batch)  # reach: tests/test_fleet.py::test_single_replica_zero_fault_byte_identical_to_serving_sim (coalesced runs)
            for rec in self.expand()[:-1]
        ]
        out.append((self.sample_t, self.queue_len, self.running_after))
        return out


class RunningBatch:
    """The running requests of one replica, advanced by one token clock.

    Continuous batching moves every running sequence forward together,
    so the batch keeps one integer ``clock`` (tokens generated per
    member since the batch began) and each member's clock at join; a
    member's :attr:`~repro.serving.request.Request.tokens_done` is its
    count at join plus the clock's advance since.  Members stay in
    admission order.

    Two min-heaps hold per-member keys that stay constant while the
    member runs: ``join clock - prompt - tokens at join`` (the maximum
    context is ``clock`` minus the smallest) and ``gen + join clock -
    tokens at join`` (the minimum remaining tokens is the smallest minus
    ``clock``).  A leave does not touch the heaps: an entry whose request
    has left (or rejoined under a new ticket) is stale and is skipped
    when it surfaces, and a heap whose stale entries outnumber the live
    members is rebuilt, so heap size stays O(batch) over any run.

    ``joins`` and ``visits`` count admissions and the member entries the
    batch touched (heap pushes, pops and rebuilds, members released);
    the kernel reports them to the profiler once per step.
    """

    __slots__ = (
        "clock", "joins", "visits", "_members", "_next_ticket",
        "_ctx_heap", "_rem_heap", "_rids",
    )

    def __init__(self) -> None:
        self.clock = 0
        self.joins = 0
        self.visits = 0
        #: ticket -> request; tickets grow, so this is admission order.
        self._members: dict[int, Request] = {}
        self._next_ticket = 1
        self._ctx_heap: list[tuple[int, int, Request]] = []
        self._rem_heap: list[tuple[int, int, Request]] = []
        self._rids: tuple[int, ...] | None = ()

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._members.values())

    def __contains__(self, req: Request) -> bool:
        return req._batch is self

    def join(self, req: Request) -> None:
        """Add ``req`` at the end of the batch with its current tokens."""
        ticket = self._next_ticket
        self._next_ticket = ticket + 1
        clock = self.clock
        tokens = req._tokens
        req._batch = self
        req._join = clock
        req._ticket = ticket
        self._members[ticket] = req
        heapq.heappush(
            self._ctx_heap, (clock - req.prompt_len - tokens, ticket, req)
        )
        heapq.heappush(
            self._rem_heap, (req.gen_len - tokens + clock, ticket, req)
        )
        self._rids = None
        self.joins += 1
        self.visits += 2

    def _release(self, req: Request) -> None:
        """Detach ``req``, fixing its token count at the current clock."""
        del self._members[req._ticket]
        req._tokens += self.clock - req._join
        req._batch = None
        req._join = 0
        req._ticket = 0
        self.visits += 1

    def _compact(self) -> None:
        """Rebuild each heap whose stale entries outnumber the live ones."""
        bound = 2 * len(self._members)
        if len(self._ctx_heap) > bound:
            self._rebuild(self._ctx_heap)
        if len(self._rem_heap) > bound:
            self._rebuild(self._rem_heap)

    def _rebuild(self, heap: list[tuple[int, int, Request]]) -> None:
        heap[:] = [e for e in heap if e[2]._batch is self and e[2]._ticket == e[1]]
        heapq.heapify(heap)
        self.visits += len(heap)

    def leave(self, req: Request) -> None:
        """Remove ``req`` (by identity) wherever it sits in the batch."""
        if req._batch is not self:
            raise ServingError(f"request rid={req.rid} is not in this batch")
        self._release(req)
        self._rids = None
        self._compact()

    def drain(self) -> list[Request]:
        """Remove every request; returns them in admission order."""
        members = list(self._members.values())
        for req in members:
            self._release(req)
        self._ctx_heap.clear()
        self._rem_heap.clear()
        self._rids = ()
        return members

    def _top(self, heap: list[tuple[int, int, Request]]) -> int:
        """Smallest live key of ``heap``, dropping stale entries above it."""
        while True:
            key, ticket, req = heap[0]
            if req._batch is self and req._ticket == ticket:
                return key
            heapq.heappop(heap)
            self.visits += 1

    def max_context(self) -> int:
        """Largest context length in the (non-empty) batch."""
        return self.clock - self._top(self._ctx_heap)

    def min_remaining(self) -> int:
        """Fewest tokens any member of the (non-empty) batch has left."""
        return self._top(self._rem_heap) - self.clock

    def advance(self, k: int) -> list[Request]:
        """Credit ``k`` tokens to every member; remove and return the
        members that reached their generation length, in batch order."""
        clock = self.clock = self.clock + k
        heap = self._rem_heap
        done: list[tuple[int, Request]] = []
        while heap:
            key, ticket, req = heap[0]
            if req._batch is not self or req._ticket != ticket:
                heapq.heappop(heap)
                self.visits += 1
                continue
            if key > clock:
                break
            heapq.heappop(heap)
            done.append((ticket, req))
        if not done:
            return []
        self.visits += len(done)
        done.sort()
        for _, req in done:
            self._release(req)
        self._rids = None
        self._compact()
        return [req for _, req in done]

    def rids(self) -> tuple[int, ...]:
        """Member rids in batch order (rebuilt only after a change)."""
        rids = self._rids
        if rids is None:
            rids = self._rids = tuple(r.rid for r in self._members.values())
        return rids


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
        self.running = RunningBatch()
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

    def _finish(self, done: list[Request], now: float) -> None:
        """Stamp requests that produced their last token at ``now``."""
        predictor = self.predictor
        for req in done:
            req.state = RequestState.FINISHED
            req.finish_s = now
            if predictor is not None:
                predictor.observe(req)
        self.finished.extend(done)

    def _report_batch(self) -> None:
        """Hand the batch's join and visit counts to the profiler (once
        per step, never per member)."""
        batch = self.running
        PROFILER.count("serving.batch.joins", batch.joins)
        PROFILER.count("serving.batch.member_visits", batch.visits)
        batch.joins = batch.visits = 0

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
        running = self.running
        done: list[Request] = []
        for req in admitted:
            req.state = RequestState.RUNNING
            if req.admit_s is None:
                req.admit_s = start
            if req.first_token_s is None:
                req.first_token_s = t
            # The prefill produces the first token.
            req.tokens_done += 1
            if req.tokens_done < req.gen_len:
                running.join(req)
            else:
                done.append(req)
        if done:
            self._finish(done, t)
        self.emit("prefill", start, t, dur, 1, n, max_ctx, rids, len(running))
        if PROFILER.enabled:
            PROFILER.count("serving.steps.prefill")
            self._report_batch()
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
        max_ctx = running.max_context()
        dur = self.oracle.decode_step_seconds(n, max_ctx)
        start = self.t
        if self._cut(start, start + dur):
            return None
        rids = running.rids() if self.keep else ()
        faults = self.faults
        if faults is not None and self.rng.random() < faults.transient_abort_probability(start):
            members = list(running)
            if len(self._abort(start, dur, "decode", members)) < n:
                for req in members:
                    if req.state is RequestState.DROPPED:
                        running.leave(req)
            self.emit(
                "abort-decode", start, start + dur, dur, 1,
                n, max_ctx, rids, len(running),
            )
            return False
        self.consec_aborts = 0
        k = 1
        t = start + dur
        if coalesce:
            k, t = self._run_length(start, dur, max_ctx, next_arrival)
        self.t = t
        done = running.advance(k)
        if done:
            self._finish(done, t)
        self.emit("decode", start, t, dur, k, n, max_ctx, rids, len(running))
        if PROFILER.enabled:
            PROFILER.count("serving.steps.decode", k)
            self._report_batch()
        return True

    def _run_length(
        self, start: float, dur: float, max_ctx: int, next_arrival: float | None
    ) -> tuple[int, float]:
        """Steps until the next scheduling event, and the clock after them.
        The earliest completion and the price-bucket boundary bound the run
        up front; the next arrival and queue-deadline expiries cut it at
        the first step boundary that reaches them.  Runs average about two
        steps, so a plain ``t += dur`` loop beats building an array."""
        k = min(
            self.running.min_remaining(),
            self.oracle.decode_bucket_headroom(max_ctx),
        )
        t = start + dur
        if k == 1:
            return 1, t
        a_min = self.queue.next_expirable_arrival()
        timeout = self.queue.timeout_s
        for j in range(1, k):
            if next_arrival is not None and t >= next_arrival:
                return j, t
            if a_min is not None and t - a_min > timeout:  # reach: tests/test_serving_event_engine.py::test_run_length_loop_is_bitwise_the_cumsum_cut (a queue timeout inside a decode run)
                return j, t
            t += dur
        return k, t
