"""Bounded admission queue with timeout/drop accounting.

The queue is where admission control happens: arrivals beyond
``capacity`` are rejected outright (``QUEUE_FULL``), and requests that
wait longer than ``timeout_s`` are expired at step boundaries
(``TIMEOUT``).  Both kinds of drop are stamped on the request and tallied
so the metrics layer can report exact drop accounting.

Two optional indexes accelerate the event-driven simulator without
changing any observable behaviour (the equivalence matrix pins both):

* ``use_heap=True`` maintains a lazy min-heap over unstarted requests'
  arrival times, so :meth:`expire` is O(1) when nothing can expire and
  O(log n) per drop, replacing the per-iteration linear scan.  Entries
  are never removed eagerly; a popped entry is validated against the
  request's live state (lazy deletion), and :meth:`requeue` pushes a
  fresh entry for still-unstarted requests so an aborted prefill cannot
  orphan its deadline.
* :meth:`attach_order` keeps a policy-ordered view of ``waiting``
  maintained incrementally by binary insertion, so admission reads a
  pre-sorted list instead of re-sorting the whole queue every step.
  Only valid for policies whose sort key is constant while a request
  waits (all built-ins: tokens_done never changes in QUEUED state).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServingError
from repro.serving.request import DropReason, Request, RequestState


@dataclass
class AdmissionQueue:
    """FIFO holding area between arrival and GPU admission."""

    capacity: int = 64
    timeout_s: float | None = None
    waiting: list[Request] = field(default_factory=list)
    dropped: list[Request] = field(default_factory=list)
    #: Maintain the lazy deadline heap (event-engine fast path).  The
    #: legacy linear scan remains the reference implementation.
    use_heap: bool = False

    _heap: list[tuple[float, int, Request]] = field(
        default_factory=list, repr=False
    )
    _seq: int = field(default=0, repr=False)
    _order_key: Callable[[Request], tuple] | None = field(
        default=None, repr=False
    )
    _ordered: list[Request] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ServingError("queue capacity must be positive")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ServingError("queue timeout must be positive when set")

    def __len__(self) -> int:
        return len(self.waiting)

    # -- optional indexes ---------------------------------------------------

    def attach_order(self, key: Callable[[Request], tuple]) -> None:
        """Maintain ``waiting`` pre-sorted by ``key`` from now on.

        ``key`` must be a total order (break ties on ``rid``) that is
        constant while a request sits in the queue.
        """
        self._order_key = key
        self._ordered = sorted(self.waiting, key=key)

    def ordered_view(self) -> list[Request] | None:
        """The policy-ordered waiting list, or ``None`` if not attached.
        Callers must not mutate the returned list (snapshot before
        iterating if admission will take from the queue)."""
        if self._order_key is None:
            return None
        return self._ordered

    def _index_insert(self, req: Request) -> None:
        if self._order_key is not None:
            insort(self._ordered, req, key=self._order_key)

    def _index_remove(self, req: Request) -> None:
        if self._order_key is None:
            return
        # Keys are total orders (rid tiebreak), so bisect lands exactly
        # on the request; the identity scan below is a safety net.
        idx = bisect_left(self._ordered, self._order_key(req), key=self._order_key)
        if idx < len(self._ordered) and self._ordered[idx] is req:
            del self._ordered[idx]
            return
        # Last resort: an identity scan over the whole view.  The old
        # fallback was ``self._ordered.remove(req)``, which compares
        # mutable ``Request`` dataclasses by *value* — under a stale sort
        # key it could delete a different request that happened to look
        # equal, silently corrupting the ordered view.  A request that is
        # genuinely absent means the index and ``waiting`` have already
        # diverged; fail loudly instead of papering over it.
        for i, entry in enumerate(self._ordered):  # reach: safety code, a sort key that changed while queued (tests/test_serving_multimodel.py::test_ordered_view_identity_scan_and_loud_failure)
            if entry is req:
                del self._ordered[i]
                return
        raise ServingError(
            f"admission queue ordered view lost request rid={req.rid}: the "
            "policy sort key changed while the request was queued (keys "
            "must be constant for waiting requests) or the view was "
            "mutated externally"
        )

    def _heap_push(self, req: Request) -> None:
        if self.use_heap and self.timeout_s is not None and req.tokens_done == 0:
            heapq.heappush(self._heap, (req.arrival_s, self._seq, req))
            self._seq += 1

    @staticmethod
    def _expirable(req: Request) -> bool:
        # Preempted requests (tokens_done > 0) are exempt: the timeout
        # models a user abandoning a request that never started.
        return req.state is RequestState.QUEUED and req.tokens_done == 0

    def next_expirable_arrival(self) -> float | None:
        """Arrival time of the earliest request the timeout can still
        expire (``None`` when no timeout or nothing unstarted waits).
        Purges dead heap heads; safe because every live unstarted request
        re-enters the heap on :meth:`requeue`."""
        if not self.use_heap or self.timeout_s is None:
            return None
        while self._heap:
            arrival, _, req = self._heap[0]
            if self._expirable(req):
                return arrival
            heapq.heappop(self._heap)
        return None

    # -- queue operations ---------------------------------------------------

    def _drop(self, req: Request, now: float, reason: DropReason) -> None:
        req.state = RequestState.DROPPED
        req.drop_s = now
        req.drop_reason = reason
        self.dropped.append(req)

    def offer(self, req: Request, now: float) -> bool:
        """Enqueue ``req``; ``False`` (and a QUEUE_FULL drop) when full."""
        if len(self.waiting) >= self.capacity:
            self._drop(req, now, DropReason.QUEUE_FULL)
            return False
        req.state = RequestState.QUEUED
        req.queued_since_s = now
        self.waiting.append(req)
        self._index_insert(req)
        self._heap_push(req)
        return True

    def requeue(self, req: Request, now: float) -> None:
        """Return a preempted request to the queue (never dropped: it has
        already been admitted once and holds generated tokens)."""
        req.state = RequestState.QUEUED
        req.queued_since_s = now
        self.waiting.append(req)
        self._index_insert(req)
        # An aborted prefill re-enters still unstarted: its original heap
        # entry may already have been consumed while it ran, so push a
        # fresh one (duplicates are harmless under lazy deletion).
        self._heap_push(req)

    def expire(self, now: float) -> list[Request]:
        """Drop requests whose *initial* wait exceeded the timeout."""
        if self.timeout_s is None:
            return []
        if not self.use_heap:  # reach: tests/test_batch_clock.py::test_clock_matches_eager_single_engine (_run_reference with a queue timeout)
            expired = [
                r
                for r in self.waiting
                if r.tokens_done == 0 and now - r.arrival_s > self.timeout_s
            ]
            for req in expired:
                self.waiting.remove(req)
                self._index_remove(req)
                self._drop(req, now, DropReason.TIMEOUT)
            return expired
        expired = []
        while self._heap:
            arrival, _, req = self._heap[0]
            if not self._expirable(req):
                heapq.heappop(self._heap)
                continue
            if not (now - arrival > self.timeout_s):
                break
            heapq.heappop(self._heap)
            # Drop immediately so a duplicate heap entry for the same
            # request (requeue re-arms lazily) fails the liveness
            # check instead of expiring twice.
            self.waiting.remove(req)
            self._index_remove(req)
            self._drop(req, now, DropReason.TIMEOUT)
            expired.append(req)
        return expired

    def take(self, req: Request) -> Request:
        """Remove a specific request (the scheduler picked it)."""
        self.waiting.remove(req)
        self._index_remove(req)
        return req
