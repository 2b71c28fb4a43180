"""Bounded admission queue with timeout/drop accounting.

The queue is where admission control happens: arrivals beyond
``capacity`` are rejected outright (``QUEUE_FULL``), and requests that
wait longer than ``timeout_s`` are expired at step boundaries
(``TIMEOUT``).  Both kinds of drop are stamped on the request and tallied
so the metrics layer can report exact drop accounting.

:class:`~repro.serving.kernel.ReplicaKernel` builds every queue, from a
validated :class:`~repro.serving.simulator.ServingConfig`, in one
configuration:

* a lazy min-heap over unstarted requests' arrival times, so
  :meth:`expire` is O(1) when nothing can expire and O(log n) per drop.
  Each enqueue of an unstarted request pushes a fresh entry and records
  it on the request; an entry is live only while it is the one recorded
  there, and :meth:`take` and :meth:`expire` clear the record.  An entry
  whose request was admitted, requeued again or moved to another queue
  (fleet migration) is therefore dead, and is dropped when it surfaces.
* with :meth:`attach_order`, a policy-ordered view of ``waiting``
  maintained incrementally by binary insertion, so admission reads a
  pre-sorted list instead of re-sorting the whole queue every step.
  Only valid for policies whose sort key is constant while a request
  waits (``static_order``).
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

    _heap: list[tuple[float, int, Request]] = field(
        default_factory=list, repr=False
    )
    _seq: int = field(default=0, repr=False)
    _order_key: Callable[[Request], tuple] | None = field(
        default=None, repr=False
    )
    _ordered: list[Request] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.waiting)

    # -- indexes ------------------------------------------------------------

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

    def _leave(self, req: Request) -> None:
        self.waiting.remove(req)
        self._index_remove(req)
        req._deadline = None

    def _live_head(self) -> tuple[float, int, Request] | None:
        """The earliest live deadline entry (its request still records
        it), popping dead ones above it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2]._deadline is entry:
                return entry
            heapq.heappop(heap)
        return None

    def next_expirable_arrival(self) -> float | None:
        """Arrival time of the earliest request the timeout can still
        expire (``None`` when no timeout or nothing unstarted waits)."""
        entry = self._live_head()
        return None if entry is None else entry[0]

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
        self.requeue(req, now)
        return True

    def requeue(self, req: Request, now: float) -> None:
        """Append ``req`` (never dropped: a preempted or aborted request
        returns, or :meth:`offer` found room).  Only an unstarted request
        is armed: the timeout models a user abandoning a request that
        never started."""
        req.state = RequestState.QUEUED
        req.queued_since_s = now
        self.waiting.append(req)
        self._index_insert(req)
        entry = None
        if self.timeout_s is not None and req.tokens_done == 0:
            entry = (req.arrival_s, self._seq, req)
            self._seq += 1
            heapq.heappush(self._heap, entry)
        req._deadline = entry

    def expire(self, now: float) -> list[Request]:
        """Drop requests whose *initial* wait exceeded the timeout, in
        deadline order."""
        if self.timeout_s is None:
            return []
        expired = []
        entry = self._live_head()
        while entry is not None and now - entry[0] > self.timeout_s:
            req = entry[2]
            self._leave(req)
            self._drop(req, now, DropReason.TIMEOUT)
            expired.append(req)
            entry = self._live_head()
        return expired

    def take(self, req: Request) -> Request:
        """Remove a specific request (the scheduler picked it)."""
        self._leave(req)
        return req
