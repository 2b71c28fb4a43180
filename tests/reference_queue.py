"""The linear-scan admission queue: the reference the deadline heap must equal.

:class:`ScanQueue` is :class:`~repro.serving.queue.AdmissionQueue` with
expiry done the plain way: every :meth:`ScanQueue.expire` walks
``waiting`` and drops each unstarted request past the timeout, and
:meth:`ScanQueue.next_expirable_arrival` is a ``min`` over the same
members.  It only ever touches actual members, so it has no notion of a
stale entry.  Tests drive it side by side with the real queue, or put it
in the kernel's place (``monkeypatch`` on
``repro.serving.kernel.AdmissionQueue``), and require equal outcomes.
"""

from __future__ import annotations

from repro.serving.queue import AdmissionQueue
from repro.serving.request import DropReason, Request


class ScanQueue(AdmissionQueue):
    """Admission queue whose expiry scans ``waiting`` linearly."""

    def next_expirable_arrival(self) -> float | None:
        if self.timeout_s is None:
            return None
        return min(
            (r.arrival_s for r in self.waiting if r.tokens_done == 0),
            default=None,
        )

    def expire(self, now: float) -> list[Request]:
        if self.timeout_s is None:
            return []
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
