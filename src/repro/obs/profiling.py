"""Profiling hooks: ``span()`` scopes, call counts, cache hit rates.

The planner, the executor, the serving loop and the parallelism
controller are all instrumented with these hooks; the instrumentation is
**off by default** and, when off, costs one attribute read and one branch
per call site — no context manager is constructed, no clock is read, no
dict is touched.  The zero-overhead contract is load-bearing: the serving
identity tests assert that enabling/disabling observability never changes
a simulation's output, and the perf harness relies on disabled hooks not
showing up in its medians.

Usage::

    from repro.obs import PROFILER, span

    with span("engine.plan"):            # no-op singleton when disabled
        ...
    if PROFILER.enabled:                 # guard for hot-path bookkeeping
        PROFILER.cache("oracle.step_cache", hit=True)

``PROFILER`` is the process-wide default instance (the CLI flips it on
with ``--profile``); tests construct private :class:`Profiler` instances
and swap them in with :func:`use_profiler` to avoid cross-test bleed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class ScopeStats:
    """Accumulated timings of one named scope."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def record(self, elapsed: float) -> None:
        self.calls += 1
        self.total_s += elapsed
        self.max_s = max(self.max_s, elapsed)

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "max_s": self.max_s,
            "mean_s": self.total_s / self.calls if self.calls else 0.0,
        }


@dataclass
class CacheStats:
    """Hit/miss tally of one named cache."""

    name: str
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


class _NullScope:
    """The shared do-nothing context manager handed out when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SCOPE = _NullScope()


class Scope:
    """An active timed scope (one per ``with span(...)`` entry)."""

    __slots__ = ("_stats", "_start")

    def __init__(self, stats: ScopeStats) -> None:
        self._stats = stats

    def __enter__(self) -> "Scope":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._stats.record(time.perf_counter() - self._start)


class Profiler:
    """Collects scope timings, call counts and cache hit rates.

    ``enabled`` gates everything: a disabled profiler's :meth:`span`
    returns a shared no-op singleton and its recording methods return
    immediately.  Reports are deterministic in *structure* (sorted names);
    the timings themselves are wall-clock and belong in diagnostics, never
    in committed artifacts.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._scopes: dict[str, ScopeStats] = {}
        self._caches: dict[str, CacheStats] = {}
        self._counts: dict[str, int] = {}

    # -- control -----------------------------------------------------------

    def reset(self) -> None:
        self._scopes.clear()
        self._caches.clear()
        self._counts.clear()

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        """Context manager timing one scope (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SCOPE
        stats = self._scopes.get(name)
        if stats is None:
            stats = self._scopes[name] = ScopeStats(name)
        return Scope(stats)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a bare call counter (no timing)."""
        if not self.enabled:
            return
        self._counts[name] = self._counts.get(name, 0) + amount

    def cache(self, name: str, hit: bool) -> None:
        """Record one cache lookup outcome."""
        if not self.enabled:  # reach: tests/test_obs.py::test_disabled_profiler_records_nothing
            return
        stats = self._caches.get(name)
        if stats is None:
            stats = self._caches[name] = CacheStats(name)
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """JSON-ready snapshot: sorted scopes, caches and counters."""
        return {
            "enabled": self.enabled,
            "scopes": {n: self._scopes[n].to_dict() for n in sorted(self._scopes)},
            "caches": {n: self._caches[n].to_dict() for n in sorted(self._caches)},
            "counts": {n: self._counts[n] for n in sorted(self._counts)},
        }


#: The process-wide profiler every instrumented layer reports into.
#: There is exactly one instance — call sites bind it at import time, so
#: it is never swapped, only enabled/disabled (and reset).
PROFILER = Profiler(enabled=False)


def span(name: str):
    """Time a scope against the process profiler (no-op when disabled)."""
    return PROFILER.span(name)


@contextmanager
def profiling_enabled(reset: bool = True):
    """Enable the process profiler for a scope, restoring the prior flag.

    ``reset`` (default) clears previously accumulated stats first so the
    scope reads as one isolated measurement — what both the CLI
    ``--profile`` flag and the tests want.
    """
    prior = PROFILER.enabled
    if reset:
        PROFILER.reset()
    PROFILER.enabled = True
    try:
        yield PROFILER
    finally:
        PROFILER.enabled = prior
