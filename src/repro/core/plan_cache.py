"""One process-wide plan cache shared by every engine.

LM-Offload's policy is an offline search: the Eq. 1-24 pricing plus the
Algorithm 3 thread allocation is solved once per (hardware, workload)
and then reused.  Every engine's ``plan_cached`` therefore looks its
answer up here under a *content* key that names everything the search
reads::

    (engine type, engine knobs, platform signature, degradation rung, workload)

Identical replicas share one search, and an engine retargeted back to a
platform it has already planned on (a link that flaps back, a fault
window that closes) gets its earlier answer back.  Nothing is ever
invalidated: a retarget or a rung change alters the key, so the next
lookup simply misses.

Entries are the ``(policy, cpu_ctx, thread_plan)`` tuples the engines
return, shared between engines: callers must treat them as read-only.
The cache is a bounded LRU; hits and misses are reported to the
profiler as ``engine.plan_memo`` and evictions counted as
``engine.plan_memo.evictions``.  ``maxsize = 0`` stores nothing (every
lookup plans), which is how the tests prove cache-on and cache-off runs
identical.

:data:`CURVE_CACHE` is the same LRU one level down: Algorithm 3's
compute-makespan curves and the list-schedule makespans behind
``CpuExecutionContext.parallel_efficiency``, keyed on the content of the
op graph and the contention model (see :mod:`repro.parallel.controller`).
It reports as ``parallel.curve``.

:data:`LP_CACHE` holds the planner's placement-LP solutions, keyed on
the LP's own coefficients and capacities (see
:func:`repro.offload.planner.solve_lp`).  It reports as ``planner.lp``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.obs.profiling import PROFILER

#: Entries kept before the least recently used one is evicted.  A serving
#: run meets a few dozen distinct questions; an entry is a few KB.
DEFAULT_MAXSIZE = 512


def platform_signature(platform, hw) -> tuple:
    """Everything an engine derives from ``platform``: the Table 2 rates
    (``hw``), the CPU spec (topology) and the shared-cache spec
    (contention model).  ``Platform`` itself is mutable and unhashable."""
    return (hw, platform.cpu, platform.cache)


class PlanCache:
    """Bounded LRU from a content key to an engine's plan.  ``name`` is
    the label its hits, misses and evictions carry in the profiler."""

    def __init__(
        self, maxsize: int = DEFAULT_MAXSIZE, name: str = "engine.plan_memo"
    ) -> None:
        self.maxsize = maxsize
        self.name = name
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:  # reach: tests/test_plan_cache.py::test_lru_bound_evicts_least_recent_and_counts reads the entry count
        return len(self._entries)

    def get(self, key: Hashable, plan: Callable[[], Any]) -> Any:
        """The entry under ``key``, running ``plan()`` on a miss.  A plan
        that raises stores nothing, so the next lookup searches again."""
        entry = self._entries.get(key)
        if PROFILER.enabled:
            PROFILER.cache(self.name, hit=entry is not None)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = plan()
        if self.maxsize > 0:
            self._entries[key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                PROFILER.count(f"{self.name}.evictions")
        return entry

    def clear(self) -> None:
        self._entries.clear()


#: The cache every engine plans through.
PLAN_CACHE = PlanCache()

#: The cache every compute-makespan schedule goes through.
CURVE_CACHE = PlanCache(name="parallel.curve")

#: The cache every placement LP goes through.
LP_CACHE = PlanCache(name="planner.lp")
