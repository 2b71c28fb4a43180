"""CPU cache-hierarchy model for LLC-miss estimation (paper Table 5).

The paper measures last-level-cache misses with hardware counters and shows
that parallelism control reduces them by ~38 %.  The mechanism it credits is
*cache thrash from co-running operations*: each concurrently running op
claims a slice of the shared LLC, and once the combined working set exceeds
the cache, every additional co-runner converts hits into misses.

We reproduce that mechanism with a standard working-set model: for a
streaming workload touching ``traffic`` bytes with per-op working set ``w``
and ``c`` co-running ops on a socket with LLC size ``S``, the effective
per-op cache share is ``S / c`` and the miss ratio rises smoothly from the
compulsory-miss floor toward 1 as ``w`` exceeds the share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MIB


@dataclass(frozen=True)
class CacheHierarchy:
    """Shared-cache parameters of one CPU socket.

    Parameters
    ----------
    llc_bytes:
        Last-level cache capacity per socket (Xeon 6330: 42 MiB).
    line_bytes:
        Cache-line size; misses = missed bytes / line size.
    compulsory_ratio:
        Miss-ratio floor for purely streaming data (first touch always
        misses at the granularity of the hardware prefetcher's coverage).
    """

    llc_bytes: float = 42 * MIB
    line_bytes: int = 64
    compulsory_ratio: float = 0.35

    def miss_ratio(self, working_set: float, co_runners: int) -> float:
        """Miss ratio in [compulsory_ratio, 1] for one op.

        ``working_set`` is the bytes the op re-touches within its reuse
        window; ``co_runners`` is the number of ops sharing this socket's
        LLC (>= 1).
        """
        if co_runners < 1:
            raise ValueError("co_runners must be >= 1")
        if working_set < 0:
            raise ValueError("working_set must be non-negative")
        if working_set == 0:  # reach: tests/test_hardware_cache.py::test_zero_working_set_hits_compulsory_floor
            return self.compulsory_ratio
        share = self.llc_bytes / co_runners
        # Smooth saturating curve: ratio -> compulsory floor when the share
        # covers the working set, -> 1 when it is many times too small.
        pressure = working_set / (working_set + share)
        return self.compulsory_ratio + (1.0 - self.compulsory_ratio) * pressure
