"""Contention-aware thread speedup model.

This is the mechanism layer behind the paper's Figure 5:

* **Intra-op** speedup is a harmonic blend of a compute part (scales with
  granted cores, SMT threads counting fractionally) and a memory part
  (scales only until the socket's bandwidth saturates — roughly 6 streaming
  threads on the Xeon 6330), so memory-intensive attention operators
  flatten out near 8 threads.
* **Inter-op** co-running ops contend for the shared LLC (modelled through
  :class:`~repro.hardware.cache.CacheHierarchy`) and, past one socket's
  span, pay a NUMA penalty — so throughput peaks near the op graph's max
  concurrency (12 in Figure 6) and then degrades.

All calibration constants live in :class:`CalibrationConstants`, with
defaults chosen to land the paper's qualitative numbers; the ablation
benches perturb them to show the conclusions are not knife-edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.cache import CacheHierarchy
from repro.parallel.topology import CpuTopology


@dataclass(frozen=True)
class ParallelismSetting:
    """A (intra-op, inter-op) thread configuration."""

    intra_op: int
    inter_op: int

    def __post_init__(self) -> None:
        if self.intra_op < 1 or self.inter_op < 1:
            raise ConfigError("intra_op and inter_op must be >= 1")

    @property
    def total_threads(self) -> int:
        """Worst-case thread demand if every inter-op slot is busy."""
        return self.intra_op * self.inter_op


@dataclass(frozen=True)
class CalibrationConstants:
    """Tunable mechanism parameters (defaults calibrated to Figure 5/8).

    Attributes
    ----------
    compute_fraction:
        Fraction of an attention op's serial time that is compute-bound
        (the rest is memory-bound).  Decode attention is GEMV-like, so low.
    bw_saturation_threads:
        Streaming threads that saturate one socket's memory bandwidth.
    smt_efficiency:
        Marginal contribution of an SMT sibling vs a physical core.
    numa_bw_factor:
        Memory-speedup multiplier once a gang spans sockets (remote
        accesses under first-touch placement).
    oversub_exponent:
        Strength of the slowdown when a gang requests more threads than it
        is granted (scheduling overhead; paper §4.2: "the overhead of
        thread scheduling can easily kill the performance").
    llc_penalty:
        Max fractional slowdown attributable to LLC thrash from co-runners.
    op_stream_bytes:
        Per-thread streaming footprint charged against the LLC.
    """

    compute_fraction: float = 0.40
    bw_saturation_threads: float = 6.0
    smt_efficiency: float = 0.30
    numa_bw_factor: float = 0.85
    oversub_exponent: float = 0.12
    llc_penalty: float = 1.2
    op_stream_bytes: float = 256 * 1024
    #: How many co-running ops are simultaneously in their memory-bound
    #: phase (ops alternate compute/memory phases, so the full co-runner
    #: count never hits the memory system at once).
    mem_active_window: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.compute_fraction <= 1.0:
            raise ValueError("compute_fraction must be in [0, 1]")


class ContentionModel:
    """Effective speedups/slowdowns for thread gangs on a CPU."""

    def __init__(
        self,
        topology: CpuTopology,
        cache: CacheHierarchy | None = None,
        constants: CalibrationConstants | None = None,
    ) -> None:
        self.topology = topology
        self.cache = cache or CacheHierarchy()
        self.c = constants or CalibrationConstants()
        # Algorithm 3 evaluates every op of every candidate setting through
        # effective_op_speedup, but only a handful of distinct
        # (intra, co_runners, op_bytes) tuples occur —
        # memoise them (the model's constants are frozen dataclasses).
        self._speedup_memo: dict[tuple, float] = {}

    # -- intra-op ---------------------------------------------------------

    def compute_scale(self, threads: int) -> float:
        """Compute-bound scaling: cores linearly, SMT fractionally."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        topo = self.topology
        phys = min(threads, topo.physical_cores)
        smt_extra = max(0, min(threads, topo.hardware_threads) - topo.physical_cores)
        scale = phys + self.c.smt_efficiency * smt_extra
        if topo.oversubscribed(threads):
            scale *= (topo.hardware_threads / threads) ** self.c.oversub_exponent
        return scale

    def bandwidth_scale(self, threads: int) -> float:
        """Memory-bound scaling: saturates at one socket's bandwidth.

        Under the paper's NUMA-first-touch setup the data lives on one
        socket, so a gang spanning sockets makes *remote* accesses and the
        effective bandwidth drops by the NUMA factor (§4.1: "the
        cross-socket memory accesses become more often due to the NUMA
        effect").
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        sat = self.c.bw_saturation_threads
        scale = min(float(threads), sat)
        if self.topology.crosses_socket(threads) and self.topology.sockets > 1:
            scale *= self.c.numa_bw_factor
        return scale

    # -- inter-op ---------------------------------------------------------

    def granted_threads(self, intra: int, co_runners: int) -> int:
        """Hardware threads actually available per op when ``co_runners``
        gangs share the machine."""
        if co_runners < 1:
            raise ValueError("co_runners must be >= 1")
        fair = self.topology.hardware_threads // co_runners
        return max(1, min(intra, fair))

    def bw_share_factor(self, granted: int, co_runners: int) -> float:
        """<= 1: scale-back when co-running gangs oversubscribe the
        machine's aggregate memory bandwidth.

        Each op's gang can individually pull ``bandwidth_scale(granted)``
        thread-equivalents of bandwidth, but the machine only supplies
        ``bw_saturation_threads`` per socket; when total demand exceeds the
        cap every op gets its fair share.
        """
        if co_runners < 1:
            raise ValueError("co_runners must be >= 1")
        per_op = self.bandwidth_scale(granted)
        cap = self.c.bw_saturation_threads * self.topology.sockets
        active = min(co_runners, self.c.mem_active_window)
        demand = per_op * active
        if demand <= cap:
            return 1.0
        return cap / demand

    def cache_slowdown(self, op_bytes: float, intra: int, co_runners: int) -> float:
        """>= 1: LLC-thrash slowdown for one op among ``co_runners``.

        The pressure charged to the LLC is the op's resident tile plus a
        per-active-thread streaming footprint.
        """
        total_threads = min(
            intra * co_runners, self.topology.hardware_threads * 4
        )
        working_set = op_bytes * co_runners + total_threads * self.c.op_stream_bytes
        base = self.cache.miss_ratio(op_bytes + intra * self.c.op_stream_bytes, 1)
        now = self.cache.miss_ratio(working_set, 1)
        return 1.0 + self.c.llc_penalty * max(0.0, now - base)

    def effective_op_speedup(
        self,
        setting: ParallelismSetting,
        co_runners: int,
        op_bytes: float = 4 * 1024 * 1024,
    ) -> float:
        """Speedup of one op under ``setting`` with ``co_runners`` peers.

        Combines: granted-thread intra speedup (a harmonic blend of the
        compute and bandwidth scales), oversubscription thrash, and
        LLC-contention slowdown.  With one co-runner this is the op's
        isolated intra-op speedup (Figure 5, left).
        """
        key = (setting.intra_op, co_runners, op_bytes)
        memo = self._speedup_memo.get(key)
        if memo is not None:
            return memo
        granted = self.granted_threads(setting.intra_op, co_runners)
        cf = self.c.compute_fraction
        comp = self.compute_scale(granted)
        mem = self.bandwidth_scale(granted) * self.bw_share_factor(granted, co_runners)
        base = 1.0 / (cf / comp + (1.0 - cf) / mem)
        # Oversubscription thrash: the *demanded* software parallelism
        # (co-running gangs x requested intra threads) versus hardware
        # threads.  PyTorch's default (112 x 56) pays heavily here; a
        # controlled setting keeps demand <= hardware and pays nothing.
        demand = co_runners * setting.intra_op
        thrash = 1.0
        if demand > self.topology.hardware_threads:
            thrash = (self.topology.hardware_threads / demand) ** self.c.oversub_exponent
        cache = self.cache_slowdown(op_bytes, granted, co_runners)
        result = base * thrash / cache
        self._speedup_memo[key] = result
        return result
