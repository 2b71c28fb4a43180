"""Result containers returned by the engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.offload.policy import OffloadPolicy
from repro.parallel.controller import ParallelismPlan
from repro.perfmodel.latency import LatencyBreakdown
from repro.perfmodel.notation import Workload


@dataclass(frozen=True)
class InferenceReport:
    """One engine run: who, with what policy, how fast.

    Fields mirror the paper's Table 3 columns: batch geometry, wg/cg/hg
    placement percentages, total memory consumption and throughput.
    """

    engine: str
    workload: Workload
    policy: OffloadPolicy
    breakdown: LatencyBreakdown
    gpu_bytes: float
    cpu_bytes: float
    parallelism: Optional[ParallelismPlan] = None

    @property
    def throughput(self) -> float:
        """Tokens generated per second."""
        return self.breakdown.throughput(self.workload)

    @property
    def total_memory_bytes(self) -> float:
        """Table 3's "mem" column: GPU + host bytes in use."""
        return self.gpu_bytes + self.cpu_bytes

    def normalized_to(self, reference: "InferenceReport") -> float:
        """Table 3's "norm tput": this engine / reference engine."""
        return self.throughput / reference.throughput

    def table_row(self) -> dict[str, object]:
        """Table 3-shaped row for the benchmark harness."""
        return {
            "framework": self.engine,
            "len": self.workload.gen_len,
            "bsz": self.workload.block_size,
            "wg": round(100 * self.policy.wg),
            "cg": round(100 * self.policy.cg),
            "hg": round(100 * self.policy.hg),
            "mem_gb": round(self.total_memory_bytes / 1e9),
            "tput": round(self.throughput, 1),
        }
