"""CPU thread-level parallelism model and the paper's control algorithm.

The paper's §4 shows that PyTorch's default threading (intra-op = all 56
cores, inter-op = all 112 hardware threads) is far from optimal for the six
offloading tasks, and contributes Algorithm 3 to pick a better split.  This
package models the *mechanisms* behind Figure 5's curves —

* intra-op speedup saturating near 8 threads (memory-bandwidth ceiling),
* inter-op throughput peaking near 12 co-running ops then degrading
  (LLC thrash + NUMA crossing + oversubscription),

— and implements Algorithm 3 on top of them.
"""

from repro.parallel.topology import CpuTopology
from repro.parallel.speedup import ContentionModel, ParallelismSetting
from repro.parallel.controller import ParallelismController, ParallelismPlan
from repro.parallel.bundling import bundle_operators, OperatorBundle
from repro.parallel.llc import LLCModel, LLCMissReport

__all__ = [
    "CpuTopology",
    "ContentionModel",
    "ParallelismSetting",
    "ParallelismController",
    "ParallelismPlan",
    "bundle_operators",
    "OperatorBundle",
    "LLCModel",
    "LLCMissReport",
]
