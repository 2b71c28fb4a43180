"""LM-Offload: the paper's primary contribution.

:class:`LMOffloadEngine` composes the substrates:

1. **Performance-model-guided policy search** (§3): a quantization-aware
   :class:`~repro.offload.planner.PolicyPlanner` choosing placement
   (wg/cg/hg), attention device, and per-tensor quantization.
2. **Thread-level parallelism control** (§4, Algorithm 3): a
   :class:`~repro.parallel.controller.ParallelismController` allocating
   intra/inter-op threads for compute and volume-proportional threads for
   the five I/O tasks.
3. The FlexGen-style overlapped zig-zag runtime underneath.

:class:`FunctionalEngine` (in :mod:`repro.core.functional`) runs *real*
NumPy inference through the same policies at tiny scale — Algorithm 1's
zig-zag block, each layer fetched once per sweep for all ``k`` batches —
verifying that offloading + quantization preserve model outputs.
"""

from repro.core.config import EngineConfig
from repro.core.engine import LMOffloadEngine
from repro.core.report import InferenceReport
from repro.core.functional import FunctionalEngine, FunctionalRunResult

__all__ = [
    "EngineConfig",
    "LMOffloadEngine",
    "InferenceReport",
    "FunctionalEngine",
    "FunctionalRunResult",
]
