"""Simulated heterogeneous hardware: devices, links, memory pools.

The paper evaluates on physical machines (A100 + dual Xeon 6330, and a
POWER9 + 4xV100 node).  This package models those machines as parameter
bundles — peak FLOP rates, memory bandwidths, clock frequencies, capacities
and interconnects — which is exactly the set of inputs consumed by the
paper's analytic performance model (Table 2).

Use the presets for paper-faithful platforms::

    from repro.hardware import single_a100, power9_4xv100
    plat = single_a100()
    plat.gpu.peak_flops          # 312 TFLOPS (fp16 tensor core)
    plat.pcie.bandwidth          # 32 GB/s per direction

:data:`PLATFORMS` maps each preset's name to its constructor.
"""

from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.interconnect import Link
from repro.hardware.memory import MemoryPool
from repro.hardware.cache import CacheHierarchy
from repro.hardware.platform import (
    PLATFORMS,
    Platform,
    single_a100,
    power9_4xv100,
    small_test_platform,
)

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "Link",
    "MemoryPool",
    "CacheHierarchy",
    "PLATFORMS",
    "Platform",
    "single_a100",
    "power9_4xv100",
    "small_test_platform",
]
