"""Tensor offloading substrate: placement, transfer, policy.

This package provides the machinery both engines (FlexGen baseline and
LM-Offload) are built on:

* :class:`ManagedTensor` / :class:`TensorStore` — tensors with an explicit
  device placement, backed by byte-accurate :class:`~repro.hardware.MemoryPool`
  accounting (and optionally by real NumPy arrays for functional runs).
* :class:`TransferEngine` — charges link time for byte flows between
  devices and tracks cumulative per-direction traffic.
* :class:`OffloadPolicy` — the percentage split (wg/cg/hg), quantization
  choices and attention placement; i.e. one point in the search space.
* :mod:`repro.offload.planner` — FlexGen-style policy search under memory
  constraints (linear-programming relaxation + feasibility repair).
"""

from repro.offload.tensor import ManagedTensor
from repro.offload.store import TensorStore
from repro.offload.transfer import TransferEngine
from repro.offload.policy import OffloadPolicy

__all__ = [
    "ManagedTensor",
    "TensorStore",
    "TransferEngine",
    "OffloadPolicy",
]
