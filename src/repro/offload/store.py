"""TensorStore: the placement ledger over a platform's memory pools.

Every tensor registered with the store is charged against the pool of the
device it lives on.  This is what makes infeasible policies fail the same
way they would on real hardware (CUDA OOM -> MemoryCapacityError).
"""

from __future__ import annotations

from repro.hardware.platform import Platform
from repro.offload.tensor import ManagedTensor


class TensorStore:
    """Registry of :class:`ManagedTensor` objects bound to a platform."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._tensors: dict[str, ManagedTensor] = {}

    def register(self, tensor: ManagedTensor) -> ManagedTensor:
        """Add a tensor and charge its bytes to its device pool."""
        if tensor.name in self._tensors:
            raise ValueError(f"tensor {tensor.name!r} already registered")
        pool = self.platform.pools[tensor.device]
        pool.allocate(tensor.name, tensor.nbytes)
        self._tensors[tensor.name] = tensor
        return tensor

    def get(self, name: str) -> ManagedTensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"unknown tensor {name!r}") from None
