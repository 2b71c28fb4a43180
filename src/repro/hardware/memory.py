"""Byte-accurate memory pools with capacity enforcement.

Each device owns a :class:`MemoryPool`.  Tensor placement decisions made by
the offloading policies are validated against these pools, so an infeasible
policy (e.g. ZeRO-Inference trying to keep 55 GB of weights on a 40 GB GPU)
fails loudly with :class:`~repro.errors.MemoryCapacityError` instead of
silently producing impossible throughput numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import MemoryCapacityError


@dataclass
class MemoryPool:
    """A fixed-capacity byte pool with named allocations.

    Allocations are tracked by handle name so tests can assert exactly which
    tensors live where, mirroring the "wg/cg/hg" placement columns of the
    paper's Table 3.
    """

    name: str
    capacity: int
    _allocations: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"pool {self.name}: capacity must be > 0")

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return sum(self._allocations.values())

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self.used

    def allocate(self, handle: str, nbytes: float) -> None:
        """Reserve ``nbytes`` (rounded up to whole bytes) under ``handle``.

        Raises
        ------
        MemoryCapacityError
            If the pool would overflow.
        ValueError
            If ``handle`` is already allocated (allocations are unique).
        """
        nbytes = math.ceil(nbytes)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if handle in self._allocations:
            raise ValueError(f"pool {self.name}: handle {handle!r} already allocated")
        if nbytes > self.free:
            raise MemoryCapacityError(self.name, nbytes, self.free)
        self._allocations[handle] = nbytes
