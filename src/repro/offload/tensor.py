"""Managed tensors: placement-tagged, optionally materialized payloads.

A :class:`ManagedTensor` always knows *where it lives* and *how many bytes
it occupies*; it may additionally hold a real NumPy array (functional runs)
or a :class:`~repro.quant.QuantizedTensor` (compressed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.quant.groupwise import QuantizedTensor

Payload = Union[np.ndarray, QuantizedTensor, None]


@dataclass
class ManagedTensor:
    """A tensor tracked by the offloading runtime.

    Parameters
    ----------
    name:
        Unique handle, e.g. ``"layer3.wq"`` or ``"kv.12"``.
    nbytes:
        Size in bytes as stored (already reflects compression if the
        payload is quantized).
    device:
        Name of the owning device ("gpu0", "cpu", "disk").
    payload:
        Optional real data.
    pinned:
        Pinned tensors may not be evicted (e.g. resident weight shards).
    """

    name: str
    nbytes: int
    device: str
    payload: Payload = None
    pinned: bool = False

    def __post_init__(self) -> None:
        self.nbytes = math.ceil(self.nbytes)
        if self.nbytes < 0:
            raise ValueError(f"tensor {self.name}: nbytes must be >= 0")

    @classmethod
    def from_array(
        cls, name: str, array: np.ndarray, device: str, pinned: bool = False
    ) -> "ManagedTensor":
        """Wrap a real array."""
        return cls(
            name=name, nbytes=int(array.nbytes), device=device,
            payload=array, pinned=pinned,
        )

    @classmethod
    def from_quantized(
        cls, name: str, qt: QuantizedTensor, device: str, pinned: bool = False
    ) -> "ManagedTensor":
        """Wrap a quantized payload; ``nbytes`` is the compressed size."""
        return cls(
            name=name, nbytes=qt.nbytes, device=device, payload=qt, pinned=pinned
        )
