"""Quantization configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError


@dataclass(frozen=True)
class QuantConfig:
    """Parameters of the group-wise quantizer.

    Parameters
    ----------
    bits:
        Target width ``b``; codes occupy ``[0, 2^b - 1]``.  4 is the paper's
        (and FlexGen's) default; 8 is also supported.
    group_size:
        Elements per quantization group.  FlexGen's default is 64; smaller
        groups cost more metadata but bound the error better.
    group_dim:
        Axis along which groups are formed.  Grouping along the last
        (contiguous) axis keeps the min/max scan cache-friendly.
    """

    bits: int = 4
    group_size: int = 64
    group_dim: int = -1

    def __post_init__(self) -> None:
        if self.bits not in (2, 4, 8):
            raise QuantizationError(f"bits must be 2, 4 or 8, got {self.bits}")
        if self.group_size < 2:
            raise QuantizationError("group_size must be >= 2")

    @property
    def levels(self) -> int:
        """Number of representable codes, ``2^b``."""
        return 1 << self.bits

    @property
    def codes_per_byte(self) -> int:
        return 8 // self.bits

    def payload_bytes(self, num_elements):
        """Packed payload size for ``num_elements`` values (a count or an
        array of counts), excluding per-group min/scale metadata."""
        if np.any(num_elements < 0) if isinstance(num_elements, np.ndarray) else num_elements < 0:
            raise ValueError("num_elements must be non-negative")
        return num_elements * self.bits / 8

    def metadata_bytes(self, num_elements, scale_dtype_bytes: int = 2) -> float:
        """Per-group (min, scale) metadata bytes.

        Stored min/scale are fp16 on the wire (the in-memory
        :class:`~repro.quant.groupwise.QuantizedTensor` keeps fp32 for
        numeric headroom, but transport layers ship fp16 like FlexGen's).
        """
        if isinstance(num_elements, np.ndarray):
            groups = np.ceil(num_elements / self.group_size)
        else:
            groups = math.ceil(num_elements / self.group_size)
        return groups * 2 * scale_dtype_bytes

    def total_bytes(self, num_elements):
        """Payload + metadata: what actually crosses the interconnect."""
        return self.payload_bytes(num_elements) + self.metadata_bytes(num_elements)
