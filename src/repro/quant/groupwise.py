"""Group-wise min/max quantization kernels (paper Algorithm 2).

Pipeline (matching the algorithm's four phases):

1. **Pad** the tensor along ``group_dim`` to a multiple of ``group_size``.
2. **Min/max** per group.
3. **Normalize** each element into ``[0, 2^b - 1]`` (Eq. 10) and clamp.
4. **Pack** codes into bytes and reshape.

Everything is vectorized NumPy; the bit-packing uses shift/or over a
reshaped view rather than per-element loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.quant.config import QuantConfig


@dataclass(frozen=True)
class QuantizedTensor:
    """A packed payload plus the metadata needed to reverse it.

    Attributes
    ----------
    payload:
        uint8 array of packed codes, shape (num_groups, packed_group_bytes).
    mins, scales:
        Per-group float32 minimum and ``(max - min)`` range.
    shape:
        Original (unpadded) tensor shape.
    config:
        Quantizer parameters used.
    """

    payload: np.ndarray
    mins: np.ndarray
    scales: np.ndarray
    shape: tuple[int, ...]
    config: QuantConfig

    @property
    def nbytes(self) -> int:
        """Bytes that must cross an interconnect to move this tensor."""
        return int(self.payload.nbytes + self.mins.nbytes + self.scales.nbytes)


def _move_group_dim(shape: tuple[int, ...], group_dim: int) -> int:
    """Normalise ``group_dim`` to a positive axis index for ``shape``."""
    ndim = len(shape)
    axis = group_dim if group_dim >= 0 else ndim + group_dim
    if not 0 <= axis < ndim:
        raise QuantizationError(f"group_dim {group_dim} invalid for shape {shape}")
    return axis


def compress(tensor: np.ndarray, config: QuantConfig) -> QuantizedTensor:
    """Quantize ``tensor`` (any float dtype, any shape) per Algorithm 2."""
    if tensor.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    data = np.asarray(tensor, dtype=np.float32)
    axis = _move_group_dim(data.shape, config.group_dim)

    # Phase 1 — pad: move the grouped axis last, pad it to a multiple of
    # group_size (padding replicates the edge value so it never stretches
    # the group's min/max range).
    moved = np.moveaxis(data, axis, -1)
    length = moved.shape[-1]
    g = config.group_size
    pad = (-length) % g
    if pad:  # reach: input: a length that is not a multiple of the group size (tests/test_quant_groupwise.py::test_roundtrip_shape_preserved)
        moved = np.concatenate([moved, np.repeat(moved[..., -1:], pad, axis=-1)], axis=-1)
    groups = moved.reshape(-1, g)

    # Phase 2 — per-group min/max.
    mins = groups.min(axis=1, keepdims=True)
    maxs = groups.max(axis=1, keepdims=True)
    scales = maxs - mins
    # Constant groups (scale 0) map every element to code 0.
    safe = np.where(scales == 0, 1.0, scales)

    # Phase 3 — normalise (Eq. 10) and clamp.
    qmax = config.levels - 1
    codes = np.rint((groups - mins) / safe * qmax)
    np.clip(codes, 0, qmax, out=codes)
    codes = codes.astype(np.uint8)

    # Phase 4 — pack: fold `codes_per_byte` codes into each byte.
    cpb = config.codes_per_byte
    if g % cpb:
        raise QuantizationError(
            f"group_size {g} must be a multiple of codes-per-byte {cpb}"
        )
    folded = codes.reshape(groups.shape[0], g // cpb, cpb)
    shifts = np.arange(cpb, dtype=np.uint8) * config.bits
    packed = np.bitwise_or.reduce(folded << shifts, axis=-1).astype(np.uint8)

    return QuantizedTensor(
        payload=packed,
        mins=mins.astype(np.float32).ravel(),
        scales=scales.astype(np.float32).ravel(),
        shape=data.shape,
        config=config,
    )


def decompress(qt: QuantizedTensor) -> np.ndarray:
    """Reverse :func:`compress` (Eq. 11); returns float32 of ``qt.shape``."""
    config = qt.config
    cpb = config.codes_per_byte
    g = config.group_size
    qmax = config.levels - 1

    # Unpack: each byte expands back into cpb codes.
    shifts = np.arange(cpb, dtype=np.uint8) * config.bits
    mask = np.uint8(qmax)
    codes = ((qt.payload[..., None] >> shifts) & mask).reshape(-1, g)

    # De-normalise (Eq. 11).
    values = codes.astype(np.float32) / qmax * qt.scales[:, None] + qt.mins[:, None]

    # Un-pad and restore the original axis order.
    axis = _move_group_dim(qt.shape, config.group_dim)
    moved_shape = list(qt.shape)
    moved_shape.append(moved_shape.pop(axis))
    length = moved_shape[-1]
    padded_len = length + ((-length) % g)
    values = values.reshape(*moved_shape[:-1], padded_len)[..., :length]
    return np.moveaxis(values, -1, axis)
