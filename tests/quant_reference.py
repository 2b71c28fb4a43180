"""Reference helpers the quantizer tests share."""

import numpy as np

from repro.quant import QuantConfig, compress, decompress


def roundtrip(tensor: np.ndarray, config: QuantConfig) -> np.ndarray:
    """Compress then decompress, as a tensor crossing the interconnect in
    compressed form is."""
    return decompress(compress(tensor, config))


def roundtrip_error_bound(config: QuantConfig, tensor: np.ndarray) -> float:
    """Analytic worst-case error: half a quantization step per group.

    For group-wise min/max quantization the error of any element is at most
    ``(max - min) / (2 * (2^b - 1))`` of its group.
    """
    data = np.asarray(tensor, dtype=np.float64)
    axis = config.group_dim if config.group_dim >= 0 else data.ndim + config.group_dim
    moved = np.moveaxis(data, axis, -1)
    length = moved.shape[-1]
    pad = (-length) % config.group_size
    if pad:
        moved = np.concatenate(
            [moved, np.repeat(moved[..., -1:], pad, axis=-1)], axis=-1
        )
    groups = moved.reshape(-1, config.group_size)
    ranges = groups.max(axis=1) - groups.min(axis=1)
    return float(ranges.max()) / (2 * (config.levels - 1))
