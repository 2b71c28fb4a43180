"""Group-wise min/max quantization (paper Algorithm 2, Eqs. 10-11).

This is a real, vectorized implementation: tensors are padded, grouped,
min/max-normalised into ``2^b - 1`` levels, clamped, and bit-packed (two
4-bit codes per byte).  Decompression reverses the pipeline (Eq. 11).  The
paper's performance model charges its three dominant phases — min/max scan,
normalisation, post-processing copy — and those phases correspond one-to-one
to stages of :func:`compress`.
"""

from repro.quant.config import QuantConfig
from repro.quant.groupwise import QuantizedTensor, compress, decompress

__all__ = [
    "QuantConfig",
    "QuantizedTensor",
    "compress",
    "decompress",
]
