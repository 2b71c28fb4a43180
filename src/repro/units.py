"""Unit helpers: byte sizes, rates and dtype widths.

Everything in this package is expressed in *bytes*, *seconds* and
*tokens/second*.  These helpers keep magic numbers out of the code and make
call sites read like the paper's text (``55 * GB``, ``64 * GB_PER_S``).

The paper mixes decimal (GB) and binary (GiB) units loosely, as systems
papers do; we standardise on decimal GB = 1e9 bytes, which is what PCIe and
HBM bandwidth figures use, and provide GiB for memory-capacity contexts.
"""

from __future__ import annotations

KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

KIB = 2**10
MIB = 2**20
GIB = 2**30
TIB = 2**40

#: Convenience aliases for bandwidths (bytes / second).
GB_PER_S = GB
MB_PER_S = MB

#: FLOP-rate aliases.
GFLOPS = 10**9
TFLOPS = 10**12

#: Clock-rate aliases.
MHZ = 10**6
GHZ = 10**9

#: Width in bytes of the element types used by the inference engine.
DTYPE_BYTES = {
    "fp32": 4,
    "fp16": 2,
    "bf16": 2,
    "int8": 1,
    "int4": 0.5,
}


def dtype_bytes(name: str) -> float:
    """Return the storage width in bytes of ``name``.

    ``int4`` intentionally returns ``0.5``: packed 4-bit payloads occupy half
    a byte per element and all capacity math in this package tolerates
    fractional per-element widths (totals are rounded up at allocation time).
    """
    try:
        return DTYPE_BYTES[name]
    except KeyError:
        raise KeyError(
            f"unknown dtype {name!r}; expected one of {sorted(DTYPE_BYTES)}"
        ) from None
