import pytest

from repro.units import (
    DTYPE_BYTES,
    GB,
    GIB,
    dtype_bytes,
)


def test_decimal_vs_binary_units_differ():
    assert GIB > GB
    assert GB == 10**9


def test_dtype_bytes_known_widths():
    assert dtype_bytes("fp32") == 4
    assert dtype_bytes("fp16") == 2
    assert dtype_bytes("int8") == 1


def test_dtype_bytes_int4_is_half_byte():
    assert dtype_bytes("int4") == 0.5


def test_dtype_bytes_unknown_raises():
    with pytest.raises(KeyError, match="unknown dtype"):
        dtype_bytes("fp8")


def test_all_dtypes_positive():
    assert all(v > 0 for v in DTYPE_BYTES.values())
