"""Property-based tests (hypothesis) on the quantizer and memory pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.errors import MemoryCapacityError
from repro.hardware.memory import MemoryPool
from repro.quant import QuantConfig
from tests.quant_reference import roundtrip, roundtrip_error_bound

finite_floats = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False, width=32
)


@given(
    data=arrays(
        dtype=np.float32,
        shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40),
        elements=finite_floats,
    ),
    bits=st.sampled_from([2, 4, 8]),
    group=st.sampled_from([8, 16, 64]),
)
@settings(max_examples=80, deadline=None)
def test_quant_roundtrip_bounded_error(data, bits, group):
    """For any finite tensor, the round-trip error never exceeds half a
    quantization step of its group's range."""
    cfg = QuantConfig(bits=bits, group_size=group)
    restored = roundtrip(data, cfg)
    assert restored.shape == data.shape
    bound = roundtrip_error_bound(cfg, data)
    assert np.abs(data.astype(np.float64) - restored).max() <= bound * (1 + 1e-5) + 1e-5


@given(
    data=arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 100)),
        elements=finite_floats,
    )
)
@settings(max_examples=50, deadline=None)
def test_quant_idempotent_on_quantized_values(data):
    """Quantizing an already-quantized tensor is a fixed point."""
    cfg = QuantConfig(bits=4, group_size=16)
    once = roundtrip(data, cfg)
    twice = roundtrip(once, cfg)
    assert np.allclose(once, twice, atol=1e-5)


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 9), st.integers(1, 200)),
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_memory_pool_conservation(ops):
    """used + free == capacity after any allocation sequence, used is
    always the sum of live allocations, and only an overflow is refused."""
    pool = MemoryPool(name="p", capacity=1000)
    live: dict[str, int] = {}
    for idx, size in ops:
        handle = f"h{idx}"
        if handle not in live:
            try:
                pool.allocate(handle, size)
                live[handle] = size
            except MemoryCapacityError:
                assert size > pool.capacity - sum(live.values())
        assert pool.used == sum(live.values())
        assert pool.used + pool.free == pool.capacity
