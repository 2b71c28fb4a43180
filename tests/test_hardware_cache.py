import pytest

from repro.hardware.cache import CacheHierarchy
from repro.units import MIB


@pytest.fixture
def cache() -> CacheHierarchy:
    return CacheHierarchy(llc_bytes=42 * MIB)


def test_zero_working_set_hits_compulsory_floor(cache):
    assert cache.miss_ratio(0, 1) == cache.compulsory_ratio


def test_miss_ratio_monotonic_in_working_set(cache):
    ratios = [cache.miss_ratio(ws, 1) for ws in (1 * MIB, 10 * MIB, 100 * MIB, 1000 * MIB)]
    assert ratios == sorted(ratios)


def test_miss_ratio_monotonic_in_co_runners(cache):
    ratios = [cache.miss_ratio(16 * MIB, c) for c in (1, 2, 4, 8, 16)]
    assert ratios == sorted(ratios)


def test_miss_ratio_bounded(cache):
    for ws in (0, 1 * MIB, 10_000 * MIB):
        for c in (1, 100):
            r = cache.miss_ratio(ws, c)
            assert cache.compulsory_ratio <= r <= 1.0


def test_invalid_inputs(cache):
    with pytest.raises(ValueError):
        cache.miss_ratio(-1, 1)
    with pytest.raises(ValueError):
        cache.miss_ratio(1, 0)
