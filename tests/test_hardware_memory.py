import pytest

from repro.errors import MemoryCapacityError
from repro.hardware.memory import MemoryPool


@pytest.fixture
def pool() -> MemoryPool:
    return MemoryPool(name="gpu0", capacity=1000)


def test_allocate_and_free(pool):
    pool.allocate("a", 400)
    assert pool.used == 400
    assert pool.free == 600


def test_overflow_raises_with_details(pool):
    pool.allocate("a", 900)
    with pytest.raises(MemoryCapacityError) as exc:
        pool.allocate("b", 200)
    assert exc.value.pool == "gpu0"
    assert exc.value.requested == 200
    assert exc.value.available == 100


def test_duplicate_handle_rejected(pool):
    pool.allocate("a", 1)
    with pytest.raises(ValueError, match="already allocated"):
        pool.allocate("a", 1)


def test_fractional_bytes_round_up(pool):
    pool.allocate("half", 0.5)
    assert pool.used == 1


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        MemoryPool(name="bad", capacity=0)


def test_negative_allocation_rejected(pool):
    with pytest.raises(ValueError):
        pool.allocate("neg", -5)
