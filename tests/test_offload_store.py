import pytest

from repro.errors import MemoryCapacityError
from repro.hardware import small_test_platform
from repro.offload import ManagedTensor, TensorStore, TransferEngine
from repro.units import MIB


@pytest.fixture
def store():
    return TensorStore(small_test_platform())


def test_register_charges_pool(store):
    store.register(ManagedTensor("w", 10 * MIB, "gpu0"))
    assert store.platform.pools["gpu0"].used == 10 * MIB


def test_register_duplicate_rejected(store):
    store.register(ManagedTensor("w", 1, "gpu0"))
    with pytest.raises(ValueError, match="already registered"):
        store.register(ManagedTensor("w", 1, "cpu"))


def test_capacity_enforced(store):
    cap = store.platform.pools["gpu0"].capacity
    with pytest.raises(MemoryCapacityError):
        store.register(ManagedTensor("big", cap + 1, "gpu0"))


def test_transfer_engine_charge_without_tensor(store):
    engine = TransferEngine(store.platform)
    t = engine.charge("cpu", "gpu0", 16 * MIB, "kv_cache")
    assert t > 0
    assert engine.ledger.bytes_moved == {("cpu", "gpu0", "kv_cache"): 16 * MIB}
    assert engine.charge("cpu", "cpu", 5, "x") == 0.0
