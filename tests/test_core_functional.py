import numpy as np
import pytest

from repro.core import FunctionalEngine
from repro.errors import MemoryCapacityError
from repro.hardware import small_test_platform
from repro.models import Transformer, TransformerWeights, get_model
from repro.offload import OffloadPolicy
from repro.quant import QuantConfig
from repro.quant.groupwise import compress


@pytest.fixture(scope="module")
def weights():
    return TransformerWeights.random(get_model("tiny-2l"), np.random.default_rng(7))


@pytest.fixture(scope="module")
def reference(weights):
    return Transformer(weights)


def policy(**kw):
    base = dict(wg=0.5, hg=1.0, attention_on_cpu=True,
                gpu_batch_size=2, num_gpu_batches=1)
    base.update(kw)
    return OffloadPolicy(**base)


def prompt(rng=None):
    rng = rng or np.random.default_rng(3)
    return rng.integers(0, 256, size=(2, 6))


def test_offloaded_run_bit_identical_without_quant(weights, reference):
    """Moving tensors through the offloading runtime must not change the
    math: greedy outputs are bit-identical to the reference model."""
    ids = prompt()
    expected = reference.generate(ids.copy(), 5)
    engine = FunctionalEngine(weights=weights, policy=policy())
    result = engine.generate(ids.copy(), 5)
    assert np.array_equal(result.token_ids, expected)


def test_fully_offloaded_still_identical(weights, reference):
    ids = prompt()
    expected = reference.generate(ids.copy(), 4)
    engine = FunctionalEngine(weights=weights, policy=policy(wg=0.0))
    assert np.array_equal(engine.generate(ids.copy(), 4).token_ids, expected)


def test_quantized_weights_change_nothing_structural(weights):
    """8-bit weights: outputs may differ from fp32 but the run completes
    and most tokens agree on a tiny random model."""
    ids = prompt()
    ref = FunctionalEngine(weights=weights, policy=policy(wg=0.0)).generate(ids.copy(), 6)
    q = FunctionalEngine(
        weights=weights,
        policy=policy(wg=0.0, weight_quant=QuantConfig(bits=8, group_size=32)),
    ).generate(ids.copy(), 6)
    # Random tiny models have near-tied logits, so argmax flips easily;
    # require structural sanity plus non-trivial agreement.
    assert q.token_ids.shape == ref.token_ids.shape
    assert (ref.token_ids == q.token_ids).mean() >= 0.3


def test_quantized_weights_move_fewer_bytes(weights):
    ids = prompt()
    plain = FunctionalEngine(weights=weights, policy=policy(wg=0.0)).generate(ids.copy(), 3)
    quant = FunctionalEngine(
        weights=weights,
        policy=policy(wg=0.0, weight_quant=QuantConfig(bits=4, group_size=32)),
    ).generate(ids.copy(), 3)
    assert quant.traffic_by_category["weights"] < plain.traffic_by_category["weights"] / 2
    assert quant.simulated_seconds < plain.simulated_seconds


def test_resident_weights_no_traffic(weights):
    ids = prompt()
    result = FunctionalEngine(weights=weights, policy=policy(wg=1.0)).generate(ids.copy(), 3)
    assert result.traffic_by_category.get("weights", 0.0) == 0.0


def test_gpu_attention_streams_kv(weights):
    ids = prompt()
    result = FunctionalEngine(
        weights=weights, policy=policy(attention_on_cpu=False)
    ).generate(ids.copy(), 3)
    assert result.traffic_by_category.get("kv_cache", 0.0) > 0


def test_cpu_attention_no_kv_traffic(weights):
    ids = prompt()
    result = FunctionalEngine(weights=weights, policy=policy()).generate(ids.copy(), 3)
    assert result.traffic_by_category.get("kv_cache", 0.0) == 0.0


def test_kv_quant_error_bounded(weights):
    """KV stored 8-bit: logits drift but generation still completes with
    mostly-agreeing tokens on the tiny model."""
    ids = prompt()
    ref = FunctionalEngine(weights=weights, policy=policy()).generate(ids.copy(), 6)
    kvq = FunctionalEngine(
        weights=weights,
        policy=policy(kv_quant=QuantConfig(bits=8, group_size=16)),
    ).generate(ids.copy(), 6)
    assert (ref.token_ids == kvq.token_ids).mean() >= 0.5


def test_peak_gpu_accounting_lower_when_offloaded(weights):
    ids = prompt()
    resident = FunctionalEngine(weights=weights, policy=policy(wg=1.0))
    offloaded = FunctionalEngine(weights=weights, policy=policy(wg=0.0))
    resident.generate(ids.copy(), 2)
    offloaded.generate(ids.copy(), 2)
    assert offloaded._peak_gpu < resident._peak_gpu


def test_capacity_error_on_tiny_gpu(weights):
    tiny = small_test_platform(gpu_memory=200_000)  # 200 KB GPU
    with pytest.raises(MemoryCapacityError):
        FunctionalEngine(weights=weights, policy=policy(wg=1.0), platform=tiny)


def test_deterministic_across_runs(weights):
    ids = prompt()
    a = FunctionalEngine(weights=weights, policy=policy()).generate(ids.copy(), 4)
    b = FunctionalEngine(weights=weights, policy=policy()).generate(ids.copy(), 4)
    assert np.array_equal(a.token_ids, b.token_ids)
    assert a.simulated_seconds == pytest.approx(b.simulated_seconds)


def test_quantized_kv_charged_at_stored_size(weights):
    """With GPU attention the cache streams up at its stored size, like
    the weights: a 4-bit KV cache moves the compressed bytes (codes plus
    per-group min/scale), not the fp32 arrays it decompresses to."""
    ids = prompt()
    kv4 = QuantConfig(bits=4, group_size=16)
    plain = FunctionalEngine(
        weights=weights, policy=policy(attention_on_cpu=False)
    ).generate(ids.copy(), 4)
    quant = FunctionalEngine(
        weights=weights, policy=policy(attention_on_cpu=False, kv_quant=kv4)
    ).generate(ids.copy(), 4)
    row = np.zeros((1, weights.config.head_dim), dtype=np.float32)
    ratio = compress(row, kv4).nbytes / row.nbytes
    assert quant.traffic_by_category["kv_cache"] < plain.traffic_by_category["kv_cache"]
    assert quant.traffic_by_category["kv_cache"] == pytest.approx(
        plain.traffic_by_category["kv_cache"] * ratio
    )
    assert quant.traffic_by_category["weights"] == plain.traffic_by_category["weights"]
    assert quant.simulated_seconds < plain.simulated_seconds
