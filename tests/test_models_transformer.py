import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import KVCache, Transformer, TransformerWeights, get_model


@pytest.fixture
def tiny(rng):
    return TransformerWeights.random(get_model("tiny-2l"), rng)


def test_random_weights_shapes(tiny):
    cfg = tiny.config
    lw = tiny.layers[0]
    assert lw.wq.shape == (cfg.hidden_size, cfg.hidden_size)
    assert lw.w_in.shape == (cfg.hidden_size, cfg.intermediate_size)
    assert tiny.embed.shape == (cfg.vocab_size, cfg.hidden_size)
    assert len(tiny.layers) == cfg.num_layers


def test_forward_logits_shape(tiny, rng):
    model = Transformer(tiny)
    cache = KVCache(tiny.config, batch=3, capacity=10)
    ids = rng.integers(0, 256, size=(3, 4))
    logits = model.forward(ids, cache)
    assert logits.shape == (3, tiny.config.vocab_size)
    assert len(cache) == 4


def test_incremental_decoding_matches_full_forward(tiny, rng):
    """The KV cache must make token-by-token decoding equal one-shot."""
    model = Transformer(tiny)
    ids = rng.integers(0, 256, size=(2, 6))

    full_cache = KVCache(tiny.config, 2, capacity=6)
    full_logits = model.forward(ids, full_cache)

    inc_cache = KVCache(tiny.config, 2, capacity=6)
    logits = None
    for t in range(6):
        logits = model.forward(ids[:, t : t + 1], inc_cache)
    assert np.allclose(full_logits, logits, atol=1e-4)


def test_generation_deterministic_greedy(tiny, rng):
    model = Transformer(tiny)
    ids = rng.integers(0, 256, size=(2, 5))
    a = model.generate(ids.copy(), 6)
    b = model.generate(ids.copy(), 6)
    assert np.array_equal(a, b)
    assert a.shape == (2, 6)


def test_generation_temperature_reproducible(tiny, rng):
    model = Transformer(tiny)
    ids = rng.integers(0, 256, size=(1, 4))
    a = model.generate(ids.copy(), 5, rng=np.random.default_rng(7), temperature=0.8)
    b = model.generate(ids.copy(), 5, rng=np.random.default_rng(7), temperature=0.8)
    assert np.array_equal(a, b)


def test_generation_requires_rng_for_temperature(tiny, rng):
    model = Transformer(tiny)
    ids = rng.integers(0, 256, size=(1, 3))
    with pytest.raises(ValueError):
        model.generate(ids, 2, temperature=0.5)


def test_cache_overflow_raises(tiny, rng):
    model = Transformer(tiny)
    cache = KVCache(tiny.config, 1, capacity=3)
    with pytest.raises(ConfigError, match="overflow"):
        model.forward(rng.integers(0, 256, size=(1, 4)), cache)


def test_cache_batch_mismatch(tiny, rng):
    model = Transformer(tiny)
    cache = KVCache(tiny.config, 2, capacity=4)
    with pytest.raises(ValueError, match="batch"):
        model.forward(rng.integers(0, 256, size=(3, 2)), cache)


def test_kv_cache_invalid_params(tiny):
    with pytest.raises(ConfigError):
        KVCache(tiny.config, batch=0, capacity=4)
    with pytest.raises(ConfigError):
        KVCache(tiny.config, batch=1, capacity=0)
