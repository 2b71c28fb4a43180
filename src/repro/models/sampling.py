"""Token sampling strategies for the executable model."""

from __future__ import annotations

import numpy as np

from repro.models.layers import softmax


def greedy_sample(logits: np.ndarray) -> np.ndarray:
    """Argmax over the vocabulary. ``logits``: (batch, vocab)."""
    if logits.ndim != 2:
        raise ValueError("logits must be (batch, vocab)")
    return logits.argmax(axis=-1)


def temperature_sample(  # reach: tests/test_models_sampling_tokenizer.py::test_temperature_sampling_respects_distribution
    logits: np.ndarray, temperature: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample from ``softmax(logits / temperature)`` per batch row."""
    if logits.ndim != 2:
        raise ValueError("logits must be (batch, vocab)")
    if temperature <= 0:
        raise ValueError("temperature must be > 0; use greedy_sample for 0")
    probs = softmax(logits / temperature, axis=-1)
    # Vectorized inverse-CDF sampling: one uniform per row.
    cdf = probs.cumsum(axis=-1)
    u = rng.random((logits.shape[0], 1))
    return (cdf < u).sum(axis=-1).clip(0, logits.shape[1] - 1)
