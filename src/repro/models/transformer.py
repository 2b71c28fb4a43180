"""An executable decoder-only transformer with an explicit KV cache.

This is the reference implementation the offloading engines are tested
against: running a tiny model through :class:`Transformer` directly must
produce bit-identical logits to running it through the offloading runtime
(which moves and optionally quantizes the same arrays between simulated
device pools).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.models.layers import layer_norm, mlp, self_attention, split_heads


@dataclass
class LayerWeights:
    """All parameters of one transformer layer (fp32 NumPy arrays)."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_in: np.ndarray
    b_in: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        """Name -> array view of every parameter (for offloading stores)."""
        return {k: v for k, v in self.__dict__.items()}


@dataclass
class TransformerWeights:
    """Embedding + per-layer weights for a whole model."""

    config: ModelConfig
    embed: np.ndarray
    lm_head: np.ndarray
    layers: list[LayerWeights]

    @classmethod
    def random(cls, config: ModelConfig, rng: np.random.Generator) -> "TransformerWeights":
        """Xavier-ish random initialisation (scale 1/sqrt(h1))."""
        h1, h2, v = config.hidden_size, config.intermediate_size, config.vocab_size
        scale = 1.0 / np.sqrt(h1)

        def mat(rows: int, cols: int) -> np.ndarray:
            return (rng.standard_normal((rows, cols)) * scale).astype(np.float32)

        layers = []
        for _ in range(config.num_layers):
            layers.append(
                LayerWeights(
                    wq=mat(h1, h1),
                    wk=mat(h1, h1),
                    wv=mat(h1, h1),
                    wo=mat(h1, h1),
                    w_in=mat(h1, h2),
                    b_in=np.zeros(h2, dtype=np.float32),
                    w_out=mat(h2, h1),
                    b_out=np.zeros(h1, dtype=np.float32),
                    ln1_g=np.ones(h1, dtype=np.float32),
                    ln1_b=np.zeros(h1, dtype=np.float32),
                    ln2_g=np.ones(h1, dtype=np.float32),
                    ln2_b=np.zeros(h1, dtype=np.float32),
                )
            )
        return cls(
            config=config,
            embed=mat(v, h1),
            lm_head=mat(h1, v),
            layers=layers,
        )


class KVCache:
    """Growable per-layer key/value cache.

    Semantics follow the paper's Figure 1: each generated token's K and V
    vectors are *concatenated* onto the cache, so the cache grows linearly
    with sequence length while attention compute grows quadratically.
    """

    def __init__(self, config: ModelConfig, batch: int, capacity: int) -> None:
        if capacity <= 0 or batch <= 0:
            raise ConfigError("KVCache: batch and capacity must be > 0")
        d = config.head_dim
        h = config.num_heads
        self._k = np.zeros((config.num_layers, batch, h, capacity, d), dtype=np.float32)
        self._v = np.zeros_like(self._k)
        self._len = 0
        self.capacity = capacity
        self.batch = batch

    def __len__(self) -> int:
        return self._len

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Concatenate new K/V (batch, heads, new_len, d) for ``layer``.

        The sequence-length counter advances when the *last* layer appends,
        so all layers must append the same number of tokens per step.
        """
        new = k.shape[2]
        if self._len + new > self.capacity:
            raise ConfigError(
                f"KVCache overflow: {self._len}+{new} > capacity {self.capacity}"
            )
        self._k[layer, :, :, self._len : self._len + new] = k
        self._v[layer, :, :, self._len : self._len + new] = v
        if layer == self._k.shape[0] - 1:
            self._len += new

    def get(self, layer: int, upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Views of the live K/V entries for ``layer``."""
        end = self._len if upto is None else upto
        return self._k[layer, :, :, :end], self._v[layer, :, :, :end]


class Transformer:
    """Reference forward pass with KV caching.

    ``forward`` processes any number of new tokens (prompt or single decode
    token) given the cache state, returning logits for the last position.
    """

    def __init__(self, weights: TransformerWeights) -> None:
        self.weights = weights
        self.config = weights.config

    def forward(self, token_ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """Run new tokens through the stack.

        Parameters
        ----------
        token_ids:
            (batch, new_len) int array of token ids.
        cache:
            KV cache holding all previously processed positions; updated
            in place.

        Returns
        -------
        (batch, vocab) logits for the final position.
        """
        cfg = self.config
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, new_len)")
        if token_ids.shape[0] != cache.batch:
            raise ValueError("batch mismatch between token_ids and cache")
        x = self.weights.embed[token_ids]  # (b, new, h1)
        for li, lw in enumerate(self.weights.layers):
            x = x + self._attention_block(x, lw, cache, li)
            x = x + mlp(
                layer_norm(x, lw.ln2_g, lw.ln2_b), lw.w_in, lw.b_in, lw.w_out, lw.b_out
            )
        return x[:, -1, :] @ self.weights.lm_head

    def _attention_block(
        self, x: np.ndarray, lw: LayerWeights, cache: KVCache, layer: int
    ) -> np.ndarray:
        cfg = self.config
        normed = layer_norm(x, lw.ln1_g, lw.ln1_b)
        q = split_heads(normed @ lw.wq, cfg.num_heads)
        k_new = split_heads(normed @ lw.wk, cfg.num_heads)
        v_new = split_heads(normed @ lw.wv, cfg.num_heads)
        cache.append(layer, k_new, v_new)
        # All layers see the same key length this step: live cache plus the
        # tokens appended for this layer (the length counter only advances
        # at the last layer).
        seen = len(cache) + (0 if layer == cfg.num_layers - 1 else k_new.shape[2])
        k, v = cache.get(layer, upto=seen)
        out = self_attention(q, k, v, causal_mask=True)
        return out @ lw.wo

    def generate(
        self,
        prompt_ids: np.ndarray,
        gen_len: int,
        rng: np.random.Generator | None = None,
        temperature: float = 0.0,
    ) -> np.ndarray:
        """Autoregressive generation: prefill then ``gen_len`` decode steps.

        Returns (batch, gen_len) generated ids.  Greedy when
        ``temperature == 0``.
        """
        from repro.models.sampling import greedy_sample, temperature_sample

        batch, s = prompt_ids.shape
        cache = KVCache(self.config, batch, capacity=s + gen_len)
        out = np.empty((batch, gen_len), dtype=np.int64)
        logits = self.forward(prompt_ids, cache)
        for t in range(gen_len):
            if temperature > 0:  # reach: tests/test_models_transformer.py::test_generation_temperature_reproducible
                if rng is None:
                    raise ValueError("temperature sampling requires an rng")
                nxt = temperature_sample(logits, temperature, rng)
            else:
                nxt = greedy_sample(logits)
            out[:, t] = nxt
            if t + 1 < gen_len:
                logits = self.forward(nxt[:, None], cache)
        return out
