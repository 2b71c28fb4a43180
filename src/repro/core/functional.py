"""Functional engine: real NumPy inference through the offloading runtime.

It runs Algorithm 1's zig-zag block for real: the prompt splits into the
policy's ``num_gpu_batches`` batches, and each layer sweep fetches the
layer's parameters once for all of them, so weight traffic amortises over
the block exactly as on FlexGen.

Everything here is *actually executed*: weights are registered in a
:class:`~repro.offload.store.TensorStore` against byte-accurate memory
pools, the offloaded share is stored (optionally group-wise quantized —
really packed to 4/8-bit) in the host pool, streamed through the
:class:`~repro.offload.transfer.TransferEngine` on use, de-quantized, and
run through the reference NumPy transformer kernels.  The KV cache is
optionally stored quantized, so quantization error propagates into the
logits exactly as it would on the real system, and the link is charged
for weights and KV at their stored (possibly compressed) size.

This is the layer that proves the policies *work*, not just that they are
fast: tests assert that a no-quantization offloaded run is bit-identical
to the plain :class:`~repro.models.Transformer`, and that quantized runs
stay within the quantizer's error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.hardware.platform import Platform, small_test_platform
from repro.models.config import ModelConfig
from repro.models.layers import layer_norm, mlp, self_attention, split_heads
from repro.models.sampling import greedy_sample, temperature_sample
from repro.models.transformer import KVCache, TransformerWeights
from repro.offload.policy import OffloadPolicy
from repro.offload.store import TensorStore
from repro.offload.tensor import ManagedTensor
from repro.offload.transfer import TransferEngine
from repro.quant.groupwise import QuantizedTensor, compress, decompress


@dataclass(frozen=True)
class FunctionalRunResult:
    """Output of a functional generation run."""

    token_ids: np.ndarray
    simulated_seconds: float
    peak_gpu_bytes: int
    traffic_by_category: dict[str, float]


@dataclass
class FunctionalEngine:
    """Executes a tiny model under an offloading policy, for real.

    Weight placement is at layer granularity: the first ``round(wg * l)``
    layers are GPU-resident (fp16-equivalent fp32 arrays), the rest live in
    the host pool — compressed when the policy quantizes weights — and are
    streamed in per use.
    """

    weights: TransformerWeights
    policy: OffloadPolicy
    platform: Platform = field(default_factory=small_test_platform)

    def __post_init__(self) -> None:
        self.config: ModelConfig = self.weights.config
        self.store = TensorStore(self.platform)
        self.transfer = TransferEngine(self.platform)
        self.gpu = self.platform.gpus[0].name
        self.cpu = self.platform.cpu.name
        self._clock = 0.0
        self._resident_layers = round(self.policy.wg * self.config.num_layers)
        self._register_weights()
        # Nothing allocates after registration, so this is the run's peak.
        self._peak_gpu = self.platform.pools[self.gpu].used

    # -- setup -----------------------------------------------------------------

    def _register_weights(self) -> None:
        # Embeddings always GPU-resident (small).
        self.store.register(
            ManagedTensor.from_array("embed", self.weights.embed, self.gpu, pinned=True)
        )
        self.store.register(
            ManagedTensor.from_array(
                "lm_head", self.weights.lm_head, self.gpu, pinned=True
            )
        )
        for li, lw in enumerate(self.weights.layers):
            resident = li < self._resident_layers
            device = self.gpu if resident else self.cpu
            for pname, array in lw.as_dict().items():
                name = f"layer{li}.{pname}"
                if not resident and self.policy.weight_quant and array.ndim >= 2:
                    qt = compress(array, self.policy.weight_quant)
                    self.store.register(
                        ManagedTensor.from_quantized(name, qt, device, pinned=True)
                    )
                else:
                    self.store.register(
                        ManagedTensor.from_array(name, array, device, pinned=True)
                    )

    # -- weight access -----------------------------------------------------------

    def _fetch(self, name: str) -> np.ndarray:
        """Materialize a parameter on the GPU, charging simulated time."""
        tensor = self.store.get(name)
        if tensor.device != self.gpu:
            # Wire time at the stored (possibly compressed) size.
            self._clock += self.transfer.charge(
                tensor.device, self.gpu, tensor.nbytes, "weights"
            )
        payload = tensor.payload
        if isinstance(payload, QuantizedTensor):
            return decompress(payload)
        assert isinstance(payload, np.ndarray)
        return payload

    def _layer_params(self, li: int) -> dict[str, np.ndarray]:
        return {
            pname: self._fetch(f"layer{li}.{pname}")
            for pname in self.weights.layers[li].as_dict()
        }

    # -- KV handling -----------------------------------------------------------

    def _maybe_quantize_kv(
        self, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Round-trip new KV entries through the quantizer when the policy
        stores the cache compressed (the stored value is the quantized one,
        so the error feeds back into later attention)."""
        q = self.policy.kv_quant
        if q is None:
            return k, v
        return (
            decompress(compress(k, q)),
            decompress(compress(v, q)),
        )

    # -- forward ---------------------------------------------------------------

    def _sweep(
        self, token_batches: list[np.ndarray], caches: list[KVCache]
    ) -> np.ndarray:
        """One zig-zag layer sweep over a block of batches (Algorithm 1).

        Each layer's parameters are fetched once and applied to every
        batch in turn — the weight reuse the schedule exists for.  Returns
        the batches' last-position logits, stacked in batch order.
        """
        cfg = self.config
        embed = self._fetch("embed")
        xs = [embed[ids] for ids in token_batches]
        for li in range(cfg.num_layers):
            p = self._layer_params(li)
            for b, cache in enumerate(caches):
                x = xs[b]
                normed = layer_norm(x, p["ln1_g"], p["ln1_b"])
                q = split_heads(normed @ p["wq"], cfg.num_heads)
                k_new = split_heads(normed @ p["wk"], cfg.num_heads)
                v_new = split_heads(normed @ p["wv"], cfg.num_heads)
                k_new, v_new = self._maybe_quantize_kv(k_new, v_new)
                cache.append(li, k_new, v_new)
                last = li == cfg.num_layers - 1
                seen = len(cache) + (0 if last else k_new.shape[2])
                k, v = cache.get(li, upto=seen)
                # KV traffic accounting: with CPU attention the cache never
                # crosses the link; with GPU attention the old entries
                # stream up at their stored size.
                if not self.policy.attention_on_cpu:
                    kv_bytes = int(k.nbytes) + int(v.nbytes)
                    kvq = self.policy.kv_quant
                    if kvq is not None:
                        # compress() keeps group_size / codes_per_byte code
                        # bytes plus a float32 min and scale per group.
                        length = k.shape[kvq.group_dim]
                        groups = k.size // length * -(-length // kvq.group_size)
                        kv_bytes = 2 * groups * (
                            kvq.group_size // kvq.codes_per_byte + 8
                        )
                    self._clock += self.transfer.charge(
                        self.cpu, self.gpu, kv_bytes, "kv_cache"
                    )
                attn = self_attention(q, k, v, causal_mask=True) @ p["wo"]
                x = x + attn
                xs[b] = x + mlp(
                    layer_norm(x, p["ln2_g"], p["ln2_b"]),
                    p["w_in"], p["b_in"], p["w_out"], p["b_out"],
                )
        lm_head = self._fetch("lm_head")
        return np.concatenate([x[:, -1, :] @ lm_head for x in xs])

    def forward(self, token_ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """Offloaded forward pass of one batch; numerically equals the
        reference model up to quantization error."""
        if token_ids.ndim != 2:
            raise ConfigError("token_ids must be (batch, new_len)")
        return self._sweep([token_ids], [cache])

    def generate(
        self,
        prompt_ids: np.ndarray,
        gen_len: int,
        rng: np.random.Generator | None = None,
        temperature: float = 0.0,
    ) -> FunctionalRunResult:
        """Prefill + autoregressive decode under the policy.

        The prompt rows split into ``policy.num_gpu_batches`` batches that
        sweep the layers together; with more than one batch the block
        must hold exactly ``num_gpu_batches * gpu_batch_size`` rows.
        """
        if gen_len <= 0:
            raise ConfigError("gen_len must be positive")
        k = self.policy.num_gpu_batches
        rows, s = prompt_ids.shape
        if k > 1 and rows != k * self.policy.gpu_batch_size:
            raise ConfigError(
                f"block expects {k * self.policy.gpu_batch_size} sequences, "
                f"got {rows}"
            )
        caches = [
            KVCache(self.config, rows // k, capacity=s + gen_len) for _ in range(k)
        ]
        out = np.empty((rows, gen_len), dtype=np.int64)
        logits = self._sweep(np.split(prompt_ids, k), caches)
        for t in range(gen_len):
            if temperature > 0:
                if rng is None:
                    raise ConfigError("temperature sampling requires an rng")
                nxt = temperature_sample(logits, temperature, rng)
            else:
                nxt = greedy_sample(logits)
            out[:, t] = nxt
            if t + 1 < gen_len:
                logits = self._sweep(np.split(nxt[:, None], k), caches)
        traffic = {}
        for (src, dst, cat), nbytes in self.transfer.bytes_moved.items():
            traffic[cat] = traffic.get(cat, 0.0) + nbytes
        return FunctionalRunResult(
            token_ids=out,
            simulated_seconds=self._clock,
            peak_gpu_bytes=self._peak_gpu,
            traffic_by_category=traffic,
        )
