"""Byte footprints of weights, KV cache and activations.

These are the sizes the paper's performance model consumes (Eqs. 17-19 and
the motivation numbers in §1/§3.1: 55 GB of weights and up to 157 GB of KV
cache for OPT-30B at s=64, n=128, bls=640).

KV-cache accounting follows the paper exactly:

    pf_kv_cache  = 2 * (s+1)      * h1 * bls        (Eq. 17, elements/layer)
    old_kv_cache = 2 * (s + n/2)  * h1 * bls        (Eq. 18, per-token avg)
    new_kv_cache = 2 *              h1 * bls        (Eq. 19, per token)

(the *elements* counts; multiply by dtype width for bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.units import dtype_bytes


@dataclass(frozen=True)
class ModelFootprint:
    """Footprint calculator binding a model to a workload shape.

    Parameters
    ----------
    config:
        The transformer.
    prompt_len:
        ``s`` — input sequence length.
    gen_len:
        ``n`` — tokens generated per prompt.
    block_size:
        ``bls`` — zig-zag block size (sequences in flight per layer pass).
    kv_dtype / weight_dtype / act_dtype:
        Storage dtypes; defaults follow the paper (fp16 everywhere unless a
        quantization policy overrides them).
    """

    config: ModelConfig
    prompt_len: int
    gen_len: int
    block_size: int
    weight_dtype: str = "fp16"
    kv_dtype: str = "fp16"
    act_dtype: str = "fp16"

    def __post_init__(self) -> None:
        if self.prompt_len <= 0 or self.gen_len <= 0 or self.block_size <= 0:
            raise ValueError("prompt_len, gen_len, block_size must all be > 0")

    # -- weights -------------------------------------------------------------

    @property
    def weight_bytes_per_layer(self) -> float:
        return self.config.weights_per_layer * dtype_bytes(self.weight_dtype)

    @property
    def total_weight_bytes(self) -> float:
        """All transformer weights (paper: 55 GB for OPT-30B fp16)."""
        return self.weight_bytes_per_layer * self.config.num_layers

    # -- KV cache -------------------------------------------------------------

    @property
    def kv_elements_per_token_per_layer(self) -> int:
        """K and V vectors for one token of every sequence in the block."""
        return 2 * self.config.hidden_size * self.block_size

    @property
    def kv_bytes_per_token_per_layer(self) -> float:
        return self.kv_elements_per_token_per_layer * dtype_bytes(self.kv_dtype)

    @property
    def prefill_kv_bytes_per_layer(self) -> float:
        """Eq. 17: KV populated by the prefill phase (s+1 tokens)."""
        return (self.prompt_len + 1) * self.kv_bytes_per_token_per_layer

    @property
    def avg_old_kv_bytes_per_layer(self) -> float:
        """Eq. 18 (single-token average): KV context mid-way through decode."""
        return (self.prompt_len + self.gen_len / 2) * self.kv_bytes_per_token_per_layer

    def kv_bytes_per_layer_at(self, token_idx):
        """Exact KV size before generating decode token ``token_idx`` (0-based).

        Accepts a scalar or a NumPy array of token indices (the vectorized
        cost path evaluates every decode token at once); the bound check
        covers both.
        """
        import numpy as np

        if isinstance(token_idx, np.ndarray):
            if token_idx.size and not (
                (token_idx >= 0).all() and (token_idx < self.gen_len).all()
            ):
                raise ValueError(
                    f"token indices outside [0, {self.gen_len})"
                )
        elif not 0 <= token_idx < self.gen_len:  # reach: tests/test_lp_coefficients.py::test_tab3_lp_coefficients_match_scalar_probes (a scalar token index)
            raise ValueError(f"token_idx {token_idx} outside [0, {self.gen_len})")
        return (self.prompt_len + 1 + token_idx) * self.kv_bytes_per_token_per_layer

    @property
    def peak_kv_bytes(self) -> float:
        """Total KV cache at the end of generation, all layers.

        Paper §1: reaches 157 GB for OPT-30B, s=64, n=128, bls=640.
        """
        return (
            (self.prompt_len + self.gen_len)
            * self.kv_bytes_per_token_per_layer
            * self.config.num_layers
        )

    # -- activations -----------------------------------------------------------

    @property
    def activation_bytes_per_layer(self) -> float:
        """Hidden state handed between layers for the whole block (decode:
        one token per sequence)."""
        return self.config.hidden_size * self.block_size * dtype_bytes(self.act_dtype)

    @property
    def prefill_activation_bytes_per_layer(self) -> float:
        return self.activation_bytes_per_layer * self.prompt_len

    # -- totals ------------------------------------------------------------------
