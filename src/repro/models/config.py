"""Model configuration: the structural parameters of Table 2.

``h1`` is the hidden size and ``h2`` the intermediate (MLP) size; the paper
uses exactly these two symbols, and the per-layer weight count is

    num_weights = 4*h1^2 + 2*h1*h2          (paper §3.2)

— four h1 x h1 projections (Q, K, V, output) plus the two MLP matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """Structural description of a decoder-only transformer.

    Parameters
    ----------
    name:
        Registry name, e.g. ``"opt-30b"``.
    num_layers:
        ``l`` in the paper.
    hidden_size:
        ``h1``.
    intermediate_size:
        ``h2`` (4*h1 for OPT, ~2.7*h1 for LLaMA's gated MLP folded into the
        same two-matrix accounting the paper uses).
    num_heads:
        Attention head count; ``d_k = h1 / num_heads``.
    vocab_size:
        Output vocabulary (used by the executable model and for the
        embedding footprint).
    dtype:
        Storage dtype of the uncompressed weights ("fp16" at paper scale).
    """

    name: str
    num_layers: int
    hidden_size: int
    intermediate_size: int
    num_heads: int
    vocab_size: int = 50272
    dtype: str = "fp16"

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ConfigError(f"{self.name}: num_layers must be > 0")
        if self.hidden_size <= 0 or self.intermediate_size <= 0:
            raise ConfigError(f"{self.name}: hidden sizes must be > 0")
        if self.num_heads <= 0 or self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"{self.name}: num_heads must divide hidden_size "
                f"({self.hidden_size} % {self.num_heads} != 0)"
            )
        if self.vocab_size <= 0:
            raise ConfigError(f"{self.name}: vocab_size must be > 0")

    @property
    def head_dim(self) -> int:
        """``d_k`` — per-head dimension."""
        return self.hidden_size // self.num_heads

    @property
    def weights_per_layer(self) -> int:
        """``num_weights = 4*h1^2 + 2*h1*h2`` (paper §3.2)."""
        h1, h2 = self.hidden_size, self.intermediate_size
        return 4 * h1 * h1 + 2 * h1 * h2

    @property
    def total_weights(self) -> int:
        """Transformer-stack parameter count (embeddings excluded, as the
        paper's model does — they are a rounding error at 30B+ scale)."""
        return self.weights_per_layer * self.num_layers
