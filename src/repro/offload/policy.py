"""Offloading policy: one point in the search space both engines explore.

A policy fixes, per the paper's Table 3 columns:

* ``wg`` / ``cg`` / ``hg`` — fraction of weights / KV cache / hidden
  activations resident on GPU memory (the paper reports percentages).
* ``attention_on_cpu`` — whether the attention computation is offloaded to
  the CPU (FlexGen's default during decode) or runs on the GPU.
* ``weight_quant`` / ``kv_quant`` — optional group-wise quantization of the
  weights / KV cache crossing the interconnect (the decision LM-Offload's
  performance model makes).
* batch geometry — GPU batch size and the number of batches per zig-zag
  block (``bls = gpu_batch_size * num_gpu_batches``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError
from repro.quant.config import QuantConfig


@dataclass(frozen=True)
class OffloadPolicy:
    """Placement + quantization + batching decisions."""

    wg: float = 1.0
    cg: float = 0.0
    hg: float = 1.0
    attention_on_cpu: bool = True
    weight_quant: Optional[QuantConfig] = None
    kv_quant: Optional[QuantConfig] = None
    gpu_batch_size: int = 64
    num_gpu_batches: int = 1
    #: Store the GPU-resident weight share compressed too (ZeRO-Inference's
    #: 4-bit mode).  Saves GPU memory but pays per-use dequantization on
    #: the compute stream.
    quantize_resident_weights: bool = False
    #: Fraction of weights resident on *disk* (third offloading tier,
    #: FlexGen's --disk path).  Streams disk -> host -> GPU per use; only
    #: worthwhile when the model overflows host memory.  wg + wd <= 1.
    wd: float = 0.0

    def __post_init__(self) -> None:
        for name in ("wg", "cg", "hg", "wd"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"policy: {name} must be in [0, 1], got {v}")
        if self.wg + self.wd > 1.0 + 1e-9:
            raise ConfigError(
                f"policy: wg + wd must not exceed 1 (got {self.wg} + {self.wd})"
            )
        if self.gpu_batch_size <= 0 or self.num_gpu_batches <= 0:
            raise ConfigError("policy: batch geometry must be positive")
        if self.quantize_resident_weights and self.weight_quant is None:
            raise ConfigError(
                "policy: quantize_resident_weights requires weight_quant"
            )
        if self.attention_on_cpu and self.cg > 0.0:
            # With CPU attention the KV cache lives (entirely) in host
            # memory; a nonzero GPU share would never be touched.
            raise ConfigError(
                "policy: cg must be 0 when attention runs on the CPU "
                "(the KV cache stays in host memory)"
            )

    @property
    def wc(self) -> float:
        """Fraction of weights *not* GPU-resident (the paper's
        ``wc = 1 - wg``); includes any disk-resident share."""
        return 1.0 - self.wg

    @property
    def quantizes_weights(self) -> bool:
        return self.weight_quant is not None

    @property
    def quantizes_kv(self) -> bool:
        return self.kv_quant is not None

    def with_(self, **changes) -> "OffloadPolicy":
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line summary in the paper's table vocabulary."""
        quant = []
        if self.weight_quant:
            quant.append(f"W{self.weight_quant.bits}")
        if self.kv_quant:
            quant.append(f"KV{self.kv_quant.bits}")
        return (
            f"wg={self.wg:.0%} cg={self.cg:.0%} hg={self.hg:.0%} "
            f"attn={'cpu' if self.attention_on_cpu else 'gpu'} "
            f"quant={'+'.join(quant) or 'none'} "
            f"bsz={self.gpu_batch_size}x{self.num_gpu_batches}"
        )
