"""Output-quality metrics under quantization.

The paper treats 4-bit group-wise quantization as accuracy-neutral (citing
FlexGen's results); this module provides the tooling to *check* that claim
on the executable models: logit drift, top-k agreement, and KV-cache-
quantization sensitivity, all computed by running the same inputs through
a reference model and a policy-quantized one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.functional import FunctionalEngine
from repro.models.layers import softmax
from repro.models.transformer import KVCache, Transformer, TransformerWeights
from repro.offload.policy import OffloadPolicy


@dataclass(frozen=True)
class QualityReport:
    """Divergence of a quantized run from the fp32 reference."""

    logit_mae: float
    top1_agreement: float
    topk_overlap: float
    kl_divergence: float


def _reference_logits(
    weights: TransformerWeights, prompt_ids: np.ndarray
) -> np.ndarray:
    model = Transformer(weights)
    cache = KVCache(weights.config, prompt_ids.shape[0], capacity=prompt_ids.shape[1])
    return model.forward(prompt_ids, cache)


def _policy_logits(
    weights: TransformerWeights, policy: OffloadPolicy, prompt_ids: np.ndarray
) -> np.ndarray:
    engine = FunctionalEngine(weights=weights, policy=policy)
    cache = KVCache(weights.config, prompt_ids.shape[0], capacity=prompt_ids.shape[1])
    return engine.forward(prompt_ids, cache)


def compare_logits(
    reference: np.ndarray, candidate: np.ndarray, k: int = 5
) -> QualityReport:
    """All quality metrics between two (batch, vocab) logit tensors."""
    if reference.shape != candidate.shape:
        raise ValueError("logit shapes must match")
    ref64 = reference.astype(np.float64)
    cand64 = candidate.astype(np.float64)
    mae = float(np.mean(np.abs(ref64 - cand64)))

    top1 = float((reference.argmax(-1) == candidate.argmax(-1)).mean())

    k = min(k, reference.shape[-1])
    ref_topk = np.argsort(reference, axis=-1)[:, -k:]
    cand_topk = np.argsort(candidate, axis=-1)[:, -k:]
    overlaps = [
        len(set(r.tolist()) & set(c.tolist())) / k
        for r, c in zip(ref_topk, cand_topk)
    ]
    topk = float(np.mean(overlaps))

    p = softmax(ref64)
    q = softmax(cand64)
    kl = float(np.mean(np.sum(p * (np.log(p + 1e-12) - np.log(q + 1e-12)), axis=-1)))
    return QualityReport(
        logit_mae=mae, top1_agreement=top1, topk_overlap=topk, kl_divergence=kl
    )


def evaluate_policy_quality(
    weights: TransformerWeights,
    policy: OffloadPolicy,
    prompt_ids: np.ndarray,
    k: int = 5,
) -> QualityReport:
    """Run the prompt through reference and policy engines and compare."""
    reference = _reference_logits(weights, prompt_ids)
    candidate = _policy_logits(weights, policy, prompt_ids)
    return compare_logits(reference, candidate, k=k)


def bits_sweep(
    weights: TransformerWeights,
    prompt_ids: np.ndarray,
    bits_options: tuple[int, ...] = (8, 4, 2),
    group_size: int = 32,
    target: str = "weights",
) -> dict[int, QualityReport]:
    """Quality vs quantization width for weights or the KV cache."""
    from repro.quant.config import QuantConfig

    if target not in ("weights", "kv"):
        raise ValueError("target must be 'weights' or 'kv'")
    out: dict[int, QualityReport] = {}
    batch = prompt_ids.shape[0]
    for bits in bits_options:
        quant = QuantConfig(bits=bits, group_size=group_size)
        policy = OffloadPolicy(
            wg=0.0 if target == "weights" else 1.0,
            hg=1.0,
            attention_on_cpu=True,
            weight_quant=quant if target == "weights" else None,
            kv_quant=quant if target == "kv" else None,
            gpu_batch_size=batch,
            num_gpu_batches=1,
        )
        out[bits] = evaluate_policy_quality(weights, policy, prompt_ids)
    return out
