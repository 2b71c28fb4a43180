"""JSON serialization of policies (what ``repro plan --save`` writes)."""

from __future__ import annotations

import json
from typing import Any

from repro.offload.policy import OffloadPolicy
from repro.quant.config import QuantConfig

SCHEMA_VERSION = 1


def quant_to_dict(quant: QuantConfig | None) -> dict[str, Any] | None:
    if quant is None:
        return None
    return {
        "bits": quant.bits,
        "group_size": quant.group_size,
        "group_dim": quant.group_dim,
    }


def policy_to_dict(policy: OffloadPolicy) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "wg": policy.wg,
        "cg": policy.cg,
        "hg": policy.hg,
        "attention_on_cpu": policy.attention_on_cpu,
        "weight_quant": quant_to_dict(policy.weight_quant),
        "kv_quant": quant_to_dict(policy.kv_quant),
        "gpu_batch_size": policy.gpu_batch_size,
        "num_gpu_batches": policy.num_gpu_batches,
        "quantize_resident_weights": policy.quantize_resident_weights,
    }


def policy_to_json(policy: OffloadPolicy, indent: int | None = 2) -> str:
    return json.dumps(policy_to_dict(policy), indent=indent)
