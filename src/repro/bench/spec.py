"""Speculation benchmark: where draft-tree decoding beats plain LM-Offload.

Sweeps context length (4k -> 128k) x acceptance rate ``alpha`` for the
speculative engine against the plain LM-Offload engine on the same
platform, pricing both through :class:`~repro.serving.costing.StepCostOracle`
— the identical machinery the serving/chaos/fleet drivers use — so every
cell in ``BENCH_spec.json`` is the price a serving step would actually
pay.  The payload is fully analytic (no wall clock, no RNG): two runs
with the same arguments are byte-identical, which CI pins with ``cmp``.

The sweep uses opt-6.7b at batch 1 — the TriForce single-stream
long-context scenario.  At 128k context the per-sequence KV cache is
~68 GB, which fits the A100 host's 240 GB; opt-30b would not (its 128k
KV alone is ~180 GB), so a bigger model here would just measure the
planner refusing to plan.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.obs.profiling import span
from repro.perfmodel.notation import Workload
from repro.perfmodel.speculation import SpecConfig

SCHEMA_VERSION = 1

#: Context sweep: 4k -> 128k, the regime where KV traffic goes from
#: comparable-to-weights to dominant (all multiples of the oracle's
#: 32-token bucket, so each context prices at exactly itself).
CONTEXTS = (4096, 16384, 65536, 131072)
QUICK_CONTEXTS = (4096, 65536)

ALPHAS = (0.5, 0.7, 0.9)
QUICK_ALPHAS = (0.7,)

DEFAULT_MODEL = "opt-6.7b"


def _oracle(engine, model, ctx: int):
    from repro.serving.costing import StepCostOracle

    return StepCostOracle(
        engine, model, num_gpu_batches=1, plan_prompt_len=ctx, plan_gen_len=32
    )


def _sweep_cell(model, base_oracle, ctx: int, alpha: float,
                spec: SpecConfig) -> dict[str, Any]:
    """Price one (context, alpha) cell: base vs speculative per-token
    decode seconds at concurrency 1, plus which tree prefix won."""
    from repro.baselines import SpecOffloadEngine
    from repro.hardware import single_a100

    engine = SpecOffloadEngine(single_a100(), spec=replace(spec, alpha=alpha))
    oracle = _oracle(engine, model, ctx)
    spec_s = oracle.decode_step_seconds(1, ctx)
    base_s = base_oracle.decode_step_seconds(1, ctx)

    # Introspection: rebuild the priced cost model (the oracle's
    # single-bucket workload at ctx) and ask the engine which depth won.
    policy, cpu_ctx = oracle.planned(1)
    wl = Workload(model, ctx, 2, policy.gpu_batch_size, policy.num_gpu_batches)
    cm = engine.cost_model(wl, policy, cpu_ctx)
    summary = engine.speculation_summary(cm)

    return {
        "context": ctx,
        "alpha": alpha,
        "base_step_s": base_s,
        "spec_step_s": spec_s,
        "base_tokens_per_s": 1.0 / base_s,
        "spec_tokens_per_s": 1.0 / spec_s,
        "speedup": base_s / spec_s,
        "chosen_depth": summary["chosen_depth"],
        "tokens_per_step": summary["tokens_per_step"],
    }


def run_spec_sweep(
    model_name: str = DEFAULT_MODEL,
    contexts: tuple[int, ...] | None = None,
    alphas: tuple[float, ...] | None = None,
    spec: SpecConfig | None = None,
    quick: bool = False,
) -> dict[str, Any]:
    """The full context x alpha sweep -> the JSON-ready payload."""
    from repro.core import LMOffloadEngine
    from repro.hardware import single_a100
    from repro.models import get_model

    contexts = contexts or (QUICK_CONTEXTS if quick else CONTEXTS)
    alphas = alphas or (QUICK_ALPHAS if quick else ALPHAS)
    spec = spec or SpecConfig()
    model = get_model(model_name)

    with span("spec.run"):
        cells: list[dict[str, Any]] = []
        for ctx in contexts:
            # One base plan per context, shared across the alpha axis.
            base_oracle = _oracle(LMOffloadEngine(single_a100()), model, ctx)
            for alpha in alphas:
                cells.append(_sweep_cell(model, base_oracle, ctx, alpha, spec))

        best = max(cells, key=lambda c: c["speedup"])
        long_ctx_wins = sum(
            1 for c in cells if c["context"] >= 65536 and c["speedup"] > 1.0
        )
        payload = {
            "schema_version": SCHEMA_VERSION,
            "model": model_name,
            "spec": spec.to_dict(),
            "sweep": {
                "contexts": list(contexts),
                "alphas": list(alphas),
                "batch": 1,
                "num_gpu_batches": 1,
            },
            "cells": cells,
            "comparison": {
                "best_speedup": best["speedup"],
                "best_cell": {"context": best["context"], "alpha": best["alpha"]},
                "long_context_wins": long_ctx_wins,
            },
        }
    return payload


def spec_rows(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten the payload into ``format_table`` rows."""
    return [
        {
            "ctx": c["context"],
            "alpha": c["alpha"],
            "base tok/s": f"{c['base_tokens_per_s']:.2f}",
            "spec tok/s": f"{c['spec_tokens_per_s']:.2f}",
            "speedup": f"{c['speedup']:.2f}x",
            "depth": c["chosen_depth"],
            "tok/step": f"{c['tokens_per_step']:.2f}",
        }
        for c in payload["cells"]
    ]
