"""What-if hardware sensitivity analysis.

The performance model makes hardware questions cheap to answer: *what if
the interconnect were PCIe 3/5 instead of 4?  What if the GPU had 80 GB?
What if host DRAM were twice as fast?*  This module sweeps such variants
and reports how the best policy and its throughput shift — the kind of
procurement analysis the paper's model enables but does not show.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.engine import Substrate
from repro.errors import PolicyError
from repro.hardware.platform import single_a100
from repro.offload.planner import PolicyPlanner
from repro.perfmodel.notation import Workload
from repro.units import GB
from repro.util.rng import seeded_rng

#: Named hardware variants: dotted HardwareParams overrides.
HARDWARE_VARIANTS: dict[str, dict[str, float]] = {
    "baseline-a100-pcie4": {},
    "pcie3-x16": {"pcie_bdw": 16 * GB},
    "pcie5-x16": {"pcie_bdw": 64 * GB},
    "a100-80gb": {"gpu_mem_capacity": 80 * GB},
    "h100-like": {
        "gpu_flops": 989e12,
        "gpu_mem_bdw": 3350 * GB,
        "gpu_mem_capacity": 80 * GB,
        "pcie_bdw": 64 * GB,
    },
    "fast-host-ddr5": {"cpu_mem_bdw": 400 * GB},
    "small-gpu-24gb": {"gpu_mem_capacity": 24 * GB},
}


#: Rates a sampled variant perturbs (capacities are contractual, rates
#: are what vendor datasheets overstate).
SAMPLED_FIELDS = ("pcie_bdw", "cpu_mem_bdw", "gpu_mem_bdw", "gpu_flops")


def sample_variants(
    n: int, seed: int = 0, spread: float = 0.15
) -> dict[str, dict[str, float]]:
    """``n`` Monte-Carlo hardware variants with log-normally jittered rates.

    Models procurement uncertainty: each sampled variant scales the
    bandwidth/FLOP rates by independent log-normal factors with the given
    ``spread`` (sigma of log).  Deterministic for a fixed ``seed`` — every
    variant draws from its own :func:`~repro.util.rng.seeded_rng` stream,
    so adding samples never changes earlier ones.
    """
    variants: dict[str, dict[str, float]] = {}
    for i in range(n):
        rng = seeded_rng(seed, "whatif", i)
        factors = rng.lognormal(0.0, spread, size=len(SAMPLED_FIELDS))
        variants[f"mc-{i:02d}"] = {
            field: float(f) for field, f in zip(SAMPLED_FIELDS, factors)
        }
    return variants


@dataclass(frozen=True)
class WhatIfResult:
    variant: str
    throughput: float
    policy_desc: str
    attention_on_cpu: bool
    quantized: bool
    feasible: bool


def run_whatif(
    workload: Workload,
    variants: dict[str, dict[str, float]] | None = None,
    samples: int = 0,
    seed: int = 0,
    spread: float = 0.15,
) -> list[WhatIfResult]:
    """Plan the best LM-Offload policy under each hardware variant of
    the single-A100 platform.

    ``samples > 0`` appends that many seeded Monte-Carlo variants (rate
    jitter around the base platform, see :func:`sample_variants`) after
    the named ones — one ``--seed`` reproduces the whole sweep.
    """
    base = Substrate.of(single_a100())
    base_hw, ctx = base.hw, base.default_context()
    sweep = dict(variants if variants is not None else HARDWARE_VARIANTS)
    for name, factors in sample_variants(samples, seed, spread).items():
        sweep[name] = {
            field: getattr(base_hw, field) * factor
            for field, factor in factors.items()
        }
    results: list[WhatIfResult] = []
    for name, overrides in sweep.items():
        hw = dataclasses.replace(base_hw, **overrides)
        planner = PolicyPlanner(hw=hw, cpu_ctx=ctx, quant_aware=True)
        try:
            policy, tput = planner.search(workload)
            results.append(
                WhatIfResult(
                    variant=name,
                    throughput=round(tput, 1),
                    policy_desc=policy.describe(),
                    attention_on_cpu=policy.attention_on_cpu,
                    quantized=policy.quantizes_weights or policy.quantizes_kv,
                    feasible=True,
                )
            )
        except PolicyError:
            results.append(
                WhatIfResult(
                    variant=name, throughput=0.0, policy_desc="(infeasible)",
                    attention_on_cpu=False, quantized=False, feasible=False,
                )
            )
    return results


def whatif_rows(results: list[WhatIfResult]) -> list[dict[str, Any]]:
    """Table-friendly dict rows."""
    return [
        {
            "variant": r.variant,
            "tokens_per_s": r.throughput,
            "attn": "cpu" if r.attention_on_cpu else "gpu",
            "quant": "yes" if r.quantized else "no",
            "policy": r.policy_desc,
        }
        for r in results
    ]
