"""Inspection toolkit tour: quality evaluation, Chrome traces, block
execution, sparkline sweeps.

Run:  python examples/inspection_tools.py
"""

import numpy as np

from repro import QuantConfig, TransformerWeights, get_model
from repro.bench import run_fig5_parallelism_sweep, sweep_summary
from repro.core import FunctionalEngine, LMOffloadEngine
from repro.hardware import single_a100
from repro.models.quality import bits_sweep
from repro.offload import OffloadPolicy
from repro.perfmodel import CostModel, Workload
from repro.trace import trace_decode_schedule


def main() -> None:
    rng = np.random.default_rng(0)

    print("=== 1. Quantization quality (tiny executable model) ===")
    weights = TransformerWeights.random(get_model("tiny-4l"), rng)
    prompt = rng.integers(0, 256, size=(4, 10))
    for bits, report in bits_sweep(weights, prompt, bits_options=(8, 4, 2)).items():
        print(
            f"  {bits}-bit weights: logit MAE {report.logit_mae:.4f}, "
            f"top-1 agreement {report.top1_agreement:.0%}, "
            f"KL {report.kl_divergence:.4f}"
        )

    print("\n=== 2. Zig-zag block execution (Algorithm 1, functional) ===")
    policy = OffloadPolicy(
        wg=0.0, hg=1.0, attention_on_cpu=True, gpu_batch_size=2, num_gpu_batches=2
    )
    result = FunctionalEngine(weights=weights, policy=policy).generate(prompt, 6)
    print(
        f"  block of 4 sequences generated 6 tokens each; weights moved "
        f"{result.traffic_by_category['weights']/1e6:.1f} MB "
        f"(one fetch per layer sweep, shared by both batches)"
    )

    print("\n=== 3. Chrome trace of the overlapped schedule ===")
    workload = Workload(get_model("opt-30b"), 64, 8, 64, 10)
    engine = LMOffloadEngine(single_a100())
    pol, ctx, _ = engine.plan(workload)
    cost = CostModel(workload, pol, engine.hw, ctx, engine.config.calibration)
    costs = [cost.decode_task_costs(t) for t in range(2)]
    builder = trace_decode_schedule(costs, num_layers=6, num_gpu_batches=pol.num_gpu_batches)
    builder.save("decode_trace.json")
    print(f"  wrote decode_trace.json with {builder.num_slices} slices "
          f"(open in chrome://tracing)")

    print("\n=== 4. Threading sweeps at a glance ===")
    sweep = run_fig5_parallelism_sweep()
    print("  " + sweep_summary(sweep["intra"], "threads", "tokens_per_s", "intra-op"))
    print("  " + sweep_summary(sweep["inter"], "threads", "tokens_per_s", "inter-op"))


if __name__ == "__main__":
    main()
