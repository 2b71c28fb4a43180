"""Reference values transcribed from the paper's tables and figures.

These are the targets each benchmark compares against.  The reproduction
asserts *shape* agreement (orderings, ratios, crossover positions), not
absolute equality — our substrate is a calibrated simulator, not the
authors' testbed.
"""

from __future__ import annotations

# --- Figure 3 (OPT-30B, s=64, n=128, bsz=64, bls=640) ------------------------
# Throughput in tokens/s per (attention placement, quantization) strategy.
FIG3_TPUT = {
    ("cpu", "none"): 41.0,
    ("cpu", "best-quant"): 32.0,   # best quantized config still loses
    ("gpu", "none"): 46.0,
    ("gpu", "w4"): 35.0,
    ("gpu", "kv4"): 82.0,
    ("gpu", "w4+kv4"): 55.0,
}

# --- Table 1 (I/O traffic, GB per generated token) ---------------------------
TAB1_TRAFFIC_GB = {
    ("with_offload", "cpu->gpu", "weights"): 16.32,
    ("with_offload", "cpu->gpu", "kv_cache"): 0.0,
    ("with_offload", "cpu->gpu", "activation"): 0.38,
    ("with_offload", "gpu->cpu", "kv_cache"): 0.0,
    ("with_offload", "gpu->cpu", "activation"): 0.38,
    ("without_offload", "cpu->gpu", "weights"): 38.88,
    ("without_offload", "cpu->gpu", "kv_cache"): 78.72,
    ("without_offload", "cpu->gpu", "activation"): 0.38,
    ("without_offload", "gpu->cpu", "kv_cache"): 0.8,
    ("without_offload", "gpu->cpu", "activation"): 0.38,
}

# --- Figure 5 (threading sweeps, qualitative) ---------------------------------
FIG5_INTRA_SATURATION_THREADS = 8   # throughput stable past this point
FIG5_INTER_OPTIMUM = 12             # paper's best inter-op parallelism

# --- Table 3 -------------------------------------------------------------------
# model -> gen_len -> dict of per-framework (block size, tokens/s).
# "bsz" for flexgen/lm-offload is the zig-zag block size; for
# zero-inference it is the plain batch size.
TAB3 = {
    "opt-30b": {
        8: {"flexgen": (1792, 51), "zero-inference": (64, 94), "lm-offload": (1792, 117)},
        16: {"flexgen": (1600, 56), "zero-inference": (64, 116), "lm-offload": (1600, 139)},
        32: {"flexgen": (1344, 53), "zero-inference": (64, 113), "lm-offload": (1344, 144)},
        64: {"flexgen": (960, 50), "zero-inference": (64, 126), "lm-offload": (960, 126)},
        128: {"flexgen": (640, 41), "zero-inference": (64, 110), "lm-offload": (640, 102)},
    },
    "opt-66b": {
        8: {"flexgen": (780, 24), "zero-inference": (32, 28), "lm-offload": (780, 40)},
        16: {"flexgen": (828, 22), "zero-inference": (16, 32), "lm-offload": (828, 42)},
        32: {"flexgen": (702, 17), "zero-inference": (8, 20), "lm-offload": (702, 34)},
        64: {"flexgen": (720, 14), "zero-inference": (4, 11), "lm-offload": (720, 31)},
        128: {"flexgen": (480, 11), "zero-inference": (4, 10), "lm-offload": (480, 25)},
    },
    "llama-30b": {
        8: {"flexgen": (1536, 35), "zero-inference": (64, 34), "lm-offload": (1536, 95)},
        16: {"flexgen": (1408, 38), "zero-inference": (64, 68), "lm-offload": (1408, 109)},
        32: {"flexgen": (1152, 37), "zero-inference": (64, 73), "lm-offload": (1152, 111)},
        64: {"flexgen": (832, 35), "zero-inference": (64, 69), "lm-offload": (832, 96)},
        128: {"flexgen": (576, 31), "zero-inference": (64, 63), "lm-offload": (576, 89)},
    },
    "llama-65b": {
        8: {"flexgen": (1140, 20), "zero-inference": (32, 19), "lm-offload": (1140, 44)},
        16: {"flexgen": (1020, 20), "zero-inference": (16, 25), "lm-offload": (1020, 47)},
        32: {"flexgen": (616, 23), "zero-inference": (8, 39), "lm-offload": (616, 40)},
        64: {"flexgen": (616, 18), "zero-inference": (4, 31), "lm-offload": (616, 38)},
        128: {"flexgen": (392, 15), "zero-inference": (4, 31), "lm-offload": (392, 32)},
    },
}

# Headline speedups (§5.2): LM-Offload vs FlexGen up to 2.95x (avg 2.34x),
# vs ZeRO-Inference up to 2.88x (avg 1.57x).
HEADLINE = {
    "flexgen": {"max": 2.95, "avg": 2.34},
    "zero-inference": {"max": 2.88, "avg": 1.57},
}

# --- Figure 7 (perf modeling only, parallelism control disabled) -------------
FIG7_GAIN_RANGE = (1.90, 2.21)  # LM-Offload/FlexGen for 30B models: +90%..+121%

# --- Figure 8 (parallelism control, OPT-30B n=8) -------------------------------
FIG8 = {
    "compute_reduction": 0.32,    # compute task: -32%
    "avg_task_reduction": 0.19,   # mean across tasks: -19%
    "end_to_end_reduction": 0.38,  # overlapped end-to-end: -38%
    "default_setting": (56, 112),  # (intra, inter)
    "controlled_setting": (16, 12),
}

# --- Table 5 (LLC misses, billions) --------------------------------------------
TAB5 = {
    "default": {"load": 10e9, "store": 19e9},
    "controlled": {"load": 6e9, "store": 12e9},
}

# --- Figure 9 (multi-GPU weak scaling) -----------------------------------------
FIG9 = {
    "max_gain": 4.27,   # up to 327% over FlexGen
    "avg_gain": 2.12,   # 112% on average
    "gap_grows_with_gpus": True,
}


def bls_split(bls: int) -> tuple[int, int]:
    """Split a paper block size into (gpu_batch_size, num_gpu_batches)."""
    for k in (8, 10, 6, 4, 12, 5, 7, 3, 2, 1):
        if bls % k == 0:
            return bls // k, k
