import pytest

from repro.baselines import FlexGenEngine, ZeroInferenceEngine
from repro.bench import paper_data
from repro.core import EngineConfig, LMOffloadEngine
from repro.faults import LADDER
from repro.hardware import single_a100
from repro.models import get_model
from repro.perfmodel import Workload


@pytest.fixture(scope="module")
def workload():
    return Workload(get_model("opt-30b"), 64, 32, 64, 10)


@pytest.fixture(scope="module")
def lm_report(workload):
    return LMOffloadEngine(single_a100()).run(workload)


@pytest.fixture(scope="module")
def fg_report(workload):
    return FlexGenEngine(single_a100()).run(workload)


def test_lm_offload_beats_flexgen(lm_report, fg_report):
    assert lm_report.throughput > fg_report.throughput * 1.3


def test_lm_offload_short_generation_uses_quantization():
    """At short generation lengths the planner's winning policy keeps the
    (quantized) KV cache near the GPU — the quant-awareness is what makes
    that option visible at all."""
    w = Workload(get_model("opt-30b"), 64, 8, 64, 10)
    report = LMOffloadEngine(single_a100()).run(w)
    assert report.policy.quantizes_weights or report.policy.quantizes_kv


def test_flexgen_never_quantizes(fg_report):
    assert fg_report.policy.weight_quant is None
    assert fg_report.policy.kv_quant is None


def test_reports_fit_gpu_memory(lm_report, fg_report):
    cap = single_a100().gpus[0].memory_capacity
    assert lm_report.gpu_bytes <= cap
    assert fg_report.gpu_bytes <= cap


def test_parallelism_plan_attached(lm_report, fg_report):
    assert lm_report.parallelism is not None
    assert fg_report.parallelism is None


def test_disabling_parallelism_control(workload):
    engine = LMOffloadEngine(
        single_a100(), config=EngineConfig(parallelism_control=False)
    )
    report = engine.run(workload)
    assert report.parallelism is None
    assert report.throughput > 0


def test_disabling_quant_awareness_matches_flexgen_class():
    """FlexGen is exactly LM-Offload with both contributions ablated: the
    same policy, throughput and memory on every Tab. 3 workload, under
    every degradation rung that still admits work (``force_quant`` is
    inert for both quantization-blind searches; ``force_cpu_attention``
    applies to both)."""
    fg = FlexGenEngine(single_a100())
    ablated = LMOffloadEngine(
        single_a100(),
        config=EngineConfig(quant_aware=False, parallelism_control=False),
    )
    for rung in (r for r in LADDER if r.admit):
        fg.set_degradation(rung)
        ablated.set_degradation(rung)
        for mname, rows in paper_data.TAB3.items():
            model = get_model(mname)
            for n, ref in rows.items():
                b, k = paper_data.bls_split(ref["flexgen"][0])
                workload = Workload(model, 64, n, b, k)
                want, got = fg.run(workload), ablated.run(workload)
                assert (
                    got.policy, got.throughput, got.gpu_bytes, got.cpu_bytes
                ) == (
                    want.policy, want.throughput, want.gpu_bytes, want.cpu_bytes
                ), (rung.name, mname, n)


def test_table_row_shape(lm_report):
    row = lm_report.table_row()
    assert row["framework"] == "lm-offload"
    assert row["len"] == 32
    assert row["bsz"] == 640
    assert 0 <= row["wg"] <= 100


def test_normalized_to(lm_report, fg_report):
    assert fg_report.normalized_to(lm_report) == pytest.approx(
        fg_report.throughput / lm_report.throughput
    )
    assert lm_report.normalized_to(lm_report) == pytest.approx(1.0)


def test_zero_inference_small_batch(workload):
    report = ZeroInferenceEngine(single_a100()).run(workload)
    assert report.workload.block_size <= 64
    assert report.policy.wg == 1.0
    assert report.policy.quantize_resident_weights


def test_zero_inference_forced_batch(workload):
    report = ZeroInferenceEngine(single_a100()).run(workload, batch=8)
    assert report.workload.block_size == 8


def test_zero_inference_batch_shrinks_for_66b():
    w = Workload(get_model("opt-66b"), 64, 32, 64, 1)
    report = ZeroInferenceEngine(single_a100()).run(w)
    # 4-bit 66B weights leave little room: batch must shrink below 64.
    assert report.workload.block_size <= 64
    assert report.gpu_bytes <= single_a100().gpus[0].memory_capacity
