"""Engine configuration variants and multi-GPU runner options."""

import pytest

from repro.core import EngineConfig, LMOffloadEngine
from repro.faults import LADDER
from repro.hardware import single_a100
from repro.models import get_model
from repro.multigpu import PipelineParallelRunner
from repro.perfmodel import Workload
from repro.perfmodel.constants import EngineCalibration


@pytest.fixture(scope="module")
def workload():
    return Workload(get_model("opt-30b"), 64, 8, 64, 10)


def test_gpu_attention_can_be_disallowed(workload):
    engine = LMOffloadEngine(single_a100())
    engine.set_degradation(next(r for r in LADDER if r.force_cpu_attention))
    report = engine.run(workload)
    assert report.policy.attention_on_cpu


def test_custom_calibration_changes_results(workload):
    default = LMOffloadEngine(single_a100()).run(workload)
    ideal = LMOffloadEngine(
        single_a100(),
        config=EngineConfig(calibration=EngineCalibration.ideal_kernels()),
    ).run(workload)
    assert ideal.throughput > default.throughput * 1.5


def test_multigpu_parallelism_control_helps():
    """The controlled-threading stage option never hurts the pipeline."""
    model = get_model("opt-13b")
    workload = Workload(model, 256, 64, 32, 4)
    plain = PipelineParallelRunner(engine_name="a", use_quant=True)
    controlled = PipelineParallelRunner(
        engine_name="b", use_quant=True, parallelism_control=True
    )
    t_plain = plain.run(model, 1, workload).throughput
    t_ctrl = controlled.run(model, 1, workload).throughput
    assert t_ctrl >= t_plain * 0.999


def test_engine_report_includes_breakdown_detail(workload):
    report = LMOffloadEngine(single_a100()).run(workload)
    b = report.breakdown
    assert b.total_seconds > 0
    assert sum(b.task_totals.values()) > 0
    # Quant overheads are consistent with the chosen policy.
    if not (report.policy.quantizes_weights or report.policy.quantizes_kv):
        assert sum(b.quant_overheads.values()) == 0.0
