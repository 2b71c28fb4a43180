"""The policy search prices with its engine's calibration.

An engine reports a policy's throughput through ``CostModel`` under its
own ``EngineCalibration``; the planner it builds must score candidates
under the same one, or it ranks policies by rates the report never
uses.  Under a non-default calibration the search's score of its pick
must equal the engine's reported throughput exactly.
"""

from __future__ import annotations

import pytest

from repro.baselines import FlexGenEngine
from repro.core import EngineConfig, LMOffloadEngine
from repro.hardware import single_a100
from repro.models import get_model
from repro.offload.planner import PolicyPlanner
from repro.perfmodel import Workload
from repro.perfmodel.constants import EngineCalibration

WORKLOAD = Workload(get_model("opt-30b"), 64, 32, 64, 10)


@pytest.fixture
def searches(monkeypatch):
    """Every ``(policy, score)`` a planner search returns."""
    out = []
    search = PolicyPlanner.search

    def recording(self, *args, **kwargs):
        result = search(self, *args, **kwargs)
        out.append(result)
        return result

    monkeypatch.setattr(PolicyPlanner, "search", recording)
    return out


@pytest.mark.parametrize("engine", ["lm-offload", "flexgen"])
def test_search_scores_its_pick_as_the_report_does(engine, searches):
    """Without parallelism control LM-Offload's search and report share
    the PyTorch-default CPU context, as FlexGen's always do, so only the
    calibration could make the two prices differ."""
    calibration = EngineCalibration.ideal_kernels()
    if engine == "flexgen":
        built = FlexGenEngine(single_a100(), calibration=calibration)
    else:
        built = LMOffloadEngine(
            single_a100(),
            config=EngineConfig(parallelism_control=False, calibration=calibration),
        )
    report = built.run(WORKLOAD)
    ((policy, score),) = searches
    assert policy == report.policy
    assert score == report.throughput
