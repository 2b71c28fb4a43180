"""Tests of the perfbench harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from pathlib import Path

import pytest

import compare
import rep
import run
import workloads
from tracing import TARGETS, Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute a Tracer replaces, keyed by (owner id, name)."""
    found = {}
    for _, module_name, cls_name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            if cls_name is not None:
                cls = getattr(module, cls_name)
                found[(id(cls), attr)] = cls.__dict__[attr]
                continue
            fn = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(attr) is fn
                ):
                    found[(id(mod), attr)] = fn
    return found


def test_tracer_restores_every_original_attribute():
    before = _bindings()
    # admit_batch is bound by from-import in the fleet and multi-model
    # modules as well as defined in the simulator.
    assert sum(1 for _, attr in before if attr == "admit_batch") >= 3
    with Tracer():
        during = _bindings()
        assert all(during[k] is not v for k, v in before.items())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(_bindings()[k] is v for k, v in before.items())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def pair(request):
    """An untraced and a traced repetition of one workload's small input."""
    name = request.param
    plain = rep.measure(name, 3, False, time.monotonic(), small=True)
    traced = rep.measure(name, 3, True, time.monotonic(), small=True)
    assert "error" not in plain and "error" not in traced
    return name, plain, traced


def test_traced_digest_equals_untraced(pair):
    _, plain, traced = pair
    assert traced["digest"] == plain["digest"]
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["ops"] == plain["attempted"]


def test_self_times_are_nonnegative_and_within_the_traced_wall():
    tracer = Tracer()
    name = "serve-steady"
    wl = workloads.WORKLOADS[name]
    state = wl.build(wl.inputs(0, True))
    with tracer:
        t0 = time.perf_counter()
        wl.run(state)
        wall = time.perf_counter() - t0
    own = tracer.self_times()
    assert len(own) > 1000
    assert min(own) >= -1e-9
    assert sum(own) <= wall
    assert all(p < i for i, p in enumerate(tracer.parent))


def test_layer_counts_describe_the_run(pair):
    name, _, traced = pair
    layers = traced["layers"]
    assert layers["engine.plan.distinct"] <= layers["engine.plan.calls"]
    if name == "plan-sweep":
        # Three cells, each planned once by its own engine.
        assert layers["engine.plan.calls"] == 3
        assert layers["oracle.planned.calls"] == 0
    if name == "fleet-crash":
        assert layers["router.crash_events"] > 0
        assert layers["engine.plan.useful_ratio"] < 1
    if name == "chaos-multi":
        assert layers["engine.retarget.calls"] > 0
        assert layers["faults.with_faults.calls"] > 0


def test_runner_metric_names_equal_the_benchmark(pair, capsys):
    _, plain, traced = pair
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert set(run.samples([plain])) == set(e2e)
    assert set(run.layer_metrics([plain], traced)) == set(per_layer)
    run.list_metrics(SPEC)
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == e2e + per_layer


def test_benchmark_limits():
    e2e, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in e2e + per_layer]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_sweep_rows_are_the_tab3_experiment():
    from repro.bench.experiments import run_tab3_overall

    wl = workloads.WORKLOADS["plan-sweep"]
    cells = wl.inputs(5, False)
    summary = wl.summarize(cells, wl.run(wl.build(cells)))
    assert summary.outputs == run_tab3_overall()
    pinned = json.loads((Path(__file__).parent / "digests.json").read_text())
    assert summary.digest == pinned["plan-sweep"]["*"]


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 1.03], "lower", "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "worse"),
        ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], "lower", "better"),
        ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], "higher", "worse"),
        # Quartile spread beyond the bound on one side: unresolved ...
        ([1.0, 1.5, 0.6, 1.0, 1.4, 0.7], [1.3, 1.0, 1.4, 1.2], "lower", "unresolved"),
        # ... unless every run of one side beats every run of the other.
        ([1.0, 1.25, 0.8, 1.0], [1.6, 1.9, 1.7, 2.0], "lower", "worse"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, 0.1, better) == expected
