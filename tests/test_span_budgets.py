"""The CI span-budget gate (scripts/check_span_budgets.py) itself."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_span_budgets.py"


@pytest.fixture(scope="module")
def budgets_mod():
    spec = importlib.util.spec_from_file_location("check_span_budgets", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _report(**totals):
    """A profiler report with these span totals.  A ``serving.run`` report
    carries the running-batch counters, as every profiled serving run does
    (the quick serve-sim smoke's counts)."""
    report = {
        "scopes": {
            name: {"calls": 3, "total_s": t, "max_s": t, "mean_s": t / 3}
            for name, t in totals.items()
        }
    }
    if "serving.run" in totals:
        report["counts"] = {
            "serving.batch.joins": 27, "serving.batch.member_visits": 126,
        }
    return report


#: The spans the faulted audit smoke reports, all within budget.
AUDIT_SPANS = {
    "obs.audit.sweep": 0.01, "obs.audit.faulted_sweep": 0.05,
    "executor.run_token": 0.05,
}


def test_passes_within_budget(budgets_mod):
    report = _report(**AUDIT_SPANS)
    assert budgets_mod.check(report, dict(budgets_mod.DEFAULT_BUDGETS)) == []


def test_flags_overrun_and_missing_required_span(budgets_mod):
    report = _report(**{"obs.audit.sweep": 99.0})
    problems = budgets_mod.check(report, dict(budgets_mod.DEFAULT_BUDGETS))
    assert any("obs.audit.sweep" in p and "99.000s" in p for p in problems)
    assert any("obs.audit.faulted_sweep" in p and "missing" in p for p in problems)


def test_executor_budget_cannot_lapse(budgets_mod):
    """A renamed executor span fails the audit gate instead of leaving its
    budget checking nothing."""
    spans = {**AUDIT_SPANS}
    del spans["executor.run_token"]
    problems = budgets_mod.check(_report(**spans), dict(budgets_mod.DEFAULT_BUDGETS))
    assert problems == ["required span 'executor.run_token' missing from report"]


def test_unbudgeted_spans_are_ignored(budgets_mod):
    report = _report(**AUDIT_SPANS, **{"some.other.span": 1e9})
    assert budgets_mod.check(report, dict(budgets_mod.DEFAULT_BUDGETS)) == []


def test_custom_required_set_replaces_audit_spans(budgets_mod):
    report = _report(**{"serving.run": 0.2})
    assert budgets_mod.check(
        report, dict(budgets_mod.DEFAULT_BUDGETS), required=("serving.run",)
    ) == []
    problems = budgets_mod.check(
        _report(**{"obs.audit.sweep": 0.01}),
        dict(budgets_mod.DEFAULT_BUDGETS),
        required=("serving.run",),
    )
    assert any("serving.run" in p and "missing" in p for p in problems)


def test_serving_run_budget_is_enforced(budgets_mod):
    report = _report(**{"serving.run": 99.0})
    problems = budgets_mod.check(
        report, dict(budgets_mod.DEFAULT_BUDGETS), required=("serving.run",)
    )
    assert any("serving.run" in p and "99.000s" in p for p in problems)


def test_main_end_to_end(budgets_mod, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_report(**AUDIT_SPANS)))
    assert budgets_mod.main([str(path)]) == 0
    assert budgets_mod.main([str(path), "--budget", "obs.audit.sweep=0.001"]) == 1
    assert budgets_mod.main([str(path), "--budget", "nonsense"]) == 2
    assert budgets_mod.main([str(tmp_path / "absent.json")]) == 2
    serving = tmp_path / "serving.json"
    serving.write_text(json.dumps(_report(**{"serving.run": 0.2})))
    assert budgets_mod.main([str(serving), "--require", "serving.run"]) == 0
    assert budgets_mod.main([str(serving)]) == 1  # audit spans missing
    capsys.readouterr()


def _plan_report(plan_calls, misses):
    report = _report(**{"fleet.run": 1.0, "engine.plan": 0.5})
    report["scopes"]["engine.plan"]["calls"] = plan_calls
    report["caches"] = {"engine.plan_memo": {"hits": 9, "misses": misses}}
    return report


def test_plan_memo_gate_allows_one_search_per_miss(budgets_mod):
    for report in (_plan_report(5, 5), _plan_report(0, 0), _report()):
        assert budgets_mod.check(report, {}, required=()) == []


def test_plan_memo_gate_flags_searches_that_bypass_the_cache(budgets_mod, tmp_path):
    problems = budgets_mod.check(_plan_report(12, 2), {}, required=())
    assert len(problems) == 1 and "12 times for 2" in problems[0]
    no_memo = _plan_report(3, 0)
    del no_memo["caches"]
    assert budgets_mod.check(no_memo, {}, required=())
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(_plan_report(12, 2)))
    assert budgets_mod.main([str(path), "--require", "fleet.run"]) == 1


def _grid_report(searches, grids):
    report = _report(**{"planner.search": 0.5, "planner.score_grid": 0.1})
    report["scopes"]["planner.search"]["calls"] = searches
    report["scopes"]["planner.score_grid"]["calls"] = grids
    report["caches"] = {"planner.lp": {"hits": searches, "misses": searches}}
    return report


def test_score_grid_gate_allows_one_grid_pass_per_search(budgets_mod):
    for report in (_grid_report(280, 280), _grid_report(7, 5), _report()):
        assert budgets_mod.check(report, {}, required=()) == []


def test_score_grid_gate_flags_per_candidate_scoring(budgets_mod, tmp_path):
    """One grid pass per strategy (six per search) fails the gate, as
    does one per candidate."""
    for grids in (42, 168):
        problems = budgets_mod.check(_grid_report(7, grids), {}, required=())
        assert len(problems) == 1 and f"{grids} times for 7" in problems[0]
    no_search = _grid_report(0, 1)
    del no_search["scopes"]["planner.search"]
    assert budgets_mod.check(no_search, {}, required=())
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(_grid_report(7, 168)))
    assert budgets_mod.main([str(path), "--require", "planner.score_grid"]) == 1
    path.write_text(json.dumps(_grid_report(7, 7)))
    assert budgets_mod.main([str(path), "--require", "planner.score_grid"]) == 0


def _lp_report(searches, hits, misses):
    report = _report(**{"planner.search": 0.5})
    report["scopes"]["planner.search"]["calls"] = searches
    report["caches"] = {"planner.lp": {"hits": hits, "misses": misses}}
    return report


def test_lp_gate_allows_one_lp_per_search(budgets_mod):
    """Up to one LP lookup per strategy of the six-strategy menu."""
    for report in (_lp_report(280, 0, 280), _lp_report(7, 20, 22), _lp_report(1, 0, 1)):
        assert budgets_mod.check(report, {}, required=()) == []


def test_lp_gate_flags_repeated_lp_solves(budgets_mod, tmp_path):
    problems = budgets_mod.check(_lp_report(7, 40, 3), {}, required=())
    assert len(problems) == 1 and "43 times for 7" in problems[0]
    assert "planner.lp" in problems[0]
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(_lp_report(7, 40, 3)))
    assert budgets_mod.main([str(path), "--require", "planner.search"]) == 1
    path.write_text(json.dumps(_lp_report(7, 21, 21)))
    assert budgets_mod.main([str(path), "--require", "planner.search"]) == 0


def test_lp_cache_cannot_vanish_while_searches_run(budgets_mod, tmp_path):
    no_lookups = _lp_report(7, 0, 0)
    del no_lookups["caches"]["planner.lp"]
    problems = budgets_mod.check(no_lookups, {}, required=())
    assert len(problems) == 1 and "'planner.lp' reported no lookups" in problems[0]
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(_lp_report(7, 21, 21)))
    args = [str(path), "--require", "planner.search"]
    assert budgets_mod.main(args + ["--require-cache", "planner.lp>=0.5"]) == 0
    path.write_text(json.dumps(_lp_report(7, 10, 32)))
    assert budgets_mod.main(args + ["--require-cache", "planner.lp>=0.5"]) == 1


def _curve_report(hits, misses, plans=4):
    report = _report(**{"parallel.controller.plan": 0.01})
    report["scopes"]["parallel.controller.plan"]["calls"] = plans
    report["caches"] = {"parallel.curve": {"hits": hits, "misses": misses}}
    return report


def test_curve_cache_floor_passes_at_and_above_floor(budgets_mod):
    floors = {"parallel.curve": 0.9}
    for report in (_curve_report(3436, 10), _curve_report(9, 1)):
        assert budgets_mod.check(report, {}, required=(), cache_floors=floors) == []


def test_curve_cache_floor_flags_low_hit_rate(budgets_mod, tmp_path):
    problems = budgets_mod.check(
        _curve_report(5, 5), {}, required=(), cache_floors={"parallel.curve": 0.9}
    )
    assert len(problems) == 1
    assert "parallel.curve" in problems[0] and "0.500" in problems[0]
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(_curve_report(5, 5)))
    args = [str(path), "--require", "parallel.controller.plan"]
    assert budgets_mod.main(args + ["--require-cache", "parallel.curve>=0.9"]) == 1
    assert budgets_mod.main(args + ["--require-cache", "parallel.curve>=0.5"]) == 0
    assert budgets_mod.main(args + ["--require-cache", "parallel.curve"]) == 2
    assert budgets_mod.main(args + ["--require-cache", "parallel.curve>=x"]) == 2


def test_curve_cache_cannot_vanish_while_alg3_runs(budgets_mod):
    """A renamed or bypassed curve cache fails even without a floor, and a
    required floor fails on a report that lacks the cache."""
    report = _curve_report(0, 0)
    del report["caches"]["parallel.curve"]
    problems = budgets_mod.check(report, {}, required=())
    assert len(problems) == 1 and "'parallel.curve'" in problems[0]
    # No Alg. 3 plan ran: nothing to look up, nothing to flag.
    assert budgets_mod.check(_report(), {}, required=()) == []
    problems = budgets_mod.check(
        _report(), {}, required=(), cache_floors={"parallel.curve": 0.9}
    )
    assert problems == ["required cache 'parallel.curve' missing from report"]


def _batch_report(joins, visits):
    report = _report(**{"serving.run": 0.2})
    report["counts"] = {
        "serving.batch.joins": joins, "serving.batch.member_visits": visits,
    }
    return report


def test_batch_visit_gate_allows_bounded_visits_per_join(budgets_mod):
    for report in (_batch_report(27, 126), _batch_report(171, 820),
                   _batch_report(10, 80)):
        assert budgets_mod.check(report, {}, required=("serving.run",)) == []


def test_batch_visit_gate_flags_per_step_member_walks(budgets_mod, tmp_path):
    """A batch that walks its members every decode step reports visits
    in proportion to steps x batch: 131 steps of a 4-wide batch here."""
    problems = budgets_mod.check(
        _batch_report(27, 27 + 131 * 4), {}, required=("serving.run",)
    )
    assert len(problems) == 1
    assert "serving.batch.member_visits" in problems[0] and "551 for 27" in problems[0]
    path = tmp_path / "serving.json"
    path.write_text(json.dumps(_batch_report(27, 551)))
    assert budgets_mod.main([str(path), "--require", "serving.run"]) == 1
    path.write_text(json.dumps(_batch_report(27, 126)))
    assert budgets_mod.main([str(path), "--require", "serving.run"]) == 0


def test_batch_counters_cannot_vanish_while_serving_runs(budgets_mod):
    report = _batch_report(27, 126)
    del report["counts"]
    problems = budgets_mod.check(report, {}, required=("serving.run",))
    assert len(problems) == 1 and "'serving.batch.joins'" in problems[0]
    # No serving run: the counters are not expected.
    assert budgets_mod.check(_report(), {}, required=()) == []


def test_eager_reference_batch_trips_the_visit_gate(budgets_mod, monkeypatch):
    """The per-request reference batch of tests/test_batch_clock.py,
    counted the same way, fails the gate on a real serving run; the
    token clock passes it."""
    from repro.baselines import ZeroInferenceEngine
    from repro.hardware import single_a100
    from repro.models import get_model
    from repro.obs.profiling import profiling_enabled
    from repro.serving import (
        ServingConfig,
        ServingSimulator,
        default_trace,
        kernel,
        make_policy,
    )
    from tests.test_batch_clock import EagerBatch

    def report():
        with profiling_enabled() as prof:
            ServingSimulator(
                ZeroInferenceEngine(single_a100()), get_model("opt-1.3b"),
                default_trace(quick=True, seed=0), policy=make_policy("fcfs"),
                config=ServingConfig(max_batch=8),
            ).run()
            return prof.report()

    assert budgets_mod.check(report(), {}, required=("serving.run",)) == []
    monkeypatch.setattr(kernel, "RunningBatch", EagerBatch)
    problems = budgets_mod.check(report(), {}, required=("serving.run",))
    assert len(problems) == 1 and "member_visits" in problems[0]
