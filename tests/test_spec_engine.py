"""The speculative fourth engine: parity, wins, and fault metamorphics.

Contracts pinned here:

* **Degenerate parity** — ``SpecOffloadEngine`` with ``tree_size=1`` and
  zero draft cost is byte-identical to ``LMOffloadEngine`` across the
  scheduler x trace serve-sim matrix (same steps, same makespan, same
  metrics document).  The hook returns ``None`` and every driver takes
  the untransformed code path — speculation off *is* LM-Offload.
* **Speculation wins where it should** — at long context (transfer-bound)
  the per-token decode price beats the base engine's; it never exceeds
  it anywhere.
* **Metamorphic fault direction** — ``PCIE_DEGRADE`` strictly shrinks the
  absolute tokens/s benefit of speculation (the gain is transfer-bound,
  so it scales with the surviving link bandwidth), and a zero-magnitude
  overlay changes nothing at all.
* **Driver compatibility** — the chaos bench's plan-level and
  executed-step drift gates pass with the fourth engine enabled; the
  oracle's vectorized fill agrees bitwise with the scalar reference
  pricing (``tests/reference_costs.py``); the fleet
  registry accepts the engine; ``retarget``/``set_degradation`` behave
  like the parent engine's.
"""

import json

import numpy as np
import pytest

from repro.baselines import SpecOffloadEngine
from repro.core import LMOffloadEngine
from repro.errors import ConfigError
from repro.faults import FaultKind, FaultSchedule, FaultSpec, degraded_platform
from repro.hardware import single_a100
from repro.models import get_model
from repro.perfmodel.speculation import SpecConfig
from repro.serving import (
    LengthSampler,
    ServingConfig,
    ServingSimulator,
    compute_metrics,
    default_trace,
    make_policy,
    poisson_trace,
)
from repro.serving.costing import StepCostOracle
from tests import reference_costs as ref
from tests.traces import replay_trace

#: tree_size=1 (no draft nodes) + zero draft cost: speculation disabled.
DEGENERATE = SpecConfig(tree_size=1, draft_compute_ratio=0.0)
CONFIG = ServingConfig(max_batch=8)
LENGTHS = LengthSampler(prompt_mean=64, gen_mean=32, max_len=256)


@pytest.fixture(scope="module")
def model():
    return get_model("opt-1.3b")


def _trace(kind: str):
    if kind == "poisson":
        return poisson_trace(
            2.0, 20.0, seed=5, lengths=LENGTHS, priority_levels=3, name="spec-p"
        )
    return replay_trace(
        [(0.0, 32, 48, 2), (0.0, 16, 8, 1), (0.4, 64, 32, 3), (0.4, 16, 4, 1),
         (2.5, 48, 64, 2), (9.0, 16, 16, 1), (9.0, 16, 2, 3)],
        name="spec-r",
    )


def _simulate(engine, model, trace, scheduler="fcfs", faults=None):
    return ServingSimulator(
        engine=engine, model=model, trace=trace,
        policy=make_policy(scheduler), config=CONFIG,
        faults=faults, seed=0,
    ).run()


def _step_view(result):
    return [(s.kind, s.start_s, s.end_s, s.rids) for s in result.steps]


def _metrics_json(result, drop=("engine",)):
    doc = compute_metrics(result)
    for key in drop:
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True)


# -- degenerate parity -----------------------------------------------------


@pytest.mark.parametrize("trace_kind", ["poisson", "replay"])
@pytest.mark.parametrize("scheduler", ["fcfs", "sjf", "priority"])
def test_degenerate_spec_engine_is_lm_offload(model, trace_kind, scheduler):
    """tree_size=1, zero draft cost -> byte-identical serving runs."""
    trace = _trace(trace_kind)
    base = _simulate(LMOffloadEngine(single_a100()), model, trace, scheduler)
    spec = _simulate(
        SpecOffloadEngine(single_a100(), spec=DEGENERATE), model, trace,
        scheduler,
    )
    assert spec.steps == base.steps
    assert spec.makespan_s == base.makespan_s
    # The metrics document differs only in the engine's name.
    assert _metrics_json(spec) == _metrics_json(base)


def test_degenerate_hook_returns_none(model):
    engine = SpecOffloadEngine(single_a100(), spec=DEGENERATE)
    oracle = StepCostOracle(engine, model)
    policy, cpu_ctx = oracle.planned(1)
    from repro.perfmodel import CostModel, Workload

    cm = CostModel(
        Workload(model, 64, 2, policy.gpu_batch_size, policy.num_gpu_batches),
        policy, engine.hw, cpu_ctx, engine.calibration,
    )
    assert engine.step_pricer(cm) is None
    summary = engine.speculation_summary(cm)
    assert summary["speedup"] == 1.0 and summary["chosen_depth"] == 0


# -- speculation wins where it should --------------------------------------


def _tok_per_s(engine, model, ctx: int) -> float:
    oracle = StepCostOracle(
        engine, model, num_gpu_batches=1, plan_prompt_len=ctx, plan_gen_len=32
    )
    return 1.0 / oracle.decode_step_seconds(1, ctx)


def test_spec_beats_base_at_long_context():
    """Acceptance criterion: a clear tokens/s win at 64k+ context, and no
    regression anywhere on the sweep axis."""
    model = get_model("opt-6.7b")
    for ctx in (4096, 65536):
        base = _tok_per_s(LMOffloadEngine(single_a100()), model, ctx)
        spec = _tok_per_s(SpecOffloadEngine(single_a100()), model, ctx)
        assert spec >= base * (1.0 - 1e-12)
        if ctx >= 65536:
            assert spec > base * 1.5, (
                f"speculation should clearly win in the transfer-bound "
                f"regime (ctx={ctx}: base={base:.3f}, spec={spec:.3f} tok/s)"
            )


# -- metamorphic fault direction -------------------------------------------


def _pcie_fault(severity: float) -> FaultSpec:
    return FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 1e9, severity)


def test_pcie_degrade_strictly_shrinks_speculation_benefit():
    """The tokens/s gain of speculation is transfer-bound: every severity
    step removes link bandwidth, and the absolute benefit must strictly
    shrink with it (the overlap window prices higher, the tokens-per-step
    gain stays fixed)."""
    model = get_model("opt-6.7b")
    gains = []
    for severity in (0.0, 0.3, 0.6):
        platform = degraded_platform(single_a100(), [_pcie_fault(severity)], 1.0)
        base = _tok_per_s(LMOffloadEngine(platform), model, 65536)
        spec = _tok_per_s(SpecOffloadEngine(platform), model, 65536)
        gains.append(spec - base)
    assert gains[0] > gains[1] > gains[2] > 0.0, (
        f"tokens/s benefit must strictly shrink as PCIe degrades: {gains}"
    )


def test_zero_magnitude_overlay_is_identity(model):
    """A severity-0 capability window engages the whole fault machinery
    (overlay, watchdog, ledger) but changes no physics: the spec engine's
    run is step-for-step identical to the fault-free one."""
    trace = default_trace(quick=True, seed=0)
    sched = FaultSchedule(name="zero-pcie", faults=(_pcie_fault(0.0),))
    plain = _simulate(SpecOffloadEngine(single_a100()), model, trace)
    zeroed = _simulate(SpecOffloadEngine(single_a100()), model, trace,
                       faults=sched)
    assert _step_view(zeroed) == _step_view(plain)
    assert zeroed.makespan_s == plain.makespan_s
    # The faulted run's document gains only the fault ledger (all-zero).
    assert zeroed.fault_stats is not None
    assert zeroed.fault_stats.aborts == [] and zeroed.fault_stats.replans == []
    assert _metrics_json(zeroed, drop=("engine", "faults", "steps")) == \
        _metrics_json(plain, drop=("engine", "faults", "steps"))


# -- driver compatibility --------------------------------------------------


def test_chaos_drift_gates_pass_with_spec_engine(model):
    """Both chaos drift gates re-price the spec engine's steps through
    fresh fault-retargeted engines; agreement must be near-exact because
    both sides run the same pricer hook."""
    from repro.bench.chaos import run_chaos

    payload, _ = run_chaos(
        model_name="opt-1.3b",
        scheduler="fcfs",
        engines=("spec-offload",),
        scenarios=("pcie-degrade",),
        quick=True,
        seed=0,
        drift_gate=True,
        serving_drift_gate=True,
    )
    assert payload["all_accounting_ok"]
    assert payload["all_drift_ok"]
    assert payload["all_serving_drift_ok"]
    assert payload["serving_drift"]["summary"]["max_rel_err"] < 1e-6


def test_spec_oracle_vectorized_matches_scalar_bitwise(model):
    """The oracle's bulk vectorized fill and the single-bucket scalar
    reference agree bitwise for the speculative engine, same as for the
    base engines (the pricer is one elementwise code path)."""
    kwargs = dict(plan_prompt_len=256, plan_gen_len=16)
    vec = StepCostOracle(SpecOffloadEngine(single_a100()), model, **kwargs)
    scalar = StepCostOracle(SpecOffloadEngine(single_a100()), model, **kwargs)
    for n, ctx in ((1, 64), (4, 128), (8, 256)):
        assert vec.decode_step_seconds(n, ctx) == ref.oracle_decode_step_seconds(
            scalar, n, ctx
        )


def test_spec_engine_in_fleet_registry():
    from repro.baselines import ENGINES, make_engine
    from repro.serving.fleet import ReplicaSpec

    assert ENGINES["spec-offload"] is SpecOffloadEngine
    spec = ReplicaSpec(name="r0", engine="spec-offload")
    assert isinstance(make_engine(spec.engine, spec.platform), SpecOffloadEngine)


def test_spec_engine_retarget_and_degradation(model):
    """The inherited chaos interface: retargeting to a degraded platform
    replans (higher decode price), restoring recovers the original."""
    from repro.perfmodel import Workload

    base = single_a100()
    engine = SpecOffloadEngine(base)
    wl = Workload(model, 64, 8, 8, 1)
    policy0, _, _ = engine.plan_cached(wl)
    engine.retarget(degraded_platform(base, [_pcie_fault(0.5)], 1.0))
    engine.plan_cached(wl)  # replans against the degraded wire
    engine.retarget(base)
    engine.set_degradation(None)
    policy1, _, _ = engine.plan_cached(wl)
    assert policy1.describe() == policy0.describe()


# -- config validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tree_size=0),
        dict(max_width=0),
        dict(alpha=1.5),
        dict(alpha=-0.1),
        dict(draft_compute_ratio=-1.0),
        dict(kv_retrieval_budget=0),
    ],
)
def test_spec_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError, match="spec:"):
        SpecConfig(**kwargs)


def test_spec_config_tree_shapes():
    assert SpecConfig(tree_size=8, max_width=2).level_widths() == (2, 2, 2, 1)
    assert SpecConfig(tree_size=4, max_width=1).level_widths() == (1, 1, 1)
    assert SpecConfig(tree_size=1).level_widths() == ()
    assert not SpecConfig(tree_size=1).enabled
    assert SpecConfig(tree_size=2).enabled


def test_spec_pricer_alpha_zero_never_beats_base(model):
    """alpha=0 accepts nothing: every prefix pays the tree overhead for
    g=1 token, so the min always lands on the base price."""
    from repro.perfmodel import CostModel, Workload
    from repro.perfmodel.speculation import SpecStepPricer

    engine = SpecOffloadEngine(single_a100(), spec=SpecConfig(alpha=0.0))
    policy, cpu_ctx, _ = engine.plan_cached(Workload(model, 64, 8, 8, 1))
    cm = CostModel(
        Workload(model, 64, 8, 8, 1), policy, engine.hw, cpu_ctx,
        engine.calibration,
    )
    toks = np.arange(7, dtype=np.float64)
    costs = cm.decode_task_costs_vec(toks)
    base = CostModel.step_seconds_vec(costs)
    pricer = SpecStepPricer(cm, engine.spec)
    assert np.array_equal(pricer.step_seconds_vec(toks, costs, base), base)
