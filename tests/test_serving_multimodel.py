"""Multi-model serving and the learned length predictor.

The contracts pinned here:

* **K=1 collapse** — a :class:`MultiModelSimulator` with a single slot is
  byte-identical to :class:`ServingSimulator` (same steps, same metrics
  document) across the policy x trace matrix, and never swaps.
* **Oracle predicted-SJF == SJF** — ranking by the oracle predictor is
  exactly the oracle SJF ranking, so the learned predictor's cost is
  measurable as a clean diff.
* **Predictor properties** (seeded) — conservation (each finished request
  lands in exactly one bucket), frozen-first-prediction mispredict
  accounting, and mispredict rate monotone in injected length noise.
* **Swap accounting** — swaps are priced as weight bytes over the
  (faultable) PCIe link, appear as ``"swap"`` steps, and residency plus
  swap time tiles the makespan exactly.
* **Satellite regressions** — the aggregate-derived metrics registry is
  independent of per-step retention, empty traces report zero rates
  instead of phantom ones, and the admission queue's ordered view fails
  loudly (identity scan, then :class:`ServingError`) instead of deleting
  a value-equal lookalike.
"""

import json

import pytest

from repro.baselines import ZeroInferenceEngine
from repro.errors import ConfigError, ServingError
from repro.hardware import single_a100
from repro.models import get_model
from repro.serving import (
    AdmissionQueue,
    BucketedQuantilePredictor,
    LengthSampler,
    ModelSlot,
    MultiModelSimulator,
    OracleLengthPredictor,
    PredictedSJFPolicy,
    RequestTrace,
    ServingConfig,
    ServingSimulator,
    SJFPolicy,
    compute_metrics,
    make_policy,
    make_slots,
    metrics_registry,
    poisson_trace,
)
from repro.serving.arrivals import multimodel_trace
from repro.serving.request import Request, RequestSpec
from repro.util.rng import seeded_rng
from tests.traces import replay_trace


@pytest.fixture(scope="module")
def engine():
    return ZeroInferenceEngine(single_a100())


@pytest.fixture(scope="module")
def model():
    return get_model("opt-1.3b")


LENGTHS = LengthSampler(prompt_mean=64, gen_mean=32, max_len=256)
CONFIG = ServingConfig(max_batch=8)


def _trace(kind: str):
    if kind == "poisson":
        return poisson_trace(
            2.0, 20.0, seed=5, lengths=LENGTHS, priority_levels=3, name="mm-p"
        )
    return replay_trace(
        [(0.0, 32, 48, 2), (0.0, 16, 8, 1), (0.4, 64, 32, 3), (0.4, 16, 4, 1),
         (2.5, 48, 64, 2), (9.0, 16, 16, 1), (9.0, 16, 2, 3)],
        name="mm-r",
    )


def _duo_trace(seed: int = 3, horizon: float = 12.0):
    return multimodel_trace(
        {"opt-1.3b": 1.0, "opt-6.7b": 0.5},
        horizon_s=horizon,
        seed=seed,
        priorities={"opt-1.3b": 1},
    )


def _duo_slots():
    return (
        ModelSlot(name="opt-1.3b", model=get_model("opt-1.3b")),
        ModelSlot(name="opt-6.7b", model=get_model("opt-6.7b")),
    )


# -- K=1 collapse ----------------------------------------------------------


@pytest.mark.parametrize("trace_kind", ["poisson", "replay"])
@pytest.mark.parametrize("scheduler", ["fcfs", "sjf", "priority"])
def test_k1_oracle_matches_single_model(engine, model, trace_kind, scheduler):
    trace = _trace(trace_kind)
    single = ServingSimulator(
        engine=engine, model=model, trace=trace,
        policy=make_policy(scheduler), config=CONFIG,
    ).run()
    mm = MultiModelSimulator(
        engine=engine, slots=(ModelSlot(name="opt-1.3b", model=model),),
        trace=trace, policy=make_policy(scheduler), config=CONFIG,
    ).run()
    assert mm.swaps == []
    assert mm.serving.steps == single.steps
    assert mm.serving.makespan_s == single.makespan_s
    assert json.dumps(compute_metrics(mm.serving), sort_keys=True) == json.dumps(
        compute_metrics(single), sort_keys=True
    )


def test_k1_predicted_sjf_oracle_matches_sjf(engine, model):
    """sjf-predict with the oracle predictor IS sjf (int->float is exact)."""
    trace = _trace("poisson")
    sjf = ServingSimulator(
        engine=engine, model=model, trace=trace,
        policy=SJFPolicy(), config=CONFIG,
    ).run()
    pred = ServingSimulator(
        engine=engine, model=model, trace=trace,
        policy=PredictedSJFPolicy(OracleLengthPredictor()), config=CONFIG,
    ).run()
    assert pred.steps == sjf.steps
    a, b = compute_metrics(pred), compute_metrics(sjf)
    assert a.pop("scheduler") == "sjf-predict(oracle)"
    assert b.pop("scheduler") == "sjf"
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- swap accounting -------------------------------------------------------


def test_duo_swaps_tile_the_makespan(engine):
    slots = _duo_slots()
    result = MultiModelSimulator(
        engine=engine, slots=slots, trace=_duo_trace(),
        policy=make_policy("fcfs"), config=CONFIG,
    ).run()
    assert result.swaps, "a two-model FCFS run must swap at least once"
    for swap in result.swaps:
        assert swap.duration_s > 0
        assert swap.reason in ("idle", "preempt")
        to_slot = next(s for s in slots if s.name == swap.to_model)
        assert swap.bytes_moved == to_slot.weight_bytes
    # Residency + swap time tiles the wall clock exactly.
    total = sum(result.residency_s.values()) + result.swap_time_s
    assert total == pytest.approx(result.serving.makespan_s, abs=1e-9)
    # Swaps surface as steps and registry series.
    swap_steps = [s for s in result.serving.steps if s.kind == "swap"]
    assert len(swap_steps) == len(result.swaps)
    series = metrics_registry(result.serving).to_dict()["series"]
    assert series["steps.swap"]["value"] == len(result.swaps)


def test_cross_model_preemption_swaps_and_requeues(engine):
    big = ModelSlot(name="opt-6.7b", model=get_model("opt-6.7b"))
    small = ModelSlot(name="opt-1.3b", model=get_model("opt-1.3b"))
    trace = RequestTrace(
        name="preempt",
        requests=(
            RequestSpec(arrival_s=0.0, prompt_len=32, gen_len=64,
                        priority=0, model="opt-6.7b"),
            RequestSpec(arrival_s=0.5, prompt_len=16, gen_len=4,
                        priority=5, model="opt-1.3b"),
        ),
        horizon_s=10.0,
    )
    result = MultiModelSimulator(
        engine=engine, slots=(big, small), trace=trace,
        policy=make_policy("priority-preempt"), config=CONFIG,
    ).run()
    assert any(s.reason == "preempt" for s in result.swaps)
    by_model = {r.model: r for r in result.serving.requests}
    assert by_model["opt-6.7b"].preemptions >= 1
    assert all(r.finish_s is not None for r in result.serving.requests)
    # The high-priority interactive request finishes first.
    assert by_model["opt-1.3b"].finish_s < by_model["opt-6.7b"].finish_s


def test_nonpreemptive_policies_never_preempt_across_models(engine):
    result = MultiModelSimulator(
        engine=engine, slots=_duo_slots(), trace=_duo_trace(),
        policy=make_policy("fcfs"), config=CONFIG,
    ).run()
    assert all(s.reason == "idle" for s in result.swaps)
    assert all(r.preemptions == 0 for r in result.serving.requests)


def test_multimodel_run_is_deterministic(engine):
    def run():
        result = MultiModelSimulator(
            engine=engine, slots=_duo_slots(), trace=_duo_trace(),
            policy=make_policy("priority-preempt"), config=CONFIG,
        ).run()
        return json.dumps(result.to_dict(), sort_keys=True)

    assert run() == run()


# -- slot / config validation ----------------------------------------------


def test_make_slots_resolves_presets_and_lists():
    duo = make_slots("opt-duo")
    assert [s.name for s in duo] == ["opt-13b", "opt-30b"]
    assert duo[0].ttft_slo_s == 20.0  # SLO class applied
    custom = make_slots("opt-1.3b, opt-6.7b")
    assert [s.name for s in custom] == ["opt-1.3b", "opt-6.7b"]
    assert custom[0].ttft_slo_s is None  # no class -> config fallback
    with pytest.raises(ServingError):
        make_slots(" , ")


def test_simulator_rejects_bad_slot_configs(engine, model):
    trace = _trace("replay")
    slot = ModelSlot(name="opt-1.3b", model=model)
    with pytest.raises(ConfigError):
        MultiModelSimulator(engine=engine, slots=(), trace=trace)
    with pytest.raises(ConfigError):
        MultiModelSimulator(engine=engine, slots=(slot, slot), trace=trace)
    tagged = RequestTrace(
        name="unknown-tag",
        requests=(RequestSpec(arrival_s=0.0, prompt_len=16, gen_len=4,
                              model="opt-66b"),),
        horizon_s=1.0,
    )
    with pytest.raises(ConfigError):
        MultiModelSimulator(engine=engine, slots=(slot,), trace=tagged)


# -- predictor properties --------------------------------------------------


def _req(rid: int, prompt: int, gen: int, model: str = "m") -> Request:
    return Request.from_spec(
        rid,
        RequestSpec(arrival_s=0.0, prompt_len=prompt, gen_len=gen, model=model),
    )


def bucket_counts(pred: BucketedQuantilePredictor) -> dict[tuple[str, int], int]:
    """Completed-length sample count per ``(model, prompt bucket)``."""
    return {key: len(samples) for key, samples in pred._samples.items()}


def test_predictor_conservation_each_completion_updates_one_bucket():
    pred = BucketedQuantilePredictor(prompt_bucket=64)
    rng = seeded_rng(0, "test", "predictor-conservation")
    finished = 0
    for rid in range(60):
        prompt = int(rng.integers(4, 300))
        gen = int(rng.integers(1, 96))
        req = _req(rid, prompt, gen, model=("a" if rid % 2 else "b"))
        pred.predict(req)  # the scheduler acted on a prediction
        before = sum(bucket_counts(pred).values())
        pred.observe(req)
        after = sum(bucket_counts(pred).values())
        assert after == before + 1  # exactly one bucket gained one sample
        finished += 1
    assert sum(bucket_counts(pred).values()) == finished
    assert pred.stats()["observations"] == finished
    # Every bucket key is (model, prompt // bucket_width).
    assert all(
        m in ("a", "b") and b >= 0 for (m, b) in bucket_counts(pred)
    )


def test_predictor_freezes_first_prediction():
    pred = BucketedQuantilePredictor(prompt_bucket=64, prior_gen_len=32.0)
    req = _req(0, prompt=16, gen=40)
    assert pred.predict(req) == 32.0  # empty bucket -> prior
    # The bucket learns a very different length before the request ends.
    for rid in range(1, 6):
        done = _req(rid, prompt=16, gen=100)
        pred.predict(done)
        pred.observe(done)
    # Remaining-length predictions update, but the *ledger* scores the
    # number the scheduler first acted on (32 vs actual 40: |err|=8).
    pred.observe(req)
    stats = pred.stats()
    assert stats["observations"] == 6
    assert 8.0 in pred._abs_errors


def test_mispredict_rate_monotone_in_length_noise():
    rates = []
    for noise in (0, 16, 64):
        pred = BucketedQuantilePredictor(prompt_bucket=64, prior_gen_len=32.0)
        rng = seeded_rng(7, "test", "predictor-noise", noise)
        for rid in range(80):
            gen = max(1, 32 + int(rng.integers(-noise, noise + 1)))
            req = _req(rid, prompt=16, gen=gen)
            pred.predict(req)
            pred.observe(req)
        rates.append(pred.stats()["mispredict_rate"])
    assert rates[0] == 0.0  # noiseless lengths are never mispredicted
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > rates[0]


def test_predictor_validation_and_factory():
    with pytest.raises(ServingError):
        BucketedQuantilePredictor(prompt_bucket=0)
    with pytest.raises(ServingError):
        BucketedQuantilePredictor(quantile=101)


def test_learned_predictor_observes_completions_in_simulator(engine, model):
    policy = make_policy("sjf-predict")
    result = ServingSimulator(
        engine=engine, model=model, trace=_trace("poisson"),
        policy=policy, config=CONFIG,
    ).run()
    finished = len(result.finished)
    assert finished > 0
    stats = policy.predictor.stats()
    assert stats["observations"] == finished
    assert sum(bucket_counts(policy.predictor).values()) == finished


# -- satellite regressions -------------------------------------------------


def test_registry_aggregates_independent_of_step_retention(engine, model):
    """`serve-sim --no-steps --metrics-out` regression: the aggregate-
    derived series must match the metrics document and the steps-on run."""
    trace = _trace("poisson")

    def registry_series(collect_steps):
        result = ServingSimulator(
            engine=engine, model=model, trace=trace,
            policy=make_policy("fcfs"), config=CONFIG,
            collect_steps=collect_steps,
        ).run()
        return result, metrics_registry(result).to_dict()["series"]

    result_off, series_off = registry_series(False)
    _, series_on = registry_series(True)
    doc = compute_metrics(result_off)
    assert series_off["steps.prefill"]["value"] == doc["steps"]["prefill"]
    assert series_off["steps.decode"]["value"] == doc["steps"]["decode"]
    assert series_off["queue.max_waiting"]["value"] == (
        doc["queue_depth"]["max_waiting"]
    )
    for key in (
        "steps.prefill", "steps.decode", "batch.max", "queue.max_waiting",
        "queue.mean_waiting", "queue.max_in_system", "requests.finished",
        "makespan_s",
    ):
        assert series_on[key] == series_off[key], key


def test_empty_trace_reports_zero_rates(engine, model):
    """compute_metrics regression: a zero makespan has no phantom rates."""
    result = ServingSimulator(
        engine=engine, model=model,
        trace=replay_trace([], name="empty"), config=CONFIG,
    ).run()
    doc = compute_metrics(result)
    assert doc["makespan_s"] == 0.0
    assert doc["slo"]["goodput_rps"] == 0.0
    assert doc["slo"]["attainment"] == 0.0
    assert doc["throughput"]["tokens_per_s"] == 0.0
    assert doc["throughput"]["requests_per_s"] == 0.0


def test_ordered_view_identity_scan_and_loud_failure():
    queue = AdmissionQueue(capacity=8)
    queue.attach_order(lambda r: (r.priority,))  # deliberately not total
    r1 = _req(0, prompt=16, gen=4)
    r2 = _req(1, prompt=16, gen=4)
    queue.offer(r1, 0.0)
    queue.offer(r2, 0.0)
    # Stale key: the bisect now misses, so only the identity scan can
    # find r1 — and it must remove r1 itself, not the value-equal r2.
    r1.priority = 5
    queue.take(r1)
    assert queue.ordered_view() == [r2]
    assert queue.ordered_view()[0] is r2
    # A genuinely absent request fails loudly instead of corrupting state.
    queue._ordered.clear()
    with pytest.raises(ServingError, match="ordered view lost request"):
        queue.take(r2)
