"""Arrival-trace generators: determinism, distributions, round-trips."""

import json

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving.arrivals import (
    LengthSampler,
    RequestTrace,
    _specs_from_times,
    default_trace,
    load_trace,
    mmpp_trace,
    poisson_trace,
    trace_from_json,
)
from repro.serving.request import RequestSpec
from repro.util.rng import seeded_rng, spawn_seed
from tests.traces import replay_trace, save_trace


# -- the shared RNG helper -------------------------------------------------


def test_spawn_seed_is_deterministic_and_stream_sensitive():
    assert spawn_seed(0, "serving", "poisson") == spawn_seed(0, "serving", "poisson")
    assert spawn_seed(0, "serving", "poisson") != spawn_seed(0, "serving", "mmpp")
    assert spawn_seed(0, "serving") != spawn_seed(1, "serving")


def test_seeded_rng_streams_are_independent():
    a = seeded_rng(7, "whatif", 0).random(4).tolist()
    b = seeded_rng(7, "whatif", 1).random(4).tolist()
    again = seeded_rng(7, "whatif", 0).random(4).tolist()
    assert a == again
    assert a != b


# -- generators ------------------------------------------------------------


def test_poisson_trace_same_seed_identical():
    t1 = poisson_trace(rate=3.0, horizon_s=10.0, seed=42)
    t2 = poisson_trace(rate=3.0, horizon_s=10.0, seed=42)
    assert t1.requests == t2.requests


def test_poisson_trace_seed_changes_trace():
    t1 = poisson_trace(rate=3.0, horizon_s=10.0, seed=0)
    t2 = poisson_trace(rate=3.0, horizon_s=10.0, seed=1)
    assert t1.requests != t2.requests


def test_poisson_trace_respects_horizon_and_order():
    trace = poisson_trace(rate=5.0, horizon_s=8.0, seed=0)
    arrivals = [r.arrival_s for r in trace.requests]
    assert arrivals == sorted(arrivals)
    assert all(0 <= a < 8.0 for a in arrivals)
    # ~rate*horizon arrivals, very loosely (Poisson count).
    assert 10 <= len(trace) <= 90


def test_poisson_trace_rejects_bad_params():
    with pytest.raises(ServingError):
        poisson_trace(rate=0.0, horizon_s=10.0)
    with pytest.raises(ServingError):
        poisson_trace(rate=1.0, horizon_s=-1.0)


def test_mmpp_trace_deterministic_and_bursty():
    t1 = mmpp_trace(rate_low=0.5, rate_high=8.0, horizon_s=40.0, seed=3)
    t2 = mmpp_trace(rate_low=0.5, rate_high=8.0, horizon_s=40.0, seed=3)
    assert t1.requests == t2.requests
    arrivals = [r.arrival_s for r in t1.requests]
    assert arrivals == sorted(arrivals)
    assert all(0 <= a < 40.0 for a in arrivals)
    # Burstiness: inter-arrival CV above a plain Poisson's ~1.
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    mean = sum(gaps) / len(gaps)
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    assert (var ** 0.5) / mean > 1.0


def test_length_sampler_bounds_and_cv_zero():
    sampler = LengthSampler(prompt_mean=64, prompt_cv=0.0, gen_mean=32,
                            gen_cv=2.0, min_len=8, max_len=100)
    rng = seeded_rng(0, "test")
    prompts = [sampler.sample_prompt(rng) for _ in range(50)]
    gens = [sampler.sample_gen(rng) for _ in range(50)]
    assert set(prompts) == {64}  # cv=0 degenerates to the mean
    assert all(8 <= g <= 100 for g in gens)
    assert len(set(gens)) > 1


@pytest.mark.parametrize(
    "sampler",
    [
        LengthSampler(),
        LengthSampler(prompt_mean=64, gen_mean=32, max_len=256),
        LengthSampler(prompt_mean=300, prompt_cv=2.0, gen_mean=10, gen_cv=3.0,
                      min_len=1, max_len=100_000),
    ],
)
def test_vectorized_lengths_equal_per_request_draws(sampler):
    """One array draw is bitwise the alternating per-request draws, and
    leaves the generator in the same state."""
    fast_rng, slow_rng = seeded_rng(3, "test"), seeded_rng(3, "test")
    prompts, gens = sampler.sample_pairs(fast_rng, 4000)
    slow = [
        (sampler.sample_prompt(slow_rng), sampler.sample_gen(slow_rng))
        for _ in range(4000)
    ]
    assert list(zip(prompts, gens)) == slow
    assert all(type(v) is int for v in prompts + gens)
    assert fast_rng.random() == slow_rng.random()


@pytest.mark.parametrize("levels,prompt_cv", [(1, 0.5), (3, 0.5), (1, 0.0)])
def test_trace_specs_equal_the_per_request_loop(levels, prompt_cv):
    """Every generator path builds the specs the per-request loop would:
    vectorized when it can, per request when priorities interleave draws
    or a zero cv skips one."""
    sampler = LengthSampler(prompt_cv=prompt_cv)
    times = np.cumsum(seeded_rng(1, "test").exponential(0.5, 300))
    specs = _specs_from_times(times, sampler, seeded_rng(2, "test"), levels)
    rng = seeded_rng(2, "test")
    loop = []
    for t in times:
        prio = int(rng.integers(0, levels)) if levels > 1 else 0
        loop.append(RequestSpec(
            arrival_s=float(t), prompt_len=sampler.sample_prompt(rng),
            gen_len=sampler.sample_gen(rng), priority=prio,
        ))
    assert specs == tuple(loop)
    assert all(type(s.arrival_s) is float for s in specs)


def test_priority_levels_sampled():
    trace = poisson_trace(rate=5.0, horizon_s=10.0, seed=0, priority_levels=3)
    prios = {r.priority for r in trace.requests}
    assert prios <= {0, 1, 2}
    assert len(prios) > 1


# -- replay and JSON round-trip --------------------------------------------


def test_replay_trace_sorts_entries():
    trace = replay_trace([(2.0, 16, 8), (0.5, 32, 4, 1)])
    assert [r.arrival_s for r in trace.requests] == [0.5, 2.0]
    assert trace.requests[0].priority == 1
    assert trace.horizon_s == pytest.approx(3.0)


def test_trace_json_round_trip(tmp_path):
    trace = poisson_trace(rate=2.0, horizon_s=5.0, seed=9, priority_levels=2,
                          name="rt")
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    back = load_trace(str(path))
    assert back == trace


def test_trace_from_json_rejects_malformed():
    with pytest.raises(ServingError):
        trace_from_json(json.dumps({"requests": [{"arrival_s": 1.0}]}))


def test_trace_rejects_unsorted_arrivals():
    with pytest.raises(ServingError):
        RequestTrace(
            name="bad",
            requests=(RequestSpec(2.0, 8, 4), RequestSpec(1.0, 8, 4)),
            horizon_s=3.0,
        )


def test_default_trace_quick_is_smaller():
    quick = default_trace(quick=True)
    full = default_trace(quick=False)
    assert quick.horizon_s < full.horizon_s
    assert len(quick) < len(full)
    # Quick is a prefix workload of the same seeded stream's parameters.
    assert quick.name.endswith("-quick")
