"""Arrival traces: Poisson, bursty (MMPP) and replayed request streams.

A trace is a *frozen* list of :class:`~repro.serving.request.RequestSpec`
entries, generated once from a seeded RNG and then shared across engine
runs — the comparison harness replays the identical trace through every
engine, and two generations with the same seed are byte-identical
(:mod:`repro.util.rng` streams, no global RNG state).

Generators
----------
* :func:`poisson_trace` — memoryless arrivals at a constant rate (the
  classic open-loop serving assumption);
* :func:`mmpp_trace` — a two-state Markov-modulated Poisson process:
  exponential dwell times alternate between a quiet and a bursty rate,
  the standard model for diurnal/bursty LLM traffic;
* :func:`load_trace` / :func:`trace_from_json` — replay recorded
  arrivals (e.g. a production trace exported as JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.request import RequestSpec
from repro.util.rng import seeded_rng


@dataclass(frozen=True)
class LengthSampler:
    """Per-request prompt/gen length distributions (log-normal, clipped).

    ``cv`` is the coefficient of variation of the underlying log-normal;
    0 degenerates to the constant ``mean``.  Samples are rounded to ints
    and clipped to ``[min_len, max_len]``.
    """

    prompt_mean: float = 64.0
    prompt_cv: float = 0.5
    gen_mean: float = 32.0
    gen_cv: float = 0.5
    min_len: int = 4
    max_len: int = 512

    @staticmethod
    def _lognormal_params(mean: float, cv: float) -> tuple[float, float]:
        """``(mu, sigma)`` of the log-normal with this mean and cv."""
        sigma2 = np.log1p(cv * cv)
        return np.log(mean) - 0.5 * sigma2, np.sqrt(sigma2)

    def _sample(self, rng: np.random.Generator, mean: float, cv: float) -> int:
        if cv <= 0:
            value = mean
        else:
            mu, sigma = self._lognormal_params(mean, cv)
            value = float(rng.lognormal(mu, sigma))
        return int(np.clip(round(value), self.min_len, self.max_len))

    def sample_pairs(
        self, rng: np.random.Generator, n: int
    ) -> tuple[list[int], list[int]]:
        """``n`` (prompt, gen) pairs from one vectorized draw, bitwise
        equal to alternating :meth:`sample_prompt` / :meth:`sample_gen`
        ``n`` times: the generator fills an array of log-normals in the
        same order, one normal each, and ``np.rint`` rounds half to even
        like ``round``.  Both cvs must be positive (a zero cv draws
        nothing)."""
        mu = np.empty(2 * n)
        sigma = np.empty(2 * n)
        params = self._lognormal_params
        mu[0::2], sigma[0::2] = params(self.prompt_mean, self.prompt_cv)
        mu[1::2], sigma[1::2] = params(self.gen_mean, self.gen_cv)
        draws = np.rint(rng.lognormal(mu, sigma))
        lens = np.clip(draws, self.min_len, self.max_len).astype(np.int64).tolist()
        return lens[0::2], lens[1::2]

    def sample_prompt(self, rng: np.random.Generator) -> int:
        return self._sample(rng, self.prompt_mean, self.prompt_cv)

    def sample_gen(self, rng: np.random.Generator) -> int:
        return self._sample(rng, self.gen_mean, self.gen_cv)


@dataclass(frozen=True)
class RequestTrace:
    """A frozen arrival trace plus a label for reports."""

    name: str
    requests: tuple[RequestSpec, ...]
    horizon_s: float

    def __post_init__(self) -> None:
        arrivals = [r.arrival_s for r in self.requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ServingError(f"trace {self.name!r}: arrivals must be sorted")

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_tokens(self) -> int:
        return sum(r.prompt_len + r.gen_len for r in self.requests)

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.requests)} requests over "
            f"{self.horizon_s:.1f}s ({self.total_tokens} prompt+gen tokens)"
        )

    def for_model(self, model: str) -> "RequestTrace":
        """The sub-trace of requests tagged ``model`` (arrival order kept)."""
        return RequestTrace(
            name=f"{self.name}[{model}]",
            requests=tuple(r for r in self.requests if r.model == model),
            horizon_s=self.horizon_s,
        )


def _specs_from_times(
    times: np.ndarray,
    lengths: LengthSampler,
    rng: np.random.Generator,
    priority_levels: int,
) -> tuple[RequestSpec, ...]:
    if priority_levels <= 1 and lengths.prompt_cv > 0 and lengths.gen_cv > 0:
        prompts, gens = lengths.sample_pairs(rng, len(times))
        return tuple(
            RequestSpec(arrival_s=t, prompt_len=p, gen_len=g)
            for t, p, g in zip(times.tolist(), prompts, gens)
        )
    # Priorities interleave an integer draw between requests, and a zero
    # cv skips its draw: both keep the per-request sequence.
    specs = []
    for t in times:
        prio = int(rng.integers(0, priority_levels)) if priority_levels > 1 else 0
        specs.append(
            RequestSpec(
                arrival_s=float(t),
                prompt_len=lengths.sample_prompt(rng),
                gen_len=lengths.sample_gen(rng),
                priority=prio,
            )
        )
    return tuple(specs)


def poisson_trace(
    rate: float,
    horizon_s: float,
    seed: int = 0,
    lengths: LengthSampler | None = None,
    priority_levels: int = 1,
    name: str | None = None,
) -> RequestTrace:
    """Poisson arrivals at ``rate`` req/s over ``[0, horizon_s)``."""
    if rate <= 0 or horizon_s <= 0:
        raise ServingError("poisson_trace: rate and horizon must be positive")
    rng = seeded_rng(seed, "serving", "poisson")
    lengths = lengths or LengthSampler()
    # Exponential gaps; slight overdraw then clip to the horizon.
    n_max = max(16, int(rate * horizon_s * 3) + 16)
    gaps = rng.exponential(1.0 / rate, size=n_max)
    times = np.cumsum(gaps)
    times = times[times < horizon_s]
    return RequestTrace(
        name=name or f"poisson(rate={rate:g})",
        requests=_specs_from_times(times, lengths, rng, priority_levels),
        horizon_s=horizon_s,
    )


def mmpp_trace(
    rate_low: float,
    rate_high: float,
    horizon_s: float,
    mean_dwell_s: float = 5.0,
    seed: int = 0,
    lengths: LengthSampler | None = None,
    priority_levels: int = 1,
    name: str | None = None,
) -> RequestTrace:
    """Two-state MMPP: alternate quiet/bursty Poisson phases.

    Dwell time in each state is exponential with mean ``mean_dwell_s``;
    within a state, arrivals are Poisson at that state's rate.
    """
    if min(rate_low, rate_high) <= 0 or horizon_s <= 0 or mean_dwell_s <= 0:
        raise ServingError("mmpp_trace: rates, horizon and dwell must be positive")
    rng = seeded_rng(seed, "serving", "mmpp")
    lengths = lengths or LengthSampler()
    times: list[float] = []
    t = 0.0
    state_high = False
    while t < horizon_s:
        dwell = float(rng.exponential(mean_dwell_s))
        phase_end = min(t + dwell, horizon_s)
        rate = rate_high if state_high else rate_low
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= phase_end:
                break
            times.append(t)
        t = phase_end
        state_high = not state_high
    return RequestTrace(
        name=name or f"mmpp({rate_low:g}/{rate_high:g})",
        requests=_specs_from_times(np.asarray(times), lengths, rng, priority_levels),
        horizon_s=horizon_s,
    )


def multimodel_trace(
    rates: dict[str, float],
    horizon_s: float,
    seed: int = 0,
    lengths: dict[str, LengthSampler] | LengthSampler | None = None,
    priority_levels: dict[str, int] | int = 1,
    priorities: dict[str, int] | None = None,
    name: str | None = None,
) -> RequestTrace:
    """Superpose one Poisson stream per model into a single tagged trace.

    ``rates`` maps model name -> arrivals/s.  Each model draws from its
    *own* seeded stream (keyed by the model name), so adding a model to
    the mix never perturbs the other models' arrivals — the dedicated-
    replica baseline and the co-resident run replay literally the same
    per-model requests.  Streams are merged in arrival order with ties
    broken by model name (a total order, so the merge is deterministic).

    ``priorities`` gives each model a fixed priority base added to the
    (optionally random) per-request level — the "SLO class as priority"
    idiom a preemptive scheduler keys cross-model eviction on.
    """
    if horizon_s <= 0:
        raise ServingError("multimodel_trace: horizon must be positive")
    if not rates:
        raise ServingError("multimodel_trace: at least one model rate required")
    for model, rate in rates.items():
        if rate <= 0:
            raise ServingError(
                f"multimodel_trace: rate for {model!r} must be positive "
                f"(got {rate:g})"
            )
    merged: list[RequestSpec] = []
    for model in sorted(rates):
        rng = seeded_rng(seed, "serving", "multimodel", model)
        sampler = (
            lengths.get(model, LengthSampler())
            if isinstance(lengths, dict)
            else (lengths or LengthSampler())
        )
        levels = (
            priority_levels.get(model, 1)
            if isinstance(priority_levels, dict)
            else priority_levels
        )
        base_priority = (priorities or {}).get(model, 0)
        rate = rates[model]
        n_max = max(16, int(rate * horizon_s * 3) + 16)
        times = np.cumsum(rng.exponential(1.0 / rate, size=n_max))
        times = times[times < horizon_s]
        for spec in _specs_from_times(times, sampler, rng, levels):
            merged.append(
                RequestSpec(
                    arrival_s=spec.arrival_s,
                    prompt_len=spec.prompt_len,
                    gen_len=spec.gen_len,
                    priority=base_priority + spec.priority,
                    model=model,
                )
            )
    merged.sort(key=lambda r: (r.arrival_s, r.model))
    return RequestTrace(
        name=name
        or "multimodel("
        + ",".join(f"{m}={rates[m]:g}" for m in sorted(rates))
        + ")",
        requests=tuple(merged),
        horizon_s=horizon_s,
    )


def trace_from_json(text: str) -> RequestTrace:
    """Parse a trace document: ``name``, ``horizon_s`` and ``requests``,
    each with ``arrival_s``, ``prompt_len``, ``gen_len`` and optional
    ``priority`` and ``model``."""
    doc = json.loads(text)
    try:
        specs = tuple(
            RequestSpec(
                arrival_s=float(r["arrival_s"]),
                prompt_len=int(r["prompt_len"]),
                gen_len=int(r["gen_len"]),
                priority=int(r.get("priority", 0)),
                model=str(r.get("model", "")),
            )
            for r in sorted(doc["requests"], key=lambda r: r["arrival_s"])
        )
        return RequestTrace(
            name=str(doc.get("name", "replay")),
            requests=specs,
            horizon_s=float(doc["horizon_s"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServingError(f"malformed trace JSON: {exc}") from exc


def load_trace(path: str) -> RequestTrace:
    with open(path, encoding="utf-8") as fh:
        return trace_from_json(fh.read())


def default_trace(quick: bool = False, seed: int = 0) -> RequestTrace:
    """The bundled comparison trace (deterministic for any fixed seed).

    Poisson at 2 req/s — the ISSUE's acceptance workload — over a 30 s
    window (6 s when ``quick``, the CI smoke configuration).
    """
    horizon = 6.0 if quick else 30.0
    return poisson_trace(
        rate=2.0,
        horizon_s=horizon,
        seed=seed,
        lengths=LengthSampler(prompt_mean=64, gen_mean=32, max_len=256),
        name=f"default-poisson-2.0{'-quick' if quick else ''}",
    )
