"""Trace builders the serving tests share.

``repro`` reads trace files (``serve-sim --arrival replay``) but no
command writes one; these helpers build traces from explicit rows and
write them in the format :func:`repro.serving.load_trace` reads.
"""

import json

from repro.serving import RequestSpec, RequestTrace


def replay_trace(
    entries: list[tuple[float, int, int] | tuple[float, int, int, int]],
    horizon_s: float | None = None,
    name: str = "replay",
) -> RequestTrace:
    """Build a trace from explicit ``(arrival_s, prompt, gen[, prio])`` rows."""
    specs = tuple(
        RequestSpec(
            arrival_s=float(e[0]),
            prompt_len=int(e[1]),
            gen_len=int(e[2]),
            priority=int(e[3]) if len(e) > 3 else 0,
        )
        for e in sorted(entries, key=lambda e: e[0])
    )
    if horizon_s is None:
        horizon_s = (specs[-1].arrival_s + 1.0) if specs else 1.0
    return RequestTrace(name=name, requests=specs, horizon_s=horizon_s)


def save_trace(trace: RequestTrace, path) -> None:
    """Write ``trace`` as the JSON document ``load_trace`` reads; the model
    tag is written only when set."""
    doc = {
        "name": trace.name,
        "horizon_s": trace.horizon_s,
        "requests": [
            {
                "arrival_s": r.arrival_s,
                "prompt_len": r.prompt_len,
                "gen_len": r.gen_len,
                "priority": r.priority,
                **({"model": r.model} if r.model else {}),
            }
            for r in trace.requests
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
