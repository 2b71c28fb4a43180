"""One perfbench repetition, started by ``run.py`` in a fresh process.

    PYTHONPATH=src python perfbench/rep.py WORKLOAD SEED TRACE SPAWNED_AT [SPANS]

``SPAWNED_AT`` is ``time.monotonic()`` read by the parent just before it
started this process; the clock is system-wide, so ``setup_s`` covers
interpreter start-up, imports, input generation and construction, up to
the one timed call.  With ``TRACE`` = 1 the timed call runs under a
:class:`tracing.Tracer` and its spans are written to ``SPANS``.  The
last line of stdout is one JSON object describing the repetition.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

CALIBRATION_LOOPS = 1_500_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.  ``run.py``
    divides a repetition's times by this over its reference value, which
    factors out how fast other tenants let the machine run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def measure(
    name: str,
    seed: int,
    trace: bool,
    spawned: float,
    spans: Path | None = None,
    small: bool = False,
) -> dict:
    """Set up, make the timed call and summarise; the record ``run.py``
    reads.  An exception is reported in the record, not raised."""
    out: dict = {}
    try:
        import workloads
        from tracing import Tracer

        t_imported = time.monotonic()
        wl = workloads.WORKLOADS[name]
        inputs = wl.inputs(seed, small)
        out["attempted"] = wl.attempted(inputs)
        t_inputs = time.monotonic()
        state = wl.build(inputs)
        t_built = time.monotonic()
        out.update(
            setup_s=t_built - spawned,
            import_s=t_imported - spawned,
            inputs_s=t_inputs - t_imported,
            build_s=t_built - t_inputs,
        )
        tracer = Tracer() if trace else None
        calib_s = calibrate()
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            result = wl.run(state)
            wall_s = time.perf_counter() - t0
        calib_s = (calib_s + calibrate()) / 2
        summary = wl.summarize(inputs, result)
        out.update(
            wall_s=wall_s,
            calib_s=calib_s,
            ops=summary.ops,
            digest=summary.digest,
            problems=summary.problems,
            cell_s=summary.cell_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            out["layers"] = tracer.metrics(wall_s, summary.counters)
            if spans is not None:
                tracer.write(spans, f"{name}-seed{seed}", t0)
    except Exception as exc:
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def main(argv: list[str]) -> int:
    out = measure(
        argv[0], int(argv[1]), argv[2] == "1", float(argv[3]),
        Path(argv[4]) if len(argv) > 4 else None,
    )
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
