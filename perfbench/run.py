"""perfbench: end-to-end and per-layer benchmark of the planner, the step
oracle, the serving loop and the fault layers.

    python3 perfbench/run.py [--workload W] [--seed S] [--seconds T]
                             [--repeats R] [--trace [0|1]] [--out PATH] [--list]

Every repetition runs ``rep.py`` in a fresh single-threaded process,
strictly one after another.  Untraced repetitions keep starting until
``--seconds`` have passed and at least ``--repeats`` have run.
``--trace`` adds one traced repetition, whose spans go to
``perfbench/out/<workload>.spans.json``.  For each workload the runner
prints ``workload metric value unit`` lines, a ``#`` line with the
output digest, and one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (medians over the untraced repetitions) or, with ``--trace``,
the per-layer metrics.  ``--out`` also writes every sample for
``compare.py``.

Exit status: 0 when every operation succeeded, 1 when one failed (it
raised, broke an invariant, or its repetition's output digest differs
from the pinned one), 2 when the repository has no ``src/repro`` or
``--out`` cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run ends within three minutes: no untraced repetition starts once
#: it could end after START_BY_S, and a child still running at KILL_AT_S
#: is killed.
START_BY_S, KILL_AT_S = 150.0, 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")
#: Median of 40 ``rep.calibrate()`` calls on a 2-vCPU Intel Xeon VM at
#: 2.0 GHz under Python 3.11.  A repetition whose calibration took k times
#: this ran on a machine k times slower, so its times are divided by k:
#: every end-to-end time is in seconds at this reference speed.
REF_CALIB_S = 0.12


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # Every child imports from bytecode caches, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(name: str, seed: int, spans: Path | None, timeout: float) -> dict:
    """Run one repetition to completion and return its record."""
    cmd = [sys.executable, str(HERE / "rep.py"), name, str(seed),
           "1" if spans else "0"]
    began = time.monotonic()
    cmd.append(repr(began))
    if spans:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s",
                "elapsed_s": time.monotonic() - began}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"exit {proc.returncode}, no result"}
    if "error" in record:
        sys.stderr.write(proc.stderr)
    record["elapsed_s"] = time.monotonic() - began
    return record


def percentile_ms(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of samples in seconds, in ms."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return 1000.0 * ordered[int(rank) - 1]


def slowdown(rep: dict) -> float:
    return rep["calib_s"] / REF_CALIB_S


def samples(reps: list[dict]) -> dict[str, list[float]]:
    """Per-repetition values of every end-to-end metric, times scaled to
    the reference speed."""
    timed = [r for r in reps if "wall_s" in r]
    return {
        "wall_s": [r["wall_s"] / slowdown(r) for r in timed],
        "ops_per_s": [r["ops"] * slowdown(r) / r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] / slowdown(r) for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }


def layer_metrics(reps: list[dict], traced: dict) -> dict[str, float]:
    """The traced repetition's span metrics plus what the untraced
    repetitions measured: set-up phases, per-cell latency and the
    tracing overhead."""
    out = dict(traced.get("layers", {}))
    for phase in ("import", "inputs", "build"):
        values = [r[f"{phase}_s"] for r in reps if f"{phase}_s" in r]
        out[f"setup.{phase}_s"] = statistics.median(values) if values else 0.0
    cells = [t for r in reps for t in r.get("cell_s", [])]
    out["engine.run.p50_ms"] = percentile_ms(cells, 50)
    out["engine.run.p95_ms"] = percentile_ms(cells, 95)
    timed = [r for r in reps if "wall_s" in r]
    out["machine.slowdown"] = (
        statistics.median(slowdown(r) for r in timed) if timed else 0.0
    )
    out["trace.overhead"] = (
        traced["wall_s"] / slowdown(traced)
        / statistics.median(r["wall_s"] / slowdown(r) for r in timed) - 1
        if timed and "wall_s" in traced else 0.0
    )
    return out


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def run_workload(
    name: str, args: argparse.Namespace, spec: dict, pinned: dict, began: float
) -> dict:
    reps: list[dict] = []
    longest = 0.0

    def elapsed() -> float:
        return time.monotonic() - began

    while (
        len(reps) < args.repeats or elapsed() < args.seconds
    ) and elapsed() + longest < START_BY_S:
        reps.append(spawn(name, args.seed, None, KILL_AT_S - elapsed()))
        longest = max(longest, reps[-1]["elapsed_s"])
    traced = None
    if args.trace:
        traced = spawn(name, args.seed, HERE / "out" / f"{name}.spans.json",
                       KILL_AT_S - elapsed())

    records = reps + ([traced] if traced else [])
    # A digest pinned under "*" holds for every seed.
    expected = pinned.get("*", pinned.get(str(args.seed)))
    if expected is None:
        # Unpinned seed: every repetition must still agree with the others.
        seen = Counter(r["digest"] for r in records if "digest" in r)
        expected = seen.most_common(1)[0][0] if seen else None
    known = [r["attempted"] for r in records if "attempted" in r]
    attempted = failed = 0
    for r in records:
        ops = r.get("attempted", max(known, default=1))
        attempted += ops
        if "error" in r or r.get("problems") or r.get("digest") != expected:
            failed += ops
    if args.trace:
        metrics = layer_metrics(reps, traced or {})
        names = spec["per_layer"]
    else:
        metrics = {k: statistics.median(v) for k, v in samples(reps).items() if v}
        names = spec["end_to_end"]
    return {
        "correct": failed == 0 and expected is not None,
        "attempted": attempted,
        "failed": failed,
        "digest": expected,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names if m["name"] in metrics},
        "samples": samples(reps),
        "reps": [{k: v for k, v in r.items() if k not in ("cell_s", "layers")}
                 for r in records],
    }


def list_metrics(spec: dict) -> None:
    for m in spec["end_to_end"]:
        print(f"{m['name']} {m['unit']} end-to-end")
    for m in spec["per_layer"]:
        print(f"{m['name']} {m['unit']} {m['name'].split('.')[0]}")


def main(argv: list[str] | None = None) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="seconds to keep starting untraced repetitions")
    ap.add_argument("--repeats", type=int, default=3,
                    help="minimum untraced repetitions per workload (default 3)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add a traced repetition and report "
                    "the per-layer metrics")
    ap.add_argument("--out", type=Path, help="write every sample to this JSON file")
    ap.add_argument("--list", action="store_true",
                    help="print every metric with its unit and layer, run nothing")
    args = ap.parse_args(argv)
    if args.list:
        list_metrics(spec)
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.out is not None:
        # Fail on a bad path now, not after minutes of work.
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.open("a").close()
        except OSError as exc:
            print(f"perfbench: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2

    pinned = load_json(HERE / "digests.json")
    results = {}
    for name in [args.workload] if args.workload else names:
        res = results[name] = run_workload(
            name, args, spec, pinned.get(name, {}), time.monotonic()
        )
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        print(f"# {name} seed={args.seed} digest={res['digest']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    if args.out is not None:
        doc = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "workloads": results}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
