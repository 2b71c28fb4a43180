"""Compare two perfbench result files, workload by workload.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``run.py --out``.  For every workload and
end-to-end metric the table shows each side's median and quartiles over
its repetitions and a verdict, using the metric's direction and bound
from ``BENCHMARK.json``:

* ``worse`` / ``better``: NEW's median is beyond the bound on that side
  of BASE's;
* ``unchanged``: the medians are within the bound;
* ``unresolved``: either side's quartile spread exceeds the bound, so
  the medians cannot be trusted to that precision, unless every run of
  one side beats every run of the other.

Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """Verdict on NEW against BASE for one metric."""
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    separated = max(new) < min(base) or max(base) < min(new)
    if not separated and ((q3b - q1b) / mb > bound or (q3n - q1n) / mn > bound):
        return "unresolved"
    worse_by = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Table lines and whether any metric got worse."""
    metrics = spec["end_to_end"]
    width = max(len(m["name"]) for m in metrics)
    lines = [f"{'workload':<13} " + " ".join(f"{m['name']:>{width}}" for m in metrics)]
    detail = []
    any_worse = False
    for name, b in base["workloads"].items():
        if name not in new["workloads"]:
            continue
        n = new["workloads"][name]
        cells = []
        for m in metrics:
            bs, ns = b["samples"][m["name"]], n["samples"][m["name"]]
            v = verdict(bs, ns, m["bound"], m["better"])
            any_worse |= v == "worse"
            cells.append(f"{v:>{width}}")
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            qb, qn = quartiles(bs), quartiles(ns)
            detail.append(
                f"{name:<13} {m['name']:<{width}}  base "
                + fmt.format(qb[1], qb[0], qb[2])
                + "  new " + fmt.format(qn[1], qn[0], qn[2])
                + f"  {m['unit']}  bound {m['bound']:.0%}  {v}"
            )
        lines.append(f"{name:<13} " + " ".join(cells))
    return lines + [""] + detail, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, any_worse = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
