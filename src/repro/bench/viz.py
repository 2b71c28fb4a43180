"""Terminal visualisation: sparklines and one-line sweep summaries.

Keeps the CLI and examples dependency-free while still conveying the
sweeps' shapes at a glance.
"""

from __future__ import annotations

from typing import Mapping, Sequence

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a numeric series (constant series -> midline)."""
    vals = [float(v) for v in values]
    if not vals:  # reach: tests/test_viz_and_block_runner.py::test_sparkline_constant_and_empty
        return ""
    lo, hi = min(vals), max(vals)
    if hi == lo:  # reach: tests/test_viz_and_block_runner.py::test_sparkline_constant_and_empty
        return _SPARK[3] * len(vals)
    span = hi - lo
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK) - 1))
        out.append(_SPARK[idx])
    return "".join(out)


def sweep_summary(
    points: Sequence[Mapping[str, float]],
    x_key: str,
    y_key: str,
    label: str = "",
) -> str:
    """One-line sweep summary: label, sparkline, best point."""
    xs = [p[x_key] for p in points]
    ys = [p[y_key] for p in points]
    best = max(range(len(ys)), key=lambda i: ys[i])
    return (
        f"{label + ': ' if label else ''}{sparkline(ys)}  "
        f"best {y_key}={ys[best]:g} at {x_key}={xs[best]:g}"
    )
