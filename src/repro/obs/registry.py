"""Typed metrics registry: named Counter / Gauge / Histogram / TimeSeries.

One registry instance is the single place a layer's counters live, in
place of the ad-hoc ``dict`` accumulators that used to be scattered over
the serving metrics, the bench harnesses and the fault bookkeeping.
Four series types cover everything the repo records:

* :class:`Counter`  — monotone event tallies (steps run, drops by reason);
* :class:`Gauge`    — last-written point-in-time values that also track
  their running min/max (queue depth, batch size);
* :class:`Histogram` — full sample sets with exact nearest-rank
  percentiles (latency distributions, per-step durations).  Samples are
  kept raw — no bucketing error — because every producer in this repo is
  a simulator whose sample counts are small and whose serialized output
  must be bit-stable;
* :class:`TimeSeries` — ``(virtual_timestamp, value)`` samples in a
  bounded ring buffer, for quantities whose *trajectory* matters (queue
  depth over the run, per-step price, the active degradation rung) rather
  than just their end-of-run aggregate.  When the ring overflows, the
  oldest samples are evicted and counted in ``dropped`` — a run's tail is
  always retained and nothing ever grows without bound.

Serialization is deterministic by construction: ``to_dict`` orders series
by name, histograms summarize with the same nearest-rank arithmetic the
SLO metrics use, and nothing records wall-clock time.  The registry can
also render itself as Chrome-trace counter rows so a metrics export and a
timeline export stay one artifact (``export_chrome``).

The module is dependency-free (stdlib only) so every layer — including
``repro.runtime``, which ``repro.perfmodel`` imports — can use it without
import cycles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction


def exact_nearest_rank(values: list[float], pct: float | int) -> float:
    """Nearest-rank percentile with *exact* rank arithmetic.

    The rank is ``ceil(n * pct / 100)`` computed over rationals, so float
    percentiles (99.9) are handled exactly: ``Fraction(str(pct))`` parses
    the decimal literal the caller wrote rather than the binary float it
    became, and the ceiling is taken without ever rounding through a
    float.  (The previous trick ``-(-n * pct // 100)`` ran in float
    arithmetic for float ``pct``; whenever ``n * pct / 100`` is
    mathematically an integer but the float product lands epsilon above
    it, the ceiling bumps the rank by one — e.g. n=250, pct=64.4 picked
    rank 162 instead of 161.)
    """
    if not values:
        return 0.0
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(Fraction(n) * Fraction(str(pct)) / 100))
    return ordered[min(rank, n) - 1]


@dataclass
class Counter:
    """A monotonically increasing event tally."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: increment must be >= 0")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """A point-in-time value that remembers its running extremes."""

    name: str
    help: str = ""
    value: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    samples: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.samples += 1

    def to_dict(self) -> dict:
        out: dict = {"type": "gauge", "value": self.value, "samples": self.samples}
        if self.samples:
            out["min"] = self.min
            out["max"] = self.max
        return out


@dataclass
class Histogram:
    """A raw-sample distribution with exact nearest-rank percentiles."""

    name: str
    help: str = ""
    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else 0.0

    def percentile(self, pct: float | int) -> float:
        return exact_nearest_rank(self.values, pct)

    def summary(self, percentiles: tuple[float | int, ...] = (50, 95, 99)) -> dict:
        out = {f"p{p:g}": self.percentile(p) for p in percentiles}
        out["mean"] = self.mean
        return out

    def to_dict(self) -> dict:
        out: dict = {"type": "histogram", "count": self.count}
        if self.values:
            out["sum"] = self.sum
            out["mean"] = self.mean
            out["min"] = min(self.values)
            out["max"] = max(self.values)
            for p in (50, 95, 99):
                out[f"p{p:g}"] = self.percentile(p)
        return out


@dataclass
class TimeSeries:
    """Per-step samples at virtual timestamps, in a bounded ring buffer.

    ``sample(t_s, value)`` appends one point; once ``capacity`` points are
    held, each new sample evicts the oldest (``dropped`` counts the
    evictions).  Timestamps are virtual-clock seconds from the producer —
    nothing here reads a wall clock, so serialization is deterministic.
    """

    name: str
    help: str = ""
    capacity: int = 4096
    dropped: int = 0
    _points: list[tuple[float, float]] = field(default_factory=list, repr=False)
    _head: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(
                f"timeseries {self.name}: capacity must be positive "
                f"(got {self.capacity})"
            )

    def sample(self, t_s: float, value: float) -> None:
        """Record ``value`` at virtual time ``t_s`` (evicting when full)."""
        if len(self._points) < self.capacity:
            self._points.append((t_s, value))
        else:  # reach: input: more samples than the series holds (tests/test_obs.py::test_timeseries_ring_evicts_oldest_and_counts_drops)
            self._points[self._head] = (t_s, value)
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    @property
    def count(self) -> int:
        """Points currently held (<= capacity)."""
        return len(self._points)

    def points(self) -> list[tuple[float, float]]:
        """Retained points in chronological (recording) order."""
        return self._points[self._head :] + self._points[: self._head]

    def to_dict(self) -> dict:
        out: dict = {
            "type": "timeseries",
            "count": self.count,
            "capacity": self.capacity,
            "dropped": self.dropped,
        }
        pts = self.points()
        if pts:
            vals = [v for _, v in pts]
            out["first_t_s"] = pts[0][0]
            out["last_t_s"] = pts[-1][0]
            out["min"] = min(vals)
            out["max"] = max(vals)
            out["last"] = vals[-1]
            out["points"] = [[t, v] for t, v in pts]
        return out


class MetricsRegistry:
    """Get-or-create home for named series, serialized deterministically.

    Series names are dotted paths (``serving.drops.queue_full``); a name
    maps to exactly one series type for the registry's lifetime —
    re-registering under a different type is a programming error and
    raises immediately rather than silently forking the series.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._series: dict[str, Counter | Gauge | Histogram | TimeSeries] = {}

    def _get(self, cls, name: str, help: str):
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = cls(name=name, help=help)
        elif not isinstance(series, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(series).__name__}, requested {cls.__name__}"
            )
        return series

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def timeseries(
        self, name: str, help: str = "", capacity: int = 4096
    ) -> TimeSeries:
        """Get-or-create a :class:`TimeSeries`.  ``capacity`` binds only at
        creation; later calls return the existing ring unchanged."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(
                name=name, help=help, capacity=capacity
            )
        elif not isinstance(series, TimeSeries):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(series).__name__}, requested TimeSeries"
            )
        return series

    def to_dict(self) -> dict:
        """Deterministic document: series sorted by name, typed payloads."""
        doc: dict = {"series": {}}
        if self.namespace:
            doc["namespace"] = self.namespace
        for name in sorted(self._series):
            doc["series"][name] = self._series[name].to_dict()
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def export_chrome(self, builder, ts_s: float = 0.0, resource: str = "metrics") -> None:
        """Render every scalar series as Chrome-trace counter rows.

        Counters and gauges become one counter sample each; histograms
        emit their count and mean (the distribution itself belongs in the
        JSON export, not a trace row); time series emit one counter row
        *per retained point at that point's own timestamp*, so the viewer
        draws the actual curve over virtual time.  ``builder`` is a
        :class:`~repro.trace.chrome.ChromeTraceBuilder` (duck-typed to
        avoid an import cycle: trace imports nothing from here).
        """
        for name in sorted(self._series):
            series = self._series[name]
            if isinstance(series, (Counter, Gauge)):
                builder.add_counter(name, ts_s, resource=resource, value=series.value)
            elif isinstance(series, TimeSeries):
                for t, v in series.points():
                    builder.add_counter(name, t, resource=resource, value=v)
            else:
                builder.add_counter(
                    name, ts_s, resource=resource,
                    count=float(series.count), mean=series.mean,
                )
