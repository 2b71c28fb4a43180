"""Per-layer spans for perfbench, recorded from outside the program.

:class:`Tracer` replaces the public entry points of each layer with
wrappers that record one span per call: name, start, end, parent span
and whether the call raised.  Class methods are wrapped on the class
that defines them; a module-level function is wrapped in its module and
in every ``repro`` module that bound it with ``from ... import``.
Leaving the ``with`` block puts every original attribute back.

Spans stay in memory as parallel lists and are written out once, at the
end, by :meth:`Tracer.write`.  A span's self time is its duration minus
the durations of its direct children; calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

_ENGINE = ("plan", "plan_cached", "retarget", "set_degradation", "run")
#: (layer, module, class or None for a module function, attributes).  A
#: span is named ``<layer>.<attribute>``.
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("engine", "repro.core.engine", "LMOffloadEngine", _ENGINE),
    ("engine", "repro.baselines.flexgen", "FlexGenEngine", _ENGINE),
    ("engine", "repro.baselines.zero_inference", "ZeroInferenceEngine", _ENGINE),
    ("planner", "repro.offload.planner", "PolicyPlanner",
     ("search", "search_fixed", "lp_placement")),
    ("parallel", "repro.parallel.controller", "ParallelismController", ("plan",)),
    ("perfmodel", "repro.perfmodel.latency", "CostModel",
     ("breakdown", "check_feasible", "decode_task_costs_vec")),
    ("oracle", "repro.serving.costing", "StepCostOracle",
     ("planned", "decode_step_seconds", "prefill_seconds", "feasible",
      "invalidate")),
    ("loop", "repro.serving.simulator", "ServingSimulator", ("run",)),
    ("loop", "repro.serving.fleet", "FleetSimulator", ("run",)),
    ("loop", "repro.serving.simulator", None, ("admit_batch",)),
    ("queue", "repro.serving.queue", "AdmissionQueue", ("offer", "take", "expire")),
    ("faults", "repro.hardware.platform", "Platform", ("with_faults",)),
)

#: Layers whose self time is reported as a share of the traced wall.
TIMED_LAYERS = (
    "engine", "planner", "parallel", "perfmodel", "oracle", "loop", "queue", "faults",
)


class Tracer:
    """Context manager that wraps every target and records spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.raised: set[int] = set()
        #: span id -> the question an ``engine.plan`` call answered.
        self.plan_keys: dict[int, tuple] = {}
        self._stack: list[int] = []
        #: id(engine) -> degradation rung last set on it.
        self._rungs: dict[int, Any] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Any) -> Any:
        names, start, end, parent = self.names, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            if name == "engine.plan":
                self.plan_keys[sid] = self._plan_key(args, kwargs)
            elif name == "engine.set_degradation":
                self._rungs[id(args[0])] = args[1] if len(args) > 1 else kwargs["rung"]
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised.add(sid)
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def _plan_key(self, args: tuple, kwargs: dict) -> tuple:
        engine, *rest = args
        platform = engine.platform
        return (
            type(engine).__qualname__,
            repr(engine.hw),
            repr(platform.cpu),
            repr(platform.cache),
            repr(self._rungs.get(id(engine))),
            repr(rest),
            repr(sorted(kwargs.items())),
        )

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for layer, module_name, cls_name, attrs in TARGETS:
                module = importlib.import_module(module_name)
                for attr in attrs:
                    name = f"{layer}.{attr}"
                    if cls_name is not None:
                        cls = getattr(module, cls_name)
                        self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                        continue
                    original = getattr(module, attr)
                    wrapper = self._wrap(name, original)
                    for mod in list(sys.modules.values()):
                        if (
                            getattr(mod, "__name__", "").startswith("repro")
                            and mod.__dict__.get(attr) is original
                        ):
                            self._patch(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def metrics(self, wall_s: float, counters: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics of the traced call; ``counters`` adds the
        counts read from the run's result objects."""
        own = self.self_times()
        calls: Counter[str] = Counter(self.names)
        self_s: Counter[str] = Counter()
        for name, t in zip(self.names, own):
            self_s[name] += t
        children: Counter[int] = Counter(p for p in self.parent if p >= 0)

        def hit_rate(name: str) -> float:
            # A cached call that hits makes no traced call beneath it.
            ids = [i for i, n in enumerate(self.names) if n == name]
            return sum(1 for i in ids if not children[i]) / len(ids) if ids else 0.0

        layer_s = {
            layer: sum(t for n, t in self_s.items() if n.startswith(layer + "."))
            for layer in TIMED_LAYERS
        }
        plan_calls = calls["engine.plan"]
        distinct = len(set(self.plan_keys.values()))
        out: dict[str, float] = {
            "engine.plan.calls": plan_calls,
            "engine.plan.distinct": distinct,
            "engine.plan.useful_ratio": distinct / plan_calls if plan_calls else 0.0,
            "engine.plan.errors": sum(
                1 for i in self.raised if self.names[i] == "engine.plan"
            ),
            "engine.plan_cached.hit_rate": hit_rate("engine.plan_cached"),
            "oracle.planned.hit_rate": hit_rate("oracle.planned"),
            "oracle.price.hit_rate": hit_rate("oracle.decode_step_seconds"),
            "queue.self_s": layer_s["queue"],
        }
        for name in (
            "engine.retarget", "engine.set_degradation", "planner.search",
            "planner.search_fixed", "planner.lp_placement", "parallel.plan",
            "perfmodel.breakdown", "perfmodel.check_feasible",
            "perfmodel.decode_task_costs_vec", "oracle.planned",
            "oracle.decode_step_seconds", "oracle.prefill_seconds",
            "oracle.feasible", "oracle.invalidate", "loop.admit_batch",
            "queue.offer", "queue.take", "queue.expire", "faults.with_faults",
        ):
            out[f"{name}.calls"] = calls[name]
        for name in (
            "engine.plan", "planner.search", "planner.search_fixed",
            "planner.lp_placement", "parallel.plan", "perfmodel.breakdown",
            "perfmodel.decode_task_costs_vec", "oracle.decode_step_seconds",
            "loop.run", "loop.admit_batch", "faults.with_faults",
        ):
            out[f"{name}.self_s"] = self_s[name]
        for layer, t in layer_s.items():
            out[f"{layer}.self_share"] = t / wall_s if wall_s > 0 else 0.0
        for key in (
            "loop.steps", "faults.aborts", "faults.backoffs", "faults.replans",
            "router.placements", "router.migrations", "router.crash_events",
        ):
            out[key] = counters.get(key, 0)
        return out

    def write(self, path: Path, run_id: str, t0: float) -> None:
        """Write the spans as columns, times in seconds from ``t0``."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "run_id": run_id,
            "names": table,
            "name": [index[n] for n in self.names],
            "start": [round(s - t0, 7) for s in self.start],
            "end": [round(e - t0, 7) for e in self.end],
            "parent": self.parent,
            "raised": sorted(self.raised),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
