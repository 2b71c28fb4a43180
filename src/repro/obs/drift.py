"""The one drift pricer under every model-vs-runtime gate.

Three gates check that the closed-form performance model (Eq. 1, and
Eq. 2's max over the six overlapped tasks) still predicts what the
overlapped runtime does: ``audit [--faults]``, ``chaos --drift-gate``
(plan-window) and ``chaos --serving-drift-gate`` (executed steps).  They
share three mechanisms, implemented here once:

* :func:`price_windows` — a fault schedule's degraded capability windows,
  deduped by fault signature (eight identical link flaps price once and
  are tallied as occurrences), each priced at its midpoint;
* :func:`steady_state` — one cost model's mid-decode step priced through
  Eq. 2 (``CostModel.step_seconds × l·k``) and through the discrete-event
  :class:`~repro.runtime.executor.OverlappedExecutor`;
* :class:`DriftGate` — the worst / mean / over-tolerance rollup of
  relative errors against one tolerance, and the only place a tolerance
  is validated.

The top level is stdlib-only; the fault overlay, cost model and executor
are imported when a window or a model is actually priced.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import ConfigError

#: Steady-state Eq. 2 vs the overlapped executor, fault-free or on a
#: degraded platform: the pipelined schedule converges to the predicted
#: marginal token time within a few percent (fill/drain effects and H2D
#: serialization granularity account for the slack).  A degraded platform
#: changes which term dominates, not how the executor schedules it, so
#: every steady-state gate shares this bound.
DEFAULT_TOLERANCE = 0.10
#: Whole-generation Eq. 1 vs the executor's full run: one extra pipeline
#: fill/drain is amortized over the run, so the bound is looser.
DEFAULT_E2E_TOLERANCE = 0.15
#: Max relative deviation between a step price the serving loop actually
#: charged and a fresh engine's price on the exactly-faulted platform at
#: that instant (the *serving* drift gate).  Looser than the model-level
#: gate by design: the watchdog deliberately tolerates hardware drift up
#: to ``ServingConfig.drift_tolerance`` before retargeting, so executed
#: prices may legitimately be stale by about that much.
DEFAULT_SERVING_DRIFT_TOLERANCE = 0.15


def price_windows(
    schedule, price: Callable[[float], dict[str, Any]]
) -> list[dict[str, Any]]:
    """Price each distinct degraded capability window of ``schedule``.

    ``price(t)`` is called once per distinct fault signature, at the
    midpoint of that signature's first window, and returns the window's
    record.  Each returned record gains a leading ``window`` block:
    ``{start_s, end_s, occurrences, kinds}`` of the first window, with
    ``occurrences`` counting every window sharing its signature.
    """
    from repro.faults.overlay import capability_windows, fault_signature

    records: list[dict[str, Any]] = []
    seen: dict[tuple, int] = {}
    for start, end, active in capability_windows(schedule):
        sig = fault_signature(active)
        if sig in seen:
            records[seen[sig]]["window"]["occurrences"] += 1
            continue
        seen[sig] = len(records)
        window = {
            "start_s": start,
            "end_s": end,
            "occurrences": 1,
            "kinds": sorted({f.kind.value for f in active}),
        }
        records.append({"window": window, **price((start + end) / 2.0)})
    return records


def steady_state(model) -> tuple[dict[str, float], Any]:
    """Eq. 2 vs the executor on ``model``'s mid-decode token.

    Returns ``({predicted_s, simulated_s, rel_err}, costs)``: both sides
    price the same per-iteration :class:`~repro.runtime.tasks.TaskCosts`
    over the ``l·k`` (layer, GPU batch) iterations of one token; the
    executor is ground truth for the relative error.
    """
    from repro.perfmodel.latency import CostModel
    from repro.runtime.executor import OverlappedExecutor

    num_layers = model.w.model.num_layers
    num_gpu_batches = model.p.num_gpu_batches
    costs = model.decode_task_costs(max(0, (model.w.gen_len - 1) // 2))
    predicted = CostModel.step_seconds(costs) * num_layers * num_gpu_batches
    simulated = OverlappedExecutor(
        num_layers=num_layers, num_gpu_batches=num_gpu_batches
    ).steady_state_token_time(costs, warmup=3)
    rel_err = abs(simulated - predicted) / simulated if simulated > 0 else 0.0
    return (
        {"predicted_s": predicted, "simulated_s": simulated, "rel_err": rel_err},
        costs,
    )


class DriftGate:
    """Relative errors checked against one tolerance.

    ``add(ref, err)`` records one priced item; the gate fails when any
    error exceeds the tolerance.  The worst item is the greatest
    ``(err, ref)`` pair, so exact ties resolve to the greatest ref.
    """

    def __init__(self, tolerance: float, name: str = "tolerance") -> None:
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ConfigError(
                f"{name} must be a finite number >= 0 (got {tolerance})"
            )
        self.tolerance = tolerance
        self.errs: list[float] = []
        self.over: list[str] = []
        self._worst: tuple[float, str] | None = None

    def add(self, ref: str, err: float) -> None:
        self.errs.append(err)
        if err > self.tolerance:  # reach: safety code, records drift over tolerance (tests/test_drift.py::test_gate_rollup)
            self.over.append(ref)
        if self._worst is None or (err, ref) > self._worst:
            self._worst = (err, ref)

    @property
    def worst(self) -> str | None:
        return self._worst[1] if self._worst is not None else None

    @property
    def max_rel_err(self) -> float:
        return self._worst[0] if self._worst is not None else 0.0

    @property
    def mean_rel_err(self) -> float:
        return sum(self.errs) / len(self.errs) if self.errs else 0.0

    @property
    def ok(self) -> bool:
        return not self.over

    def summary(self) -> dict[str, Any]:
        return {
            "max_rel_err": self.max_rel_err,
            "worst": self.worst,
            "mean_rel_err": self.mean_rel_err,
            "over_tolerance": sorted(self.over),
            "ok": self.ok,
        }
