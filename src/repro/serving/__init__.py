"""Request-level serving simulator: arrival traces, continuous batching
over the zig-zag schedule, scheduler policies and SLO metrics.

The performance model (Eqs. 1-24) prices any (prompt, context, batch)
point in microseconds, which is exactly what a trace-driven simulator
needs to make admission and batching decisions per step — this package
turns the repo's offline block evaluator into an online serving study:
requests arrive over time, queue under admission control, get batched
continuously, and are scored against TTFT/TPOT SLOs.

All three simulators below are drivers over one replica-step kernel
(:class:`~repro.serving.kernel.ReplicaKernel`: queue, batch, clock,
prefill/decode steps, transient-fault aborts).

Entry points: ``python -m repro serve-sim`` (CLI),
:class:`ServingSimulator` (library), and
:func:`repro.bench.serving.run_serving_comparison` (the
``BENCH_serving.json`` engine-vs-engine harness).

Fault injection rides on top: pass a
:class:`~repro.faults.FaultSchedule` (and a seed) to
:class:`ServingSimulator` and the loop gains drift-watchdog replanning,
the graceful-degradation ladder and retry/backoff semantics — see
``python -m repro chaos`` and :mod:`repro.bench.chaos`.

Fleet-scale serving lives in :mod:`repro.serving.fleet`:
:class:`FleetSimulator` composes N replicas (each a kernel over its own
engine) under a Firmament-style cost router, replica-level crash/restart
faults with fault-domain correlation, failover migration, hedged
requests and per-replica circuit breakers — see
``python -m repro fleet-sim`` and :mod:`repro.bench.fleet`.

Multi-model co-residency lives in :mod:`repro.serving.multimodel`:
:class:`MultiModelSimulator` time-shares one platform between K models
(swaps priced as weight bytes over the faultable PCIe link) under
swap-on-idle, cross-model preemption, or predicted-SJF driven by the
learned length predictor in :mod:`repro.serving.predictor` — see
``python -m repro serve-sim --models`` and :mod:`repro.bench.multimodel`.
"""

from repro.serving.arrivals import (
    LengthSampler,
    RequestTrace,
    default_trace,
    load_trace,
    mmpp_trace,
    poisson_trace,
    trace_from_json,
)
from repro.serving.costing import StepCostOracle
from repro.serving.fleet import (
    FLEET_PRESETS,
    FLEET_SCENARIOS,
    BreakerState,
    CircuitBreaker,
    FleetConfig,
    FleetResult,
    FleetSimulator,
    FleetStats,
    ReplicaResult,
    ReplicaSpec,
    compute_fleet_metrics,
    export_fleet_timeline,
    fleet_metrics_registry,
    make_fleet,
    make_fleet_scenario,
)
from repro.serving.metrics import (
    compute_metrics,
    metrics_registry,
    metrics_row,
)
from repro.serving.multimodel import (
    MODEL_PRESETS,
    SLO_CLASSES,
    ModelSlot,
    MultiModelResult,
    MultiModelSimulator,
    SwapRecord,
    make_slots,
    slot_summary,
)
from repro.serving.policies import (
    POLICIES,
    FCFSPolicy,
    PredictedSJFPolicy,
    PriorityPolicy,
    SchedulerPolicy,
    SJFPolicy,
    make_policy,
)
from repro.serving.predictor import (
    BucketedQuantilePredictor,
    LengthPredictor,
    OracleLengthPredictor,
)
from repro.serving.queue import AdmissionQueue
from repro.serving.request import DropReason, Request, RequestSpec, RequestState
from repro.serving.simulator import (
    ServingAggregates,
    ServingConfig,
    ServingResult,
    ServingSimulator,
    StepRecord,
    StepRun,
)
from repro.serving.timeline import export_request_timeline

__all__ = [
    "LengthSampler",
    "RequestTrace",
    "default_trace",
    "load_trace",
    "mmpp_trace",
    "poisson_trace",
    "trace_from_json",
    "StepCostOracle",
    "FLEET_PRESETS",
    "FLEET_SCENARIOS",
    "BreakerState",
    "CircuitBreaker",
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
    "FleetStats",
    "ReplicaResult",
    "ReplicaSpec",
    "compute_fleet_metrics",
    "export_fleet_timeline",
    "fleet_metrics_registry",
    "make_fleet",
    "make_fleet_scenario",
    "compute_metrics",
    "metrics_registry",
    "metrics_row",
    "MODEL_PRESETS",
    "SLO_CLASSES",
    "ModelSlot",
    "MultiModelResult",
    "MultiModelSimulator",
    "SwapRecord",
    "make_slots",
    "slot_summary",
    "POLICIES",
    "FCFSPolicy",
    "PredictedSJFPolicy",
    "PriorityPolicy",
    "SchedulerPolicy",
    "SJFPolicy",
    "make_policy",
    "BucketedQuantilePredictor",
    "LengthPredictor",
    "OracleLengthPredictor",
    "AdmissionQueue",
    "DropReason",
    "Request",
    "RequestSpec",
    "RequestState",
    "ServingAggregates",
    "ServingConfig",
    "ServingResult",
    "ServingSimulator",
    "StepRecord",
    "StepRun",
    "export_request_timeline",
]
