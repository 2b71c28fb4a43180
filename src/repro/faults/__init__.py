"""Fault injection + graceful degradation for the serving/hardware layers.

The paper's planner (and the `repro.serving` simulator built on it)
assumes the hardware description is frozen; this package makes that
assumption explicit and then lets you break it, deterministically:

* :mod:`spec` — :class:`FaultSpec`/:class:`FaultSchedule`: seeded,
  validated perturbation windows over virtual time (PCIe degradation,
  link flaps, CPU throttling/core loss, GPU throttling, host-memory
  shrinkage, transient transfer errors);
* :mod:`overlay` — non-destructive application of a schedule to a
  :class:`~repro.hardware.Platform` (``Platform.with_faults(schedule, t)``)
  plus the :func:`relative_drift` watchdog metric;
* :mod:`retry` — capped-exponential, seeded-jitter :class:`RetryPolicy`
  (monotone, capped, budget-checked);
* :mod:`degrade` — the degradation :data:`LADDER`
  (shrink batch -> quantize harder -> CPU attention -> backpressure) and
  the :class:`FaultStats` event record;
* :mod:`scenarios` — bundled named scenarios for ``python -m repro chaos``.

Replica-level kinds (``REPLICA_CRASH``/``REPLICA_RESTART``, grouped in
:data:`REPLICA_KINDS`) extend the vocabulary to whole-replica outages with
fault-domain correlation; only :mod:`repro.serving.fleet` consumes them.
"""

from repro.faults.degrade import LADDER, DegradationRung, FaultStats
from repro.faults.overlay import degraded_platform, relative_drift
from repro.faults.retry import RetryPolicy
from repro.faults.scenarios import SCENARIOS, make_scenario
from repro.faults.spec import (
    CAPABILITY_KINDS,
    REPLICA_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
)

__all__ = [
    "CAPABILITY_KINDS",
    "REPLICA_KINDS",
    "DegradationRung",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "FaultStats",
    "LADDER",
    "RetryPolicy",
    "SCENARIOS",
    "degraded_platform",
    "make_scenario",
    "relative_drift",
]
