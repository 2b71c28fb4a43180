"""Fault specifications: seeded, deterministic perturbations over virtual time.

A :class:`FaultSpec` is one perturbation window — *what* degrades, *when*,
*how badly*.  A :class:`FaultSchedule` is a validated, frozen collection of
them plus the seed that generated any stochastic structure (e.g. flap
timings).  Schedules are pure data: applying one to a platform never
mutates the base specs (see :mod:`repro.faults.overlay`), and the same
schedule replayed against the same trace produces byte-identical results.

Severity conventions (all in ``[0, 1]``):

* capability faults (``PCIE_DEGRADE``, ``LINK_FLAP``, ``CPU_THROTTLE``,
  ``CORE_LOSS``, ``GPU_THROTTLE``, ``HOST_MEM_SHRINK``) — the *fraction of
  the resource lost*: severity 0.6 on a 32 GB/s link leaves 12.8 GB/s;
* ``TRANSIENT_ERROR`` — the *per-step abort probability* while the window
  is active (drawn from the simulator's seeded stream, so runs replay);
* replica faults (``REPLICA_CRASH``, ``REPLICA_RESTART``) — severity is
  ignored (use 1.0 by convention): the window *is* the outage.  A crash
  destroys the replica's in-flight batch and KV state at ``start_s`` and
  holds it down until ``end_s``; a restart drains gracefully (running
  work completes, queued work migrates) over the same window.  These
  kinds only make sense to a fleet (:mod:`repro.serving.fleet`); the
  single-engine simulator rejects schedules containing them.

Replica-level faults may carry a ``domain`` label: a fleet applies the
window to *every* replica whose ``fault_domain`` matches (correlated
failure — one rack, one PDU), or to the whole fleet when ``domain`` is
``None``.

Faults within a schedule may overlap freely across kinds/targets; two
faults of the *same kind on the same target* with overlapping windows are
rejected at construction (their composition would be ambiguous — merge
them into one window instead).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError


class FaultKind(enum.Enum):
    """What a fault degrades."""

    PCIE_DEGRADE = "pcie_degrade"      # link bandwidth loss
    LINK_FLAP = "link_flap"            # near-total link bandwidth loss
    CPU_THROTTLE = "cpu_throttle"      # CPU frequency + FLOPs loss
    CORE_LOSS = "core_loss"            # CPU cores taken offline
    GPU_THROTTLE = "gpu_throttle"      # GPU FLOPs/frequency loss
    HOST_MEM_SHRINK = "host_mem_shrink"  # host memory pool shrinkage
    TRANSIENT_ERROR = "transient_error"  # probabilistic step aborts
    REPLICA_CRASH = "replica_crash"      # replica dies; batch + KV lost
    REPLICA_RESTART = "replica_restart"  # graceful drain + down window


#: Kinds that change hardware capability (and hence the performance model).
CAPABILITY_KINDS = frozenset(
    {
        FaultKind.PCIE_DEGRADE,
        FaultKind.LINK_FLAP,
        FaultKind.CPU_THROTTLE,
        FaultKind.CORE_LOSS,
        FaultKind.GPU_THROTTLE,
        FaultKind.HOST_MEM_SHRINK,
    }
)

#: Kinds that take a whole replica out rather than degrading its hardware.
#: Only the fleet simulator consumes these; single-engine schedules reject
#: them (a lone :class:`~repro.serving.ServingSimulator` has nowhere to
#: fail over to, so silently ignoring the window would misreport results).
REPLICA_KINDS = frozenset({FaultKind.REPLICA_CRASH, FaultKind.REPLICA_RESTART})


@dataclass(frozen=True)
class FaultSpec:
    """One fault window.

    Parameters
    ----------
    kind:
        What degrades.
    start_s, duration_s:
        Window ``[start_s, start_s + duration_s)`` in virtual seconds.
    severity:
        Fraction of the resource lost (capability kinds) or per-step abort
        probability (``TRANSIENT_ERROR``); always in ``[0, 1]``.
    device:
        Target device name for device kinds (default: the platform's CPU
        for CPU/memory kinds, every GPU for ``GPU_THROTTLE``).
    link:
        ``(end_a, end_b)`` for link kinds (default: every CPU<->GPU link).
    domain:
        Fault-domain label for fleet-level kinds: the fleet applies the
        window to every replica whose ``fault_domain`` matches (``None``
        hits the whole fleet).  Also honoured on ``TRANSIENT_ERROR`` in
        fleet schedules; meaningless (and rejected) on capability kinds.
    """

    kind: FaultKind
    start_s: float
    duration_s: float
    severity: float
    device: str | None = None
    link: tuple[str, str] | None = None
    domain: str | None = None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigError(
                f"fault {self.kind.value}: start_s must be >= 0 "
                f"(got {self.start_s}); faults live on the simulator's "
                "virtual clock, which starts at 0"
            )
        if self.duration_s <= 0:
            raise ConfigError(
                f"fault {self.kind.value}: duration_s must be > 0 "
                f"(got {self.duration_s}); to disable a fault, omit it "
                "from the schedule rather than zeroing its window"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise ConfigError(
                f"fault {self.kind.value}: severity must be in [0, 1] "
                f"(got {self.severity}); severity is the fraction of the "
                "resource lost (or the abort probability for "
                "transient_error), not a multiplier"
            )
        if self.kind is FaultKind.CORE_LOSS and self.severity >= 1.0:
            raise ConfigError(
                "fault core_loss: severity must be < 1 (at least one core "
                "must survive; use host_mem_shrink + cpu_throttle to model "
                "a dead host)"
            )
        if self.link is not None and len(self.link) != 2:
            raise ConfigError(
                f"fault {self.kind.value}: link must be a (src, dst) pair"
            )
        if self.kind in REPLICA_KINDS and (
            self.device is not None or self.link is not None
        ):
            raise ConfigError(
                f"fault {self.kind.value}: replica-level faults target a "
                "fault domain (or the whole fleet), not a device or link; "
                "use the domain field"
            )
        if self.domain is not None and self.kind in CAPABILITY_KINDS:
            raise ConfigError(
                f"fault {self.kind.value}: capability faults cannot carry a "
                "fault-domain label — model per-replica hardware degradation "
                "statically via ReplicaSpec.degradation instead"
            )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, t: float) -> bool:
        """Is this fault in effect at virtual time ``t``?"""
        return self.start_s <= t < self.end_s

    @property
    def target_key(self) -> tuple:
        """Identity used for the same-kind overlap check."""
        link = tuple(sorted(self.link)) if self.link else None
        return (self.kind.value, self.device, link, self.domain)

    def to_dict(self) -> dict:
        doc: dict = {
            "kind": self.kind.value,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "severity": self.severity,
        }
        if self.device is not None:  # reach: input: a fault that names a device (no bundled scenario does)
            doc["device"] = self.device
        if self.link is not None:  # reach: input: a fault that names a link (no bundled scenario does)
            doc["link"] = list(self.link)
        if self.domain is not None:
            doc["domain"] = self.domain
        return doc


@dataclass(frozen=True)
class FaultSchedule:
    """A named, validated set of fault windows (plus the generating seed).

    The schedule is piecewise-constant: the set of active faults only
    changes at window starts/ends, which :meth:`change_points` exposes so
    consumers (the serving simulator's watchdog) can cache the current
    segment instead of re-deriving the overlay every step.
    """

    name: str
    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        by_target: dict[tuple, list[FaultSpec]] = {}
        for f in self.faults:
            by_target.setdefault(f.target_key, []).append(f)
        for target, group in by_target.items():
            group = sorted(group, key=lambda f: (f.start_s, f.end_s))
            for a, b in zip(group, group[1:]):
                if b.start_s < a.end_s:
                    raise ConfigError(
                        f"fault schedule {self.name!r}: two {target[0]} "
                        f"faults on the same target overlap "
                        f"([{a.start_s:g}, {a.end_s:g}) and "
                        f"[{b.start_s:g}, {b.end_s:g})); merge them into "
                        "one window — their composition is ambiguous"
                    )

    # -- time structure ----------------------------------------------------

    def change_points(self) -> list[float]:
        """Sorted distinct times at which the active-fault set changes."""
        points = {f.start_s for f in self.faults} | {f.end_s for f in self.faults}
        return sorted(points)

    def next_change_after(self, t: float) -> float | None:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers (a backpressure stall)
        """The first change point strictly after ``t`` (None when none)."""
        for p in self.change_points():
            if p > t:
                return p
        return None

    def segment_key(self, t: float) -> tuple[int, ...]:
        """Indices of the faults active at ``t`` (the piecewise segment id)."""
        return tuple(i for i, f in enumerate(self.faults) if f.active(t))

    # -- queries -----------------------------------------------------------

    def active(self, t: float) -> list[FaultSpec]:
        return [f for f in self.faults if f.active(t)]

    def capability_faults(self, t: float) -> list[FaultSpec]:
        """Active faults that change hardware capability at ``t``."""
        return [f for f in self.active(t) if f.kind in CAPABILITY_KINDS]

    @property
    def has_replica_faults(self) -> bool:
        return any(f.kind in REPLICA_KINDS for f in self.faults)

    def transient_abort_probability(self, t: float) -> float:
        """Combined per-step abort probability at ``t``.

        Independent transient faults compose as ``1 - prod(1 - p_i)``.
        """
        survive = 1.0
        for f in self.active(t):
            if f.kind is FaultKind.TRANSIENT_ERROR:
                survive *= 1.0 - f.severity
        return 1.0 - survive

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }
