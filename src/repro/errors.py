"""Exception hierarchy for the LM-Offload reproduction.

All errors raised by this package derive from :class:`ReproError` so that
callers can catch package failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class MemoryCapacityError(ReproError):
    """A simulated memory pool would exceed its capacity.

    Attributes
    ----------
    pool:
        Name of the pool that overflowed.
    requested:
        Bytes requested by the failing allocation.
    available:
        Bytes that were still free in the pool.
    """

    def __init__(self, pool: str, requested: int, available: int) -> None:  # reach: safety code, raised when an allocation overflows its pool (tests/test_hardware_memory.py::test_overflow_raises_with_details)
        super().__init__(
            f"memory pool {pool!r}: requested {requested} B "
            f"but only {available} B available"
        )
        self.pool = pool
        self.requested = requested
        self.available = available


class ScheduleError(ReproError):
    """The asynchronous task schedule is malformed (cycle, missing dep...)."""


class QuantizationError(ReproError):
    """Invalid quantization parameters or corrupted packed payload."""


class PolicyError(ReproError):
    """No feasible offloading policy exists for the given constraints."""


class PrescreenMismatchError(ReproError):
    """The planner's array memory screen passed a placement that the
    winner's own one-row ``check_feasible`` rejects.

    Both read the cost model's one peak-byte kernel, so this guards that
    its candidate-array and single-placement evaluations agree.
    Deliberately not a :class:`PolicyError`: a strategy search that
    catches infeasibility must not swallow that disagreement.
    """


class ServingError(ReproError):
    """The serving simulator was misconfigured or reached a dead end."""


class FaultError(ReproError):
    """A fault specification could not be applied to the platform.

    Attributes
    ----------
    kind:
        The fault kind (``FaultKind.value``) that failed to apply.
    detail:
        Human-readable reason (unknown device, missing link...).
    """

    def __init__(self, kind: str, detail: str) -> None:  # reach: safety code, raised when a fault names a link or device the platform lacks (tests/test_faults.py::test_overlay_unknown_link_is_fault_error)
        super().__init__(f"fault {kind}: {detail}")
        self.kind = kind
        self.detail = detail


class RetryExhaustedError(ReproError):
    """A request burned through its per-request retry budget.

    Attributes
    ----------
    rid:
        Request id whose budget ran out.
    attempts:
        Aborted attempts the request has accumulated.
    limit:
        The configured retry budget (``ServingConfig.retry_limit``).
    """

    def __init__(self, rid: int, attempts: int, limit: int) -> None:
        super().__init__(
            f"request {rid}: {attempts} aborted attempts exceed the "
            f"retry budget of {limit}"
        )
        self.rid = rid
        self.attempts = attempts
        self.limit = limit
