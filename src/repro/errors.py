"""Exception hierarchy for the ``repro`` library.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch everything library-specific with a single ``except``
clause. The concrete subclasses distinguish model violations (which a
Byzantine process *cannot* cause — e.g. writing another process's register)
from user errors (malformed configurations) and from resource-limit events
(step budgets used to bound otherwise-infinite executions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A system, register, or experiment was configured inconsistently.

    Examples: ``f`` too large for ``n``, duplicate register names, a reader
    set that does not include the requesting process.
    """


class OwnershipError(ReproError):
    """A process attempted to write a register it does not own.

    In the paper's model (Section 1, "Remark"), the write port of a SWMR
    register is enforced in hardware: *no* process — not even a Byzantine
    one — can write a register it does not own. The simulator models this
    by raising :class:`OwnershipError`, which is a bug in the calling
    program (or attack script), never a legal Byzantine behaviour.
    """


class ReadPermissionError(ReproError):
    """A process attempted to read a SWSR register it is not the reader of."""


class UnknownRegisterError(ReproError):
    """An effect referenced a register name that was never installed."""


class StepLimitExceeded(ReproError):
    """A bounded run exhausted its step budget before its goal predicate held.

    Tests use this to convert "this operation never terminates" — a
    liveness violation — into a detectable, assertable event.
    """

    def __init__(self, message: str, steps: int):
        super().__init__(message)
        #: Number of steps that were executed before the limit was hit.
        self.steps = steps


class StallDetected(ReproError):
    """A progress monitor concluded the run can no longer make progress.

    Raised by :class:`repro.faults.ProgressMonitor` from inside a drive
    loop's goal predicate when the delivered/accepted counters and the
    pending-op set have not moved for a full stall window. Scenario
    drivers catch it and surface the diagnosis as a first-class
    ``STALLED`` verdict — a *liveness* violation with the same corpus
    and campaign plumbing as safety violations — instead of burning the
    rest of the step budget and reporting an ambiguous
    :class:`StepLimitExceeded`.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        #: The monitor's diagnosis (pending ops, suppressed links).
        self.reason = reason


class ProtocolViolation(ReproError):
    """A *correct* process's program behaved outside its allowed protocol.

    Raised, for instance, when a non-writer process calls the Write
    procedure of a register implementation while flagged as correct.
    Byzantine programs are exempt: they do not call these guarded entry
    points in the first place.
    """


class FrozenValueError(ReproError):
    """A value written to a register could not be converted to immutable form."""


class SchedulerError(ReproError):
    """A scheduler returned an invalid choice (not runnable / unknown id)."""


class HistoryError(ReproError):
    """A history was malformed (e.g. response without invocation)."""


class LinearizabilityViolation(ReproError):
    """Raised by checkers in *assert* mode when a history fails to linearize."""


class NetworkError(ReproError):
    """A message-passing effect was invalid (unknown destination, etc.)."""
