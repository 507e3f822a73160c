"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` et al.) propagate.

The hierarchy::

    ReproError
    ├── ConfigurationError      invalid system / fault configuration
    ├── SimulationError         event-kernel inconsistency or livelock guard
    │   └── FaultInjectionError fault injected against an impossible target
    ├── SchedulingError         network scheduler driven into impossible state
    │   └── RetryExhaustedError a severed/blocked request ran out of retries
    ├── AnalysisError           queueing/Markov analysis impossible
    │   └── UnstableSystemError offered load at or beyond capacity
    ├── WorkerError             a sweep work unit failed in a pool worker
    └── ChaosError              a failure injected by the chaos harness

:class:`FaultInjectionError` is a :class:`SimulationError` because a bad
injection (failing a component that does not exist, repairing one that is
up) means the simulated world has become inconsistent, exactly like a
corrupted event queue.  :class:`RetryExhaustedError` is a
:class:`SchedulingError` because it is the scheduling layer's terminal
verdict on one request: the retry policy refused to schedule another
attempt.  The system simulator catches it and records the task as
abandoned rather than letting it escape a run.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid system configuration was supplied.

    Raised by the configuration grammar (:mod:`repro.config`) and by network
    constructors when structural constraints are violated (for example a
    non-power-of-two Omega network, or ``p != i * j``).
    """


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class FaultInjectionError(SimulationError):
    """A fault was injected against an impossible target.

    Examples: failing a crossbar cell that does not exist, failing a
    component that is already down, or repairing one that is already up.
    """


class SchedulingError(ReproError):
    """A network scheduler was driven into an impossible state.

    Examples: releasing a connection that was never established, or a
    request signal observed outside a request cycle.
    """


class RetryExhaustedError(SchedulingError):
    """A blocked or severed request exceeded its retry budget.

    Raised by :meth:`repro.faults.RetryPolicy.next_delay` when asked for a
    backoff delay beyond ``max_retries``; the system simulator translates it
    into an abandoned task.
    """

    def __init__(self, attempts: int, max_retries: int,
                 message: str | None = None):
        self.attempts = attempts
        self.max_retries = max_retries
        if message is None:
            message = (
                f"request abandoned after {attempts} attempts "
                f"(retry budget {max_retries})"
            )
        super().__init__(message)


class AnalysisError(ReproError):
    """A queueing/Markov analysis could not be carried out.

    Typical causes are unstable systems (utilization at or above one) or
    solver non-convergence.
    """


class UnstableSystemError(AnalysisError):
    """The offered load is at or beyond the system capacity.

    Stationary queueing quantities (delay, queue length) are infinite, so
    analytic solvers refuse to produce a number.
    """

    def __init__(self, utilization: float, message: str | None = None):
        self.utilization = utilization
        if message is None:
            message = (
                f"system is unstable: utilization {utilization:.4f} >= 1; "
                "stationary delay does not exist"
            )
        super().__init__(message)


class WorkerError(ReproError):
    """A work unit failed inside a sweep-runner worker process.

    Worker exceptions cannot cross the process boundary intact (tracebacks
    are not picklable), so :mod:`repro.runner` marshals them as text and
    re-raises them in the parent as this type, carrying the work-unit
    digest and the remote traceback.
    """

    def __init__(self, digest: str, remote_traceback: str,
                 message: str | None = None):
        self.digest = digest
        self.remote_traceback = remote_traceback
        if message is None:
            summary = remote_traceback.strip().splitlines()[-1] \
                if remote_traceback.strip() else "unknown error"
            message = f"work unit {digest[:12]} failed in worker: {summary}"
        super().__init__(message)


class ChaosError(ReproError):
    """A failure deterministically injected by the execution chaos harness.

    Raised (or simulated via a worker hard-exit) by
    :class:`repro.runner.chaos.ChaosPolicy` when ``REPRO_CHAOS`` enables
    fault injection against the execution layer itself.  The supervised
    runner treats it like any other transient worker failure: retry at
    once, then fall back to serial execution or fail.
    """
