"""Executor backends: the transport seam under the supervisor.

The supervisor (:mod:`repro.runner.supervisor`) owns *policy* — retry
budgets, backoff, the degradation ladder, pool respawn accounting — and
deliberately knows nothing about *transport*: how a work-unit payload
reaches an execution context and comes back as a future.  That seam is
this module's :class:`ExecutorBackend` protocol.  Two implementations
ship today (inline serial, local process pool); the planned sweep-service
daemon adds a distributed one by implementing the same five methods,
leaving every line of retry/degradation logic untouched.

The contract the supervisor relies on:

* ``submit(payload, attempt, chaos_spec)`` returns a
  :class:`~concurrent.futures.Future` resolving to
  :func:`repro.runner.evaluators.execute_payload`'s triple
  ``(values, error, wall_time)``.  Worker exceptions are already
  marshalled into ``error`` by ``execute_payload``; the only exceptions a
  future (or ``submit`` itself) may surface are transport failures.
* ``broken_exceptions`` names those transport failures.  When one
  escapes ``submit`` or ``Future.result``, the supervisor treats the
  backend as broken: in-flight units are charged a failure and the
  backend is restarted (``terminate`` then ``start``) — or abandoned for
  inline execution once the respawn budget is spent.  Backends with no
  broken state (serial) leave the tuple empty.
* ``terminate`` must leave no orphan execution contexts (Ctrl-C safety);
  ``shutdown`` is the graceful end-of-run counterpart.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Tuple, Type

from repro.runner.evaluators import execute_payload


class BackendBroken(RuntimeError):
    """A backend lost its execution context with units in flight.

    Transport-level failure, not unit failure: the supervisor responds by
    restarting the backend and resubmitting (charging the units' retry
    budget), exactly as it treats ``BrokenProcessPool``.  Custom backends
    raise this (or list their own exception types in
    ``broken_exceptions``) to plug into that recovery path.
    """


class ExecutorBackend:
    """Protocol for transports that execute work-unit payloads.

    Subclasses override the lifecycle and ``submit``; the base class
    supplies the one derived operation (``restart``) so every backend
    restarts the same way: hard teardown, fresh start.
    """

    #: Exception types that mean "the transport broke", raised from
    #: ``submit`` or out of a returned future.  Everything else
    #: propagates — it is a bug, not a recoverable transport fault.
    broken_exceptions: Tuple[Type[BaseException], ...] = ()

    def start(self) -> None:
        """Acquire the execution context (idempotent)."""
        raise NotImplementedError

    def submit(self, payload: tuple, attempt: int,
               chaos_spec: Optional[dict]) -> "Future":
        """Dispatch one payload; the future resolves to the worker triple."""
        raise NotImplementedError

    def terminate(self) -> None:
        """Tear the context down hard: cancel queued work, kill workers."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Graceful end-of-run teardown (default: same as terminate)."""
        self.terminate()

    def restart(self) -> None:
        """Replace a broken context with a fresh one."""
        self.terminate()
        self.start()


class SerialBackend(ExecutorBackend):
    """Inline execution behind the backend interface.

    ``submit`` runs the payload in the calling process and returns an
    already-resolved future.  Nothing can break (no transport), so
    ``broken_exceptions`` stays empty and the lifecycle is a no-op.  This
    is the reference backend: any other backend driven by the supervisor
    must produce byte-identical outcomes to this one.
    """

    def start(self) -> None:
        pass

    def submit(self, payload: tuple, attempt: int,
               chaos_spec: Optional[dict]) -> "Future":
        future: "Future" = Future()
        future.set_result(execute_payload(
            payload, attempt=attempt, chaos_spec=chaos_spec, in_worker=False))
        return future

    def terminate(self) -> None:
        pass


class ProcessPoolBackend(ExecutorBackend):
    """`concurrent.futures.ProcessPoolExecutor` behind the seam.

    The default parallel transport.  A dead worker surfaces as
    ``BrokenProcessPool`` (from ``submit`` or a future), which the
    supervisor maps to its respawn path via ``broken_exceptions``.
    """

    broken_exceptions = (BrokenProcessPool, BackendBroken)

    def __init__(self, workers: int):
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, payload: tuple, attempt: int,
               chaos_spec: Optional[dict]) -> "Future":
        if self._executor is None:
            raise BackendBroken("process pool backend is not started")
        return self._executor.submit(
            execute_payload, payload, attempt, chaos_spec, True)

    def terminate(self) -> None:
        executor, self._executor = self._executor, None
        terminate_pool(executor)

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


def terminate_pool(executor: Optional[ProcessPoolExecutor]) -> None:
    """Shut a pool down hard: cancel queued work, kill worker processes."""
    if executor is None:
        return
    try:
        processes = list(executor._processes.values())  # noqa: SLF001
    except AttributeError:  # pragma: no cover - CPython implementation detail
        processes = []
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:  # pragma: no cover - already reaped
            pass
