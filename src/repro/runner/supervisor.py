"""Supervised work-unit execution: retry, serial fallback, pool respawn.

``SweepRunner`` used to be optimistic: one worker exception aborted the
whole sweep, a hung worker blocked it forever, and a dead worker process
(``BrokenProcessPool``) lost every in-flight unit.  The supervisor makes
failure a first-class state, the way :mod:`repro.faults` treats it for
the modeled fabrics:

* **One retry rule.**  A failed execution is charged against the unit's
  ``max_attempts`` budget and the unit is retried at once.  Units are
  pure functions of their digest material, so there is nothing to wait
  for before running one again.

* **Serial fallback.**  A pool unit whose budget is spent gets one last
  execution inline in the parent, which survives even a worker
  environment that cannot start at all.  It is recorded once:
  ``RunReport.serial_fallbacks`` counts it and the outcome's
  ``serial_fallback`` flag marks it.  A serial unit whose budget is
  spent fails.  No recovery step changes what a unit computes.

* **Pool supervision.**  The parallel path drives a
  :class:`~concurrent.futures.ProcessPoolExecutor` directly, with at most
  one unit per worker in flight, so a unit's ``unit_timeout`` clock starts
  when a worker is free to run it, not while it waits in the pool's
  queue.  A broken pool (``BrokenProcessPool`` from ``submit`` or a
  future) is respawned.  ``BrokenProcessPool`` does not say which worker
  died, so a break charges the unit in flight only when it was alone;
  units torn down together go back to the head of the queue uncharged,
  and the new pool runs them one at a time until each resolves, so the
  next break names its unit.  A unit that out-lives ``unit_timeout`` is
  charged and gets its worker killed (the units torn down with it go
  back uncharged); more than :data:`MAX_POOL_RESPAWNS` respawns without
  any completed unit send the remaining work to serial execution.  Only
  the pool can stop a unit, so ``unit_timeout`` needs two or more jobs.

* **One charging step.**  Serial runs, the pool, and the drain after the
  pool gives up all charge a failed execution through the same step
  (:meth:`Supervisor._charge`) on the unit's flight, and build every
  outcome from that flight: the unit, how many executions it took,
  whether it fell back to serial.

* **One call per run of units.**  The serial path (``jobs == 1``) hands
  each maximal run of consecutive pending units that share an evaluator
  id to one evaluator call, and splits the values per unit: each gets its
  own outcome, cache write and journal record, and an even share of the
  call's wall time.  That is how the curves of one figure reach one
  lockstep engine.  If the call raises, or chaos fires for any member,
  every member falls back to the per-unit path below, so fault tolerance
  stays per unit.  The parallel path ships one unit per payload.

* **Clean interruption.**  ``KeyboardInterrupt`` cancels outstanding
  futures and terminates worker processes before propagating, so Ctrl-C
  leaves no orphan workers (and, because cache writes are atomic and
  journal appends line-buffered, no torn state behind).

Every pending unit executes, equal-digest units included: a figure's
units have distinct digests, so there is nothing to share within one
run, and equal units would compute equal values anyway.

The supervisor is deliberately value-transparent: retries and pool-level
recovery recompute pure functions and cannot change results, so a sweep
that completes is byte-identical to a fault-free run — the property the
chaos suite pins.
"""

from __future__ import annotations

import time  # lint: disable=SIM002 - supervises wall-clock execution
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Set, Tuple)

from repro.errors import ConfigurationError
from repro.runner.chaos import ChaosPolicy
from repro.runner.evaluators import execute_payload
from repro.runner.workunit import WorkUnit, batch_payload

#: Pool rebuilds in a row without a completed unit before the remaining
#: work falls back to serial execution.
MAX_POOL_RESPAWNS = 5


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the runner fights for each work unit.

    ``max_attempts`` is the execution budget per unit (must be at least 1
    — zero attempts would never execute anything); ``unit_timeout``
    bounds one execution in wall seconds (``None`` disables the watchdog;
    only a pool worker can be stopped, so a run with a timeout needs two
    or more jobs).
    """

    max_attempts: int = 3
    unit_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts} "
                "(zero attempts would never execute a unit)")
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ConfigurationError(
                f"unit_timeout must be positive, got {self.unit_timeout}")


@dataclass(frozen=True)
class UnitOutcome:
    """The result of one work unit, with provenance.

    ``wall_time`` is the worker-side execution time in seconds (0.0 for a
    cache hit); ``error`` carries the marshalled worker traceback when the
    unit failed even after supervision.  ``attempts`` counts executions
    started (1 for a clean first try); ``serial_fallback`` marks a pool
    unit that spent its budget and took its last execution inline.
    """

    unit: Any
    value: Any
    wall_time: float
    cached: bool = False
    error: Optional[str] = None
    attempts: int = 1
    serial_fallback: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RunReport:
    """Fault-tolerance provenance of one ``SweepRunner.run`` call.

    ``deduped`` is always 0, since every pending unit executes; it stays
    because the end-to-end benchmark's tracer reads it.
    """

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    serial_fallbacks: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the run needed no fault tolerance at all."""
        return not (self.retries or self.timeouts or self.pool_respawns
                    or self.serial_fallbacks or self.failures)

    def format(self) -> str:
        summary = (f"{self.total} unit(s): {self.computed} computed, "
                   f"{self.cache_hits} cache hit(s)")
        if self.total:
            summary += f" ({100.0 * self.cache_hits / self.total:.1f}% hit rate)"
        lines = [summary]
        if not self.clean:
            lines.append(
                f"fault tolerance: {self.retries} retry(s), "
                f"{self.timeouts} timeout(s), "
                f"{self.pool_respawns} pool respawn(s), "
                f"{self.serial_fallbacks} serial fallback(s), "
                f"{len(self.failures)} failure(s)")
            for digest in self.failures:
                lines.append(f"  FAILED {digest[:12]} (budget exhausted)")
        return "\n".join(lines)


class _Flight:
    """Mutable supervision state of one pending work unit."""

    __slots__ = ("index", "unit", "attempt", "tries", "serial_fallback",
                 "deadline")

    def __init__(self, index: int, unit: WorkUnit):
        self.index = index
        self.unit = unit
        self.attempt = 1            # attempts charged against the budget
        self.tries = 0              # executions started (chaos salt)
        self.serial_fallback = False
        self.deadline: Optional[float] = None


#: ``on_complete(index, outcome)`` — the runner's cache/journal hook.
CompletionHook = Callable[[int, UnitOutcome], None]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down hard: cancel queued work, kill worker processes."""
    try:
        processes = list(pool._processes.values())  # noqa: SLF001
    except AttributeError:  # pragma: no cover - CPython implementation detail
        processes = []
    pool.shutdown(wait=False, cancel_futures=True)
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


def _wait_timeout(inflight: Dict[Future, _Flight],
                  now: float) -> Optional[float]:
    """Seconds until the earliest unit deadline (``None`` without one)."""
    deadlines = [fl.deadline for fl in inflight.values()
                 if fl.deadline is not None]
    if not deadlines:
        return None
    return max(0.01, min(deadlines) - now)


class Supervisor:
    """Drives a batch of work units to completion under a policy.

    The supervisor owns dispatch only; persistence (cache writes, journal
    appends) happens in the ``on_complete`` hook the runner provides, which
    fires the moment each unit resolves — a kill mid-run loses nothing
    already completed.
    """

    def __init__(self, policy: SupervisorPolicy,
                 chaos: Optional[ChaosPolicy] = None):
        self.policy = policy
        self._chaos_spec = (chaos.spec()
                            if chaos is not None and chaos.active else None)

    # -- entry point ------------------------------------------------------

    def execute(self, pending: Sequence[Tuple[int, WorkUnit]], jobs: int,
                report: RunReport, on_complete: CompletionHook) -> None:
        """Execute ``pending`` (index, unit) pairs; hook fires per outcome."""
        if not pending:
            return
        if jobs == 1 or (len(pending) == 1
                         and self.policy.unit_timeout is None):
            for run in self._runs(pending):
                self._run_serial(run, report, on_complete)
            return
        self._execute_pool(pending, jobs, report, on_complete)

    # -- failure accounting -----------------------------------------------

    def _charge(self, flight: _Flight, report: RunReport) -> bool:
        """Charge one failed execution to ``flight``'s budget.

        Returns whether the unit may run again (at once), ``False`` once
        the budget is spent.
        """
        if flight.attempt >= self.policy.max_attempts:
            return False
        flight.attempt += 1
        report.retries += 1
        return True

    @staticmethod
    def _outcome(flight: _Flight, value, wall: float,
                 error: Optional[str] = None) -> UnitOutcome:
        return UnitOutcome(
            unit=flight.unit, value=value, wall_time=wall, error=error,
            attempts=flight.tries, serial_fallback=flight.serial_fallback)

    # -- serial path ------------------------------------------------------

    @staticmethod
    def _runs(pending: Sequence[Tuple[int, WorkUnit]]
              ) -> List[List[Tuple[int, WorkUnit]]]:
        """Maximal runs of consecutive units sharing an evaluator id."""
        runs: List[List[Tuple[int, WorkUnit]]] = []
        for index, unit in pending:
            if runs and runs[-1][0][1].evaluator_id == unit.evaluator_id:
                runs[-1].append((index, unit))
            else:
                runs.append([(index, unit)])
        return runs

    def _run_serial(self, run: List[Tuple[int, WorkUnit]],
                    report: RunReport, on_complete: CompletionHook) -> None:
        """One evaluator call for ``run``; per-unit supervision on failure."""
        if len(run) > 1:
            values, error, wall = execute_payload(
                batch_payload([unit for _, unit in run]), attempt=1,
                chaos_spec=self._chaos_spec, in_worker=False)
            if values is not None:
                share = wall / len(run)
                for (index, unit), value in zip(run, values):
                    on_complete(index, UnitOutcome(
                        unit=unit, value=value, wall_time=share))
                return
        for index, unit in run:
            on_complete(index, self._run_inline(_Flight(index, unit), report))

    def _run_inline(self, flight: _Flight, report: RunReport) -> UnitOutcome:
        """Execute ``flight`` in this process until it succeeds or the
        budget is spent; at least one execution, whatever its budget."""
        while True:
            flight.tries += 1
            values, error, wall = execute_payload(
                flight.unit.payload(), attempt=flight.tries,
                chaos_spec=self._chaos_spec, in_worker=False)
            if values is not None:
                return self._outcome(flight, values[0], wall)
            if not self._charge(flight, report):
                report.failures.append(flight.unit.config_digest)
                return self._outcome(flight, None, wall, error=error)

    def _to_serial(self, flight: _Flight, report: RunReport,
                   on_complete: CompletionHook) -> None:
        """The serial fallback: finish ``flight`` inline, in the parent
        process, which survives even a worker environment that cannot
        start at all."""
        flight.serial_fallback = True
        report.serial_fallbacks += 1
        on_complete(flight.index, self._run_inline(flight, report))

    # -- pool path --------------------------------------------------------

    def _execute_pool(self, pending: Sequence[Tuple[int, WorkUnit]],
                      jobs: int, report: RunReport,
                      on_complete: CompletionHook) -> None:
        unit_timeout = self.policy.unit_timeout
        workers = min(jobs, len(pending))
        ready: Deque[_Flight] = deque(_Flight(index, unit)
                                      for index, unit in pending)
        inflight: Dict[Future, _Flight] = {}
        # Units torn down together by a break that named none of them: the
        # pool runs them one at a time until each resolves.
        suspects: Set[_Flight] = set()

        def fail(flight: _Flight) -> None:
            suspects.discard(flight)
            if self._charge(flight, report):
                ready.append(flight)
            else:
                self._to_serial(flight, report, on_complete)

        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=workers)
        respawns_without_progress = 0
        try:
            while ready or inflight:
                if pool is None:
                    # Pool gave up: the rest of the sweep runs serially.
                    for flight in sorted(ready, key=lambda fl: fl.index):
                        self._to_serial(flight, report, on_complete)
                    return
                now = time.monotonic()
                pool_broken = timed_out = False
                torn: List[_Flight] = []  # in flight when the pool broke
                # One unit per worker (one in all while suspects remain): a
                # unit starts the moment it is submitted, so its deadline
                # covers its execution only.
                while ready and len(inflight) < (1 if suspects else workers):
                    flight = ready.popleft()
                    try:
                        future = pool.submit(
                            execute_payload, flight.unit.payload(),
                            flight.tries + 1, self._chaos_spec, True)
                    except BrokenProcessPool:
                        # The unit never started, so no attempt is charged;
                        # it goes back to the head of the queue for the
                        # respawn.
                        ready.appendleft(flight)
                        pool_broken = True
                        break
                    flight.tries += 1
                    if unit_timeout is not None:
                        flight.deadline = now + unit_timeout
                    inflight[future] = flight
                if not pool_broken:
                    done, _ = wait_futures(
                        set(inflight), return_when=FIRST_COMPLETED,
                        timeout=_wait_timeout(inflight, now))
                    now = time.monotonic()
                    for future in done:
                        flight = inflight.pop(future)
                        try:
                            values, _error, wall = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            torn.append(flight)
                            continue
                        except Exception:  # no worker result at all
                            values = None
                        if values is None:
                            fail(flight)
                        else:
                            suspects.discard(flight)
                            respawns_without_progress = 0
                            on_complete(flight.index,
                                        self._outcome(flight, values[0], wall))
                    expired = [(future, fl)
                               for future, fl in inflight.items()
                               if fl.deadline is not None
                               and fl.deadline <= now and not future.done()]
                    if expired:
                        report.timeouts += len(expired)
                        # The hung workers must be killed.
                        pool_broken = timed_out = True
                        for future, flight in expired:
                            del inflight[future]
                            fail(flight)
                if pool_broken:
                    report.pool_respawns += 1
                    respawns_without_progress += 1
                    torn.extend(inflight.values())
                    inflight.clear()
                    if len(torn) == 1 and not timed_out:
                        fail(torn[0])  # it was alone: the break names it
                    else:
                        # Nothing names these units: back to the head of
                        # the queue uncharged (their chaos salt advances).
                        suspects.update(torn)
                        ready.extendleft(reversed(torn))
                    _terminate_pool(pool)
                    pool = (None if respawns_without_progress
                            > MAX_POOL_RESPAWNS  # fall back to serial
                            else ProcessPoolExecutor(max_workers=workers))
        except BaseException:
            # KeyboardInterrupt (and anything else fatal): cancel what has
            # not started, kill what has, and leave no orphan workers.
            for future in inflight:
                future.cancel()
            if pool is not None:
                _terminate_pool(pool)
            raise
        else:
            if pool is not None:
                pool.shutdown(wait=True)
