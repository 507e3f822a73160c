"""Supervised work-unit execution: retry, serial fallback, pool respawn.

``SweepRunner`` used to be optimistic: one worker exception aborted the
whole sweep, a hung worker blocked it forever, and a dead worker process
(``BrokenProcessPool``) lost every in-flight unit.  The supervisor makes
failure a first-class state, the way the fault subsystem (PR 1) treats it
for the modeled fabrics:

* **Retry with deterministic backoff.**  A failed attempt is retried up to
  ``max_attempts`` times with seeded-jitter exponential backoff (the
  :class:`~repro.faults.retry.RetryPolicy` shape, jitter drawn from a
  named :func:`~repro.faults.retry.backoff_stream` keyed on the unit
  digest and attempt — two runs of the same sweep back off identically).

* **Serial fallback.**  A pool unit whose budget is spent takes one last
  step, recorded in the outcome's provenance: ``pool->serial`` (the unit
  runs inline in the parent, surviving even a broken worker environment).
  A serial unit whose budget is spent fails.  No recovery step changes
  what a unit computes.

* **Pool supervision.**  The parallel path drives a
  :class:`~concurrent.futures.ProcessPoolExecutor` directly.  A broken pool
  (``BrokenProcessPool`` from ``submit`` or a future) is respawned and
  in-flight units resubmitted; a unit that out-lives ``unit_timeout`` gets
  its worker killed and the pool rebuilt; repeated respawns without any
  completed unit degrade the remaining work to serial execution.  Only the
  pool can stop a unit, so ``unit_timeout`` needs two or more jobs.

* **One charging step.**  Serial runs, the pool, and the drain after the
  pool gives up all charge a failed execution through the same step
  (:meth:`Supervisor._charge`) on the unit's flight, and build every
  outcome from that flight: the unit, how many executions it took, the
  fallback it needed.

* **One call per run of units.**  The serial path (``jobs == 1``) hands
  each maximal run of consecutive pending units — taken after dedup —
  that share an evaluator id to one evaluator call, and
  splits the values per unit: each gets its own outcome, cache write and
  journal record, and an even share of the call's wall time.  That is
  how the curves of one figure reach one lockstep engine.  If the call
  raises, or chaos fires for any member, every member falls back to the
  per-unit path below, so fault tolerance stays per unit.  The parallel
  path ships one unit per payload.

* **In-flight dedup.**  Units sharing a ``config_digest`` within one
  batch execute once: the first occurrence leads, the rest follow its
  outcome verbatim (value, error, fallback provenance) and are marked
  ``deduped``.  Because units are pure functions of their digest
  material, a follower's outcome is byte-identical to what executing it
  would have produced — dedup changes work done, never results.

* **Clean interruption.**  ``KeyboardInterrupt`` cancels outstanding
  futures and terminates worker processes before propagating, so Ctrl-C
  leaves no orphan workers (and, because cache writes are atomic and
  journal appends line-buffered, no torn state behind).

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
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy, backoff_stream
from repro.runner.chaos import ChaosPolicy
from repro.runner.evaluators import execute_payload
from repro.runner.workunit import WorkUnit, batch_payload


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the runner fights for each work unit.

    ``max_attempts`` is the execution budget per unit (must be at least 1
    — zero attempts would never execute anything); ``unit_timeout``
    bounds one in-flight execution in wall seconds (``None`` disables the
    watchdog; only a pool worker can be stopped, so a run with a timeout
    needs two or more jobs); ``max_pool_respawns`` caps consecutive pool
    rebuilds *without progress* before the remaining work falls back to
    serial; ``retry`` shapes the backoff (defaults to a fast
    0.05 s base, factor 2, capped at 2 s, ±50% seeded jitter); ``dedup``
    collapses equal-digest units within a batch onto one execution
    (outcome-transparent — disable it only to measure the redundant work).
    """

    max_attempts: int = 3
    unit_timeout: Optional[float] = None
    max_pool_respawns: int = 5
    seed: int = 0
    retry: Optional[RetryPolicy] = None
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts} "
                "(zero attempts would never execute a unit)")
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ConfigurationError(
                f"unit_timeout must be positive, got {self.unit_timeout}")
        if self.max_pool_respawns < 1:
            raise ConfigurationError(
                f"max_pool_respawns must be >= 1, got {self.max_pool_respawns}")
        if self.retry is None:
            object.__setattr__(self, "retry", RetryPolicy(
                max_retries=max(1, self.max_attempts),
                backoff_base=0.05, backoff_factor=2.0, backoff_cap=2.0,
                jitter=0.5))

    def delay_for(self, digest: str, attempt: int) -> float:
        """Seconds to back off before re-attempting ``digest``.

        Deterministic: the jitter comes from a named stream keyed on
        ``(seed, digest, attempt)``, never from global randomness.
        """
        retry = self.retry
        assert retry is not None  # __post_init__ guarantees it
        bounded = min(max(attempt, 1), retry.max_retries)
        return retry.next_delay(bounded,
                                backoff_stream(self.seed, digest, attempt))


@dataclass
class RunReport:
    """Fault-tolerance provenance of one ``SweepRunner.run`` call."""

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    serial_fallbacks: int = 0
    degradations: List[Tuple[str, str]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the run needed no fault tolerance at all."""
        return not (self.retries or self.timeouts or self.pool_respawns
                    or self.serial_fallbacks or self.degradations
                    or self.failures)

    def format(self) -> str:
        summary = (f"{self.total} unit(s): {self.computed} computed, "
                   f"{self.cache_hits} cache hit(s)")
        if self.total:
            summary += f" ({100.0 * self.cache_hits / self.total:.1f}% hit rate)"
        if self.deduped:
            summary += f", {self.deduped} deduped"
        lines = [summary]
        if not self.clean:
            lines.append(
                f"fault tolerance: {self.retries} retry(s), "
                f"{self.timeouts} timeout(s), "
                f"{self.pool_respawns} pool respawn(s), "
                f"{len(self.degradations)} degradation(s), "
                f"{len(self.failures)} failure(s)")
            for digest, step in self.degradations:
                lines.append(f"  degraded {digest[:12]}: {step}")
            for digest in self.failures:
                lines.append(f"  FAILED {digest[:12]} (budget exhausted)")
        return "\n".join(lines)


class _Flight:
    """Mutable supervision state of one pending work unit."""

    __slots__ = ("index", "unit", "attempt", "tries", "degradations",
                 "deadline", "not_before")

    def __init__(self, index: int, unit: WorkUnit):
        self.index = index
        self.unit = unit
        self.attempt = 1            # attempts charged against the budget
        self.tries = 0              # executions started (chaos salt)
        self.degradations: Tuple[str, ...] = ()
        self.deadline: Optional[float] = None
        self.not_before = 0.0


#: ``on_complete(index, outcome)`` — the runner's cache/journal hook.
CompletionHook = Callable[[int, object], None]


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
        self.chaos = chaos
        self._chaos_spec = (chaos.spec()
                            if chaos is not None and chaos.active else None)

    # -- entry point ------------------------------------------------------

    def execute(self, pending: Sequence[Tuple[int, WorkUnit]], jobs: int,
                report: RunReport, on_complete: CompletionHook) -> None:
        """Execute ``pending`` (index, unit) pairs; hook fires per outcome."""
        if not pending:
            return
        if self.policy.dedup:
            pending, on_complete = self._dedup(pending, report, on_complete)
        if jobs == 1 or (len(pending) == 1
                         and self.policy.unit_timeout is None):
            for run in self._runs(pending):
                self._run_serial(run, report, on_complete)
            return
        self._execute_pool(pending, jobs, report, on_complete)

    @staticmethod
    def _dedup(pending: Sequence[Tuple[int, WorkUnit]], report: RunReport,
               on_complete: CompletionHook
               ) -> Tuple[List[Tuple[int, WorkUnit]], CompletionHook]:
        """Collapse equal-digest units onto one leader each.

        The first occurrence of a digest executes; later occurrences become
        followers whose outcomes are the leader's, re-keyed to their own
        unit and marked ``deduped`` (with zero wall time — no work ran).
        Everything else — value, error, attempts, fallback provenance —
        propagates verbatim, so a deduped run is byte-identical to a
        dedup-off run of the same batch.
        """
        leaders: List[Tuple[int, WorkUnit]] = []
        followers: Dict[str, List[Tuple[int, WorkUnit]]] = {}
        for index, unit in pending:
            digest = unit.config_digest
            if digest in followers:
                followers[digest].append((index, unit))
                report.deduped += 1
            else:
                followers[digest] = []
                leaders.append((index, unit))
        if not report.deduped:
            return list(pending), on_complete

        def hook(index: int, outcome) -> None:
            on_complete(index, outcome)
            for f_index, f_unit in followers.get(
                    outcome.unit.config_digest, ()):
                on_complete(f_index, replace(outcome, unit=f_unit,
                                             wall_time=0.0, deduped=True))

        return leaders, hook

    # -- failure accounting -----------------------------------------------

    def _charge(self, flight: _Flight, report: RunReport) -> Optional[float]:
        """Charge one failed execution to ``flight``'s budget.

        Returns the backoff in seconds before the next attempt, or ``None``
        once the budget is spent.
        """
        if flight.attempt >= self.policy.max_attempts:
            return None
        delay = self.policy.delay_for(flight.unit.config_digest,
                                      flight.attempt)
        flight.attempt += 1
        report.retries += 1
        return delay

    @staticmethod
    def _outcome(flight: _Flight, value, wall: float,
                 error: Optional[str] = None):
        from repro.runner.pool import UnitOutcome

        return UnitOutcome(
            unit=flight.unit, value=value, wall_time=wall, error=error,
            attempts=flight.tries, degraded=flight.degradations)

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
        from repro.runner.pool import UnitOutcome

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

    def _run_inline(self, flight: _Flight, report: RunReport):
        """Execute ``flight`` in this process until it succeeds or the
        budget is spent; at least one execution, whatever its budget."""
        while True:
            flight.tries += 1
            values, error, wall = execute_payload(
                flight.unit.payload(), attempt=flight.tries,
                chaos_spec=self._chaos_spec, in_worker=False)
            if values is not None:
                return self._outcome(flight, values[0], wall)
            delay = self._charge(flight, report)
            if delay is None:
                report.failures.append(flight.unit.config_digest)
                return self._outcome(flight, None, wall, error=error)
            if delay > 0:
                time.sleep(delay)

    def _to_serial(self, flight: _Flight, report: RunReport,
                   on_complete: CompletionHook) -> None:
        """The ``pool->serial`` fallback: finish ``flight`` inline, in the
        parent process, which survives even a worker environment that
        cannot start at all."""
        flight.degradations += ("pool->serial",)
        report.degradations.append(
            (flight.unit.config_digest, "pool->serial"))
        report.serial_fallbacks += 1
        on_complete(flight.index, self._run_inline(flight, report))

    # -- pool path --------------------------------------------------------

    def _execute_pool(self, pending: Sequence[Tuple[int, WorkUnit]],
                      jobs: int, report: RunReport,
                      on_complete: CompletionHook) -> None:
        policy = self.policy
        workers = min(jobs, len(pending))
        ready: Deque[_Flight] = deque(_Flight(index, unit)
                                      for index, unit in pending)
        delayed: List[_Flight] = []
        inflight: Dict[Future, _Flight] = {}

        def fail(flight: _Flight, now: float) -> None:
            delay = self._charge(flight, report)
            if delay is None:
                self._to_serial(flight, report, on_complete)
            else:
                flight.not_before = now + delay
                delayed.append(flight)

        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=workers)
        respawns_without_progress = 0
        try:
            while ready or delayed or inflight:
                now = time.monotonic()
                due = [fl for fl in delayed if fl.not_before <= now]
                if due:
                    delayed[:] = [fl for fl in delayed if fl.not_before > now]
                    ready.extend(due)
                if pool is None:
                    # Pool gave up: the rest of the sweep runs serially.
                    for flight in sorted([*ready, *delayed],
                                         key=lambda fl: fl.index):
                        self._to_serial(flight, report, on_complete)
                    return
                pool_broken = False
                while ready and len(inflight) < workers * 2:
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
                    if policy.unit_timeout is not None:
                        flight.deadline = now + policy.unit_timeout
                    inflight[future] = flight
                if not pool_broken:
                    if not inflight:
                        # Everything is backing off; sleep to the next due.
                        next_due = min(fl.not_before for fl in delayed)
                        time.sleep(min(max(next_due - now, 0.0), 0.5))
                        continue
                    done, _ = wait_futures(
                        set(inflight), return_when=FIRST_COMPLETED,
                        timeout=self._wait_timeout(delayed, inflight, now))
                    now = time.monotonic()
                    for future in done:
                        flight = inflight.pop(future)
                        try:
                            values, _error, wall = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            values = None
                        except Exception:  # no worker result at all
                            values = None
                        if values is None:
                            fail(flight, now)
                        else:
                            respawns_without_progress = 0
                            on_complete(flight.index,
                                        self._outcome(flight, values[0], wall))
                    expired = [(future, fl)
                               for future, fl in inflight.items()
                               if fl.deadline is not None
                               and fl.deadline <= now and not future.done()]
                    if expired:
                        report.timeouts += len(expired)
                        pool_broken = True  # the hung workers must be killed
                        for future, flight in expired:
                            del inflight[future]
                            fail(flight, now)
                if pool_broken:
                    report.pool_respawns += 1
                    respawns_without_progress += 1
                    # Units still in flight die with the pool: charge them
                    # through the normal failure path (their chaos salt
                    # advances, their budget is charged).
                    for flight in inflight.values():
                        fail(flight, now)
                    inflight.clear()
                    _terminate_pool(pool)
                    pool = (None if respawns_without_progress
                            > policy.max_pool_respawns  # degrade to serial
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

    @staticmethod
    def _wait_timeout(delayed: List[_Flight],
                      inflight: Dict[Future, _Flight],
                      now: float) -> Optional[float]:
        horizons = []
        if delayed:
            horizons.append(min(fl.not_before for fl in delayed) - now)
        deadlines = [fl.deadline for fl in inflight.values()
                     if fl.deadline is not None]
        if deadlines:
            horizons.append(min(deadlines) - now)
        if not horizons:
            return None
        return max(0.01, min(horizons))
