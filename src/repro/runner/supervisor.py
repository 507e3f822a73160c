"""Supervised work-unit execution: retry, degradation ladder, pool respawn.

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

* **Graceful degradation.**  Once the budget is spent the unit walks a
  ladder, recorded step by step in the outcome's provenance:
  ``engine:batched->scalar`` (batched-engine units fall back to the scalar
  reference engine), then ``pool->serial`` (the unit runs inline in the
  parent, surviving even a broken worker environment).  The engine step
  changes the unit's digest — the computed value is cached under what was
  actually computed, never under what was asked for.

* **Pool supervision.**  A broken pool is respawned and in-flight units
  resubmitted; a unit that out-lives ``unit_timeout`` gets its worker
  killed and the pool rebuilt; repeated respawns without any completed
  unit degrade the remaining work to serial execution.

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
  outcome verbatim (value, error, degradation provenance, computed
  digest) and are marked ``deduped``.  Because units are pure functions
  of their digest material, a follower's outcome is byte-identical to
  what executing it would have produced — dedup changes work done, never
  results.

* **Clean interruption.**  ``KeyboardInterrupt`` cancels outstanding
  futures and terminates worker processes before propagating, so Ctrl-C
  leaves no orphan workers (and, because cache writes are atomic and
  journal appends line-buffered, no torn state to resume from).

The supervisor is deliberately value-transparent: retries and pool-level
recovery recompute pure functions and cannot change results, so a sweep
that completes without engine degradation is byte-identical to a
fault-free run — the property the chaos suite pins.

Transport is pluggable: the parallel path drives any
:class:`~repro.runner.executors.ExecutorBackend` (by default the local
process pool), so distributed executors slot in under the same retry,
timeout, and respawn logic.
"""

from __future__ import annotations

import time  # lint: disable=SIM002 - supervises wall-clock execution
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy, backoff_stream
from repro.runner.chaos import ChaosPolicy
from repro.runner.evaluators import execute_payload
from repro.runner.executors import ExecutorBackend, ProcessPoolBackend
from repro.runner.workunit import WorkUnit, batch_payload

#: How the supervisor builds its default transport for ``workers`` slots.
BackendFactory = Callable[[int], ExecutorBackend]


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the runner fights for each work unit.

    ``max_attempts`` is the total execution budget per ladder rung (must be
    at least 1 — zero attempts would never execute anything);
    ``unit_timeout`` bounds one in-flight execution in wall seconds
    (``None`` disables the watchdog); ``degrade`` enables the
    engine/serial fallback ladder; ``max_pool_respawns`` caps
    consecutive pool rebuilds *without progress* before the remaining work
    degrades to serial; ``retry`` shapes the backoff (defaults to a fast
    0.05 s base, factor 2, capped at 2 s, ±50% seeded jitter); ``dedup``
    collapses equal-digest units within a batch onto one execution
    (outcome-transparent — disable it only to measure the redundant work).
    """

    max_attempts: int = 3
    unit_timeout: Optional[float] = None
    degrade: bool = True
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


def degrade_unit(unit: WorkUnit) -> Optional[Tuple[str, WorkUnit]]:
    """The next rung down the degradation ladder for ``unit``.

    Returns ``(step label, degraded unit)`` or ``None`` when the unit is
    already at the reference configuration (the scalar engine, or no
    engine at all).  The degraded unit has a *different digest*: it
    computes a different (reference-path) estimate, and the cache must
    never conflate the two.
    """
    if unit.params.get("engine") == "batched":
        params = dict(unit.params)
        params["engine"] = "scalar"
        return ("engine:batched->scalar",
                WorkUnit(unit.evaluator_id, unit.seed, params))
    return None


@dataclass
class RunReport:
    """Fault-tolerance provenance of one ``SweepRunner.run`` call."""

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    resumed: int = 0
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
        if self.resumed:
            summary += f" ({self.resumed} resumed)"
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
    """Mutable supervision state of one submitted work unit."""

    __slots__ = ("index", "original", "unit", "attempt", "tries",
                 "degradations", "deadline", "not_before", "serial_tried")

    def __init__(self, index: int, unit: WorkUnit):
        self.index = index
        self.original = unit
        self.unit = unit            # current rung of the ladder
        self.attempt = 1            # attempts consumed on the current rung
        self.tries = 0              # executions started (chaos salt)
        self.degradations: Tuple[str, ...] = ()
        self.deadline: Optional[float] = None
        self.not_before = 0.0
        self.serial_tried = False


#: ``on_complete(index, outcome)`` — the runner's cache/journal hook.
CompletionHook = Callable[[int, object], None]


class Supervisor:
    """Drives a batch of work units to completion under a policy.

    The supervisor owns dispatch only; persistence (cache writes, journal
    appends) happens in the ``on_complete`` hook the runner provides, which
    fires the moment each unit resolves — a kill mid-run loses nothing
    already completed.
    """

    def __init__(self, policy: SupervisorPolicy,
                 chaos: Optional[ChaosPolicy] = None,
                 backend_factory: Optional[BackendFactory] = None):
        self.policy = policy
        self.chaos = chaos
        self.backend_factory: BackendFactory = (
            backend_factory if backend_factory is not None
            else ProcessPoolBackend)
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
        if jobs == 1 or len(pending) == 1:
            for run in self._runs(pending):
                self._run_serial(run, report, on_complete)
            return
        self._execute_backend(pending, jobs, report, on_complete)

    @staticmethod
    def _dedup(pending: Sequence[Tuple[int, WorkUnit]], report: RunReport,
               on_complete: CompletionHook
               ) -> Tuple[List[Tuple[int, WorkUnit]], CompletionHook]:
        """Collapse equal-digest units onto one leader each.

        The first occurrence of a digest executes; later occurrences become
        followers whose outcomes are the leader's, re-keyed to their own
        unit and marked ``deduped`` (with zero wall time — no work ran).
        Everything else — value, error, attempts, degradation provenance,
        ``computed_digest`` — propagates verbatim, so a deduped run is
        byte-identical to a dedup-off run of the same batch.
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
                        unit=unit, value=value, wall_time=share,
                        computed_digest=unit.config_digest))
                return
        for index, unit in run:
            on_complete(index, self._run_inline(unit, report))

    def _run_inline(self, unit: WorkUnit, report: RunReport,
                    degradations: Tuple[str, ...] = ()):
        """Supervised inline execution (the serial path and final fallback)."""
        from repro.runner.pool import UnitOutcome

        current = unit
        attempt = 1
        tries = 0
        while True:
            tries += 1
            values, error, wall = execute_payload(
                current.payload(), attempt=tries,
                chaos_spec=self._chaos_spec, in_worker=False)
            if values is not None:
                return UnitOutcome(unit=unit, value=values[0], wall_time=wall,
                                   attempts=tries, degraded=degradations,
                                   computed_digest=current.config_digest)
            if attempt < self.policy.max_attempts:
                delay = self.policy.delay_for(current.config_digest, attempt)
                attempt += 1
                report.retries += 1
                if delay > 0:
                    time.sleep(delay)
                continue
            step = degrade_unit(current) if self.policy.degrade else None
            if step is not None:
                label, current = step
                degradations += (label,)
                report.degradations.append((unit.config_digest, label))
                attempt = 1
                continue
            report.failures.append(unit.config_digest)
            return UnitOutcome(unit=unit, value=None, wall_time=wall,
                               error=error, attempts=tries,
                               degraded=degradations)

    # -- backend path -----------------------------------------------------

    def _execute_backend(self, pending: Sequence[Tuple[int, WorkUnit]],
                         jobs: int, report: RunReport,
                         on_complete: CompletionHook) -> None:
        policy = self.policy
        workers = min(jobs, len(pending))
        ready: Deque[_Flight] = deque(_Flight(index, unit)
                                      for index, unit in pending)
        delayed: List[_Flight] = []
        inflight: Dict[Future, _Flight] = {}
        backend: Optional[ExecutorBackend] = self.backend_factory(workers)
        backend.start()
        respawns_without_progress = 0
        try:
            while ready or delayed or inflight:
                now = time.monotonic()
                if delayed:
                    due = [fl for fl in delayed if fl.not_before <= now]
                    if due:
                        delayed = [fl for fl in delayed
                                   if fl.not_before > now]
                        ready.extend(due)
                if backend is None:
                    # Pool gave up: the rest of the sweep runs serially.
                    for flight in self._drain(ready, delayed, inflight):
                        flight.degradations += ("pool->serial",)
                        report.degradations.append(
                            (flight.original.config_digest, "pool->serial"))
                        report.serial_fallbacks += 1
                        on_complete(flight.index, self._run_inline(
                            flight.unit, report,
                            degradations=flight.degradations))
                    return
                pool_broken = False
                while ready and len(inflight) < workers * 2:
                    flight = ready.popleft()
                    if not self._submit(backend, flight, inflight, now):
                        # The backend broke and submit refused the unit —
                        # it never started, so no attempt is charged; it
                        # goes back to the head of the queue for the
                        # respawn.
                        ready.appendleft(flight)
                        pool_broken = True
                        break
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
                            values, error, wall = future.result()
                        except backend.broken_exceptions as exc:
                            pool_broken = True
                            self._handle_failure(
                                flight, f"executor backend broke "
                                f"({type(exc).__name__}) while unit was in "
                                "flight", 0.0, now, ready, delayed, report,
                                on_complete)
                            continue
                        except BaseException as exc:
                            values, wall = None, 0.0
                            error = (f"{type(exc).__name__}: {exc} "
                                     "(future failed without a worker result)")
                        if values is not None:
                            respawns_without_progress = 0
                            on_complete(flight.index,
                                        self._outcome(flight, values[0], wall))
                        else:
                            assert error is not None
                            self._handle_failure(flight, error, wall, now,
                                                 ready, delayed, report,
                                                 on_complete)
                    expired = [(future, fl)
                               for future, fl in inflight.items()
                               if fl.deadline is not None
                               and fl.deadline <= now and not future.done()]
                    if expired:
                        report.timeouts += len(expired)
                        pool_broken = True  # the hung workers must be killed
                        for future, flight in expired:
                            inflight.pop(future, None)
                            timeout = policy.unit_timeout
                            self._handle_failure(
                                flight, f"unit exceeded the {timeout}s "
                                "unit_timeout (worker killed)",
                                0.0, now, ready, delayed, report, on_complete)
                if pool_broken:
                    report.pool_respawns += 1
                    respawns_without_progress += 1
                    # Units still in flight died with the backend: resubmit
                    # them through the normal failure path (their chaos
                    # salt advances, their budget is charged).
                    for future, flight in list(inflight.items()):
                        self._handle_failure(
                            flight, "executor backend restarted while unit "
                            "was in flight", 0.0, now, ready, delayed,
                            report, on_complete)
                    inflight.clear()
                    if respawns_without_progress > policy.max_pool_respawns:
                        backend.terminate()
                        backend = None  # degrade the rest to serial
                    else:
                        backend.restart()
        except BaseException:
            # KeyboardInterrupt (and anything else fatal): cancel what has
            # not started, kill what has, and leave no orphan workers.
            for future in inflight:
                future.cancel()
            if backend is not None:
                backend.terminate()
            raise
        else:
            if backend is not None:
                backend.shutdown()

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _drain(ready: Deque[_Flight], delayed: List[_Flight],
               inflight: Dict[Future, _Flight]) -> List[_Flight]:
        """Every not-yet-resolved flight, in submission order."""
        flights = list(ready) + delayed + list(inflight.values())
        ready.clear()
        delayed.clear()
        inflight.clear()
        return sorted(flights, key=lambda flight: flight.index)

    def _submit(self, backend: ExecutorBackend, flight: _Flight,
                inflight: Dict[Future, _Flight], now: float) -> bool:
        """Submit one flight; ``False`` when the backend refused it (broken)."""
        flight.tries += 1
        try:
            future = backend.submit(flight.unit.payload(), flight.tries,
                                    self._chaos_spec)
        except backend.broken_exceptions:
            flight.tries -= 1  # never started: no attempt, no chaos salt
            return False
        if self.policy.unit_timeout is not None:
            flight.deadline = now + self.policy.unit_timeout
        inflight[future] = flight
        return True

    def _wait_timeout(self, delayed: List[_Flight],
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

    def _outcome(self, flight: _Flight, value, wall: float):
        from repro.runner.pool import UnitOutcome

        return UnitOutcome(unit=flight.original, value=value, wall_time=wall,
                           attempts=flight.tries,
                           degraded=flight.degradations,
                           computed_digest=flight.unit.config_digest)

    def _handle_failure(self, flight: _Flight, error: str, wall: float,
                        now: float, ready: Deque[_Flight],
                        delayed: List[_Flight], report: RunReport,
                        on_complete: CompletionHook) -> None:
        from repro.runner.pool import UnitOutcome

        policy = self.policy
        if flight.attempt < policy.max_attempts:
            delay = policy.delay_for(flight.unit.config_digest,
                                     flight.attempt)
            flight.attempt += 1
            flight.not_before = now + delay
            report.retries += 1
            delayed.append(flight)
            return
        step = degrade_unit(flight.unit) if policy.degrade else None
        if step is not None:
            label, degraded = step
            flight.unit = degraded
            flight.degradations += (label,)
            flight.attempt = 1
            report.degradations.append((flight.original.config_digest, label))
            ready.append(flight)
            return
        if not flight.serial_tried:
            # Last rung: one inline execution in the parent process, which
            # survives even a worker environment that cannot start at all.
            flight.serial_tried = True
            flight.degradations += ("pool->serial",)
            report.degradations.append(
                (flight.original.config_digest, "pool->serial"))
            report.serial_fallbacks += 1
            flight.tries += 1
            values, inline_error, inline_wall = execute_payload(
                flight.unit.payload(), attempt=flight.tries,
                chaos_spec=self._chaos_spec, in_worker=False)
            if values is not None:
                on_complete(flight.index,
                            self._outcome(flight, values[0], inline_wall))
                return
            assert inline_error is not None
            error, wall = inline_error, inline_wall
        report.failures.append(flight.original.config_digest)
        on_complete(flight.index, UnitOutcome(
            unit=flight.original, value=None, wall_time=wall, error=error,
            attempts=flight.tries, degraded=flight.degradations))

