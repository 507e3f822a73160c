"""Process-pool fan-out for embarrassingly parallel sweep work.

Every figure point and replication is an independent seeded simulation, so
a sweep decomposes into :class:`~repro.runner.workunit.WorkUnit` objects
that can run in any order on any worker — the only requirement is that the
assembled results are byte-identical to the serial loop's.  The runner
guarantees that by construction: units are pure functions of their digest
material, results are reassembled in submission order, and the single-job
path executes inline with no pool at all.

Execution is *supervised* (see :mod:`repro.runner.supervisor`): per-unit
failures, worker timeouts, and pool breakage are retried with
deterministic backoff and then walked down a degradation ladder instead of
aborting the sweep; a :class:`~repro.runner.journal.SweepJournal` can
checkpoint completed units so a killed sweep resumes where it stopped.
Worker exceptions cannot cross the process boundary intact, so the worker
wrapper (:func:`repro.runner.evaluators.execute_payload`) catches
everything, marshals the traceback as text, and the parent re-raises it as
:class:`~repro.errors.WorkerError` only once the retry budget is spent.

Important: spawning workers re-imports the calling module on some
platforms, so scripts that drive a :class:`SweepRunner` must guard their
entry point with ``if __name__ == "__main__":`` (see :mod:`repro.lint`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, WorkerError
from repro.runner.cache import ResultCache
from repro.runner.chaos import ChaosPolicy
from repro.runner.journal import SweepJournal
from repro.runner.supervisor import RunReport, Supervisor, SupervisorPolicy

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    The default is deliberately serial — parallelism is an opt-in knob, and
    the serial path is the reference the parallel path must reproduce.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV} must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class UnitOutcome:
    """The result of one work unit, with provenance.

    ``wall_time`` is the worker-side execution time in seconds (0.0 for a
    cache hit); ``error`` carries the marshalled worker traceback when the
    unit failed even after supervision.  ``attempts`` counts executions
    started (1 for a clean first try); ``degraded`` lists the degradation
    ladder steps taken (``engine:batched->scalar``, ``pool->serial``);
    ``resumed`` marks a cache hit that a ``--resume`` journal predicted;
    ``deduped`` marks a unit that followed an equal-digest leader in the
    same run (its value, error, and provenance are the leader's, its wall
    time zero);
    ``computed_digest`` is the digest of what was *actually* computed — it
    differs from ``unit.config_digest`` exactly when degradation changed
    the unit.
    """

    unit: Any
    value: Any
    wall_time: float
    cached: bool = False
    error: Optional[str] = None
    attempts: int = 1
    degraded: Tuple[str, ...] = ()
    resumed: bool = False
    deduped: bool = False
    computed_digest: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepRunner:
    """Fan a batch of work units out over processes, through a cache.

    * ``jobs`` — worker count (``None`` defers to ``REPRO_JOBS``, then 1);
    * ``cache`` — a :class:`ResultCache`, a directory path for one, or
      ``None`` to disable caching;
    * ``supervisor`` — a :class:`SupervisorPolicy` (retry budget, unit
      timeout, degradation ladder, in-flight dedup); ``None`` uses the
      defaults;
    * ``chaos`` — an explicit :class:`ChaosPolicy` for fault injection
      (``None`` defers to the ``REPRO_CHAOS`` environment variable);
    * ``journal`` — a :class:`SweepJournal` appended per completed unit;
    * ``resume`` — serve units the journal already records as completed
      from the cache and mark them ``resumed`` (requires both);
    * ``backend_factory`` — an :class:`~repro.runner.executors`
      ``ExecutorBackend`` factory for the parallel path (``None`` uses
      the local process pool).

    ``run`` returns outcomes in submission order regardless of completion
    order, so serial and parallel execution assemble identical series.  The
    outcomes and fault-tolerance report of the most recent ``run`` stay on
    :attr:`last_outcomes` / :attr:`last_report` for callers that want
    provenance after a higher-level API (for example ``figure_series``)
    has reduced the values.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Union[ResultCache, os.PathLike, str, None] = None,
                 supervisor: Optional[SupervisorPolicy] = None,
                 chaos: Optional[ChaosPolicy] = None,
                 journal: Optional[SweepJournal] = None,
                 resume: bool = False,
                 backend_factory: Optional[Callable] = None):
        self.jobs = jobs
        self.cache = (ResultCache(cache)
                      if isinstance(cache, (str, os.PathLike)) else cache)
        self.supervisor = supervisor if supervisor is not None \
            else SupervisorPolicy()
        self.backend_factory = backend_factory
        self.chaos = chaos
        if chaos is not None and self.cache is not None \
                and self.cache.chaos is None:
            # An explicit chaos policy covers the whole execution layer,
            # including this runner's cache writes.
            self.cache.chaos = chaos
        self.journal = journal
        self.resume = resume
        self.last_outcomes: List[UnitOutcome] = []
        self.last_report: RunReport = RunReport()

    @property
    def effective_jobs(self) -> int:
        """The worker count a ``run`` call would use right now."""
        return resolve_jobs(self.jobs)

    def run(self, units: Sequence[Any],
            raise_on_error: bool = True) -> List[UnitOutcome]:
        """Execute ``units``; outcomes come back in submission order."""
        jobs = resolve_jobs(self.jobs)
        journal = self.journal
        resume_set = (journal.completed_digests()
                      if journal is not None and self.resume else set())
        report = RunReport(total=len(units))
        outcomes: List[Optional[UnitOutcome]] = [None] * len(units)

        # One probe for the whole batch (duplicates load once), each hit
        # checksum-verified; see ResultCache.get_many.
        cached_values: Dict[str, Any] = {}
        if self.cache is not None and units:
            cached_values = self.cache.get_many(
                [unit.config_digest for unit in units])

        pending: List[Tuple[int, Any]] = []
        for index, unit in enumerate(units):
            if unit.config_digest in cached_values:
                resumed = unit.config_digest in resume_set
                outcomes[index] = UnitOutcome(
                    unit=unit, value=cached_values[unit.config_digest],
                    wall_time=0.0, cached=True, resumed=resumed,
                    computed_digest=unit.config_digest)
                report.cache_hits += 1
                if resumed:
                    report.resumed += 1
                if journal is not None:
                    journal.record(unit.config_digest, "ok", cached=True,
                                   resumed=resumed)
                continue
            pending.append((index, unit))

        if pending:
            def on_complete(index: int, outcome: UnitOutcome) -> None:
                outcomes[index] = outcome
                if outcome.ok and not outcome.deduped:
                    # A deduped follower's value is its leader's, already
                    # written under the shared digest — count and store
                    # each computation once.
                    report.computed += 1
                    if self.cache is not None:
                        self.cache.put(
                            outcome.computed_digest
                            or outcome.unit.config_digest,
                            outcome.value)
                if journal is not None:
                    journal.record(
                        outcome.unit.config_digest,
                        "ok" if outcome.ok else "failed",
                        attempts=outcome.attempts,
                        deduped=outcome.deduped,
                        degraded=outcome.degraded,
                        wall_time=outcome.wall_time,
                        final_digest=outcome.computed_digest or None,
                        error=outcome.error)

            Supervisor(self.supervisor, chaos=self.chaos,
                       backend_factory=self.backend_factory).execute(
                pending, jobs, report, on_complete)

        final = [outcome for outcome in outcomes if outcome is not None]
        self.last_outcomes = final
        self.last_report = report
        if raise_on_error:
            for outcome in final:
                if outcome.error is not None:
                    raise WorkerError(outcome.unit.config_digest,
                                      outcome.error)
        return final

    def run_values(self, units: Sequence[Any]) -> List[Any]:
        """Execute ``units`` and return just the values, in order."""
        return [outcome.value for outcome in self.run(units)]
