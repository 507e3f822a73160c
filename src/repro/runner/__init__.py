"""Parallel sweep execution: work units, process pool, result cache.

The paper's figures are sweeps of independent seeded simulations — an
embarrassingly parallel shape.  This package decomposes sweeps into
content-addressed :class:`WorkUnit` objects, fans them out over a
:class:`SweepRunner` process pool, and memoizes results in an on-disk
:class:`ResultCache`, with the contract that parallel results are
byte-identical to serial results for the same seeds.

Execution is fault-tolerant: a :class:`Supervisor` retries failed or
timed-out units with deterministic backoff and degrades gracefully
(batched engine → scalar, pool → serial) before giving up; a
:class:`SweepJournal` checkpoints completed units so killed sweeps resume
where they stopped; cache entries are checksummed envelopes and
corruption is quarantined, never served.  A :class:`ChaosPolicy`
(``REPRO_CHAOS``) injects worker crashes, hangs, and cache corruption
deterministically to prove all of the above under test.

Equal-digest units within one run execute once (in-flight dedup,
outcome-transparent), and the supervisor drives any
:class:`ExecutorBackend` transport — serial or local process pool.

Quick start::

    from repro.experiments import figure_series
    from repro.runner import ResultCache, SweepRunner

    runner = SweepRunner(jobs=8, cache=ResultCache())   # ~/.cache/repro
    series = figure_series("fig7", quality="fast", runner=runner)
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    ENVELOPE_VERSION,
    QUARANTINE_DIR,
    CacheStats,
    ResultCache,
    VerifyReport,
    decode_entry,
    default_cache_dir,
    encode_entry,
    format_bytes,
)
from repro.runner.chaos import CHAOS_ENV, ChaosPolicy, resolve_chaos
from repro.runner.evaluators import (
    EVALUATORS,
    evaluator,
    execute_payload,
    get_evaluator,
)
from repro.runner.executors import (
    BackendBroken,
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    terminate_pool,
)
from repro.runner.journal import (
    JournalSummary,
    SweepJournal,
    sweep_digest,
)
from repro.runner.pool import (
    JOBS_ENV,
    SweepRunner,
    UnitOutcome,
    resolve_jobs,
)
from repro.runner.supervisor import (
    RunReport,
    Supervisor,
    SupervisorPolicy,
    degrade_unit,
)
from repro.runner.workunit import (
    CACHE_SCHEMA_VERSION,
    WorkUnit,
    canonical_params,
    code_version,
    work_unit_digest,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CHAOS_ENV",
    "ENVELOPE_VERSION",
    "QUARANTINE_DIR",
    "BackendBroken",
    "CacheStats",
    "ChaosPolicy",
    "EVALUATORS",
    "ExecutorBackend",
    "JOBS_ENV",
    "JournalSummary",
    "ProcessPoolBackend",
    "ResultCache",
    "RunReport",
    "SerialBackend",
    "Supervisor",
    "SupervisorPolicy",
    "SweepJournal",
    "SweepRunner",
    "UnitOutcome",
    "VerifyReport",
    "WorkUnit",
    "canonical_params",
    "code_version",
    "decode_entry",
    "default_cache_dir",
    "degrade_unit",
    "encode_entry",
    "evaluator",
    "execute_payload",
    "format_bytes",
    "get_evaluator",
    "resolve_chaos",
    "resolve_jobs",
    "sweep_digest",
    "terminate_pool",
    "work_unit_digest",
]
