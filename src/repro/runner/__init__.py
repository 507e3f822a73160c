"""Parallel sweep execution: work units, process pool, result cache.

The paper's figures are sweeps of independent seeded simulations — an
embarrassingly parallel shape.  This package decomposes sweeps into
content-addressed :class:`WorkUnit` objects, fans them out over a
:class:`SweepRunner` process pool, and memoizes results in an on-disk
:class:`ResultCache`, with the contract that parallel results are
byte-identical to serial results for the same seeds.

Execution is fault-tolerant under one rule: a :class:`Supervisor`
charges each failed or timed-out execution against the unit's attempt
budget and retries it at once, and a pool unit that spends its budget
falls back to one inline execution before the unit fails.  The
supervisor runs units inline or drives a local process pool directly.
A :class:`SweepJournal` logs every completed unit, and a killed sweep
finishes by running it again (the cache serves what was completed);
cache entries are checksummed envelopes and corruption is quarantined,
never served.  A :class:`ChaosPolicy` (``REPRO_CHAOS``) injects worker
crashes, hangs, and cache corruption deterministically to prove all of
the above under test.

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
from repro.runner.journal import SweepJournal
from repro.runner.pool import (
    JOBS_ENV,
    SweepRunner,
    resolve_jobs,
)
from repro.runner.supervisor import (
    RunReport,
    Supervisor,
    SupervisorPolicy,
    UnitOutcome,
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
    "CacheStats",
    "ChaosPolicy",
    "EVALUATORS",
    "JOBS_ENV",
    "ResultCache",
    "RunReport",
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
    "encode_entry",
    "evaluator",
    "execute_payload",
    "format_bytes",
    "get_evaluator",
    "resolve_chaos",
    "resolve_jobs",
    "work_unit_digest",
]
