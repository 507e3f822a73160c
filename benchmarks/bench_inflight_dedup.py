"""In-flight dedup: shared curves across a figure family execute once.

fig7 (crossbars) and fig12 (Omega networks) both plot the
``16/1x16x16 XBAR/2`` reference curve at mu ratio 0.1, and figure work
units are deliberately figure-blind (digest = triplet, mu ratio,
intensities, horizon, engine, master seed) — so running both figures as
one family hands the supervisor genuinely equal-digest curve units.  This
benchmark runs the family twice from cold caches, dedup on and dedup
off, and pins the acceptance property:

* each unique digest executes exactly once under dedup (``computed`` ==
  unique digests, ``deduped`` == the duplicates, and the cache holds
  exactly one entry per unique digest), and
* the assembled outcome values are byte-identical
  (``pickle.dumps``) to the dedup-off run — dedup changes work done,
  never results.

``REPRO_BENCH_SMOKE=1`` shrinks the grid to one intensity.
"""

from __future__ import annotations

import os
import pickle
from time import perf_counter

from repro.experiments import figure_family_work_units
from repro.runner import ResultCache, SupervisorPolicy, SweepRunner

FAMILY = ("fig7", "fig12")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
INTENSITIES = [0.3] if SMOKE else [0.3, 0.5, 0.7]


def _family_units():
    _specs, _grid, units = figure_family_work_units(
        FAMILY, quality="fast", intensities=INTENSITIES)
    return units


def _run(units, cache_dir, dedup):
    runner = SweepRunner(jobs=1, cache=ResultCache(cache_dir),
                         supervisor=SupervisorPolicy(dedup=dedup))
    start = perf_counter()
    outcomes = runner.run(units)
    return outcomes, runner, perf_counter() - start


def test_family_dedup_executes_each_digest_once(benchmark, tmp_path):
    units = _family_units()
    unique = len({unit.config_digest for unit in units})
    duplicates = len(units) - unique
    assert duplicates >= 1, \
        "family lost its shared curve — dedup bench has nothing to measure"

    baseline, base_runner, base_time = _run(units, tmp_path / "off",
                                            dedup=False)
    (outcomes, runner, dedup_time) = benchmark.pedantic(
        lambda: _run(units, tmp_path / "on", dedup=True),
        rounds=1, iterations=1)

    report = runner.last_report
    # Exactly-once execution: every unique digest computed once, every
    # duplicate followed its leader, nothing slipped through.
    assert report.computed == unique
    assert report.deduped == duplicates
    assert sum(1 for outcome in outcomes if outcome.deduped) == duplicates
    assert runner.cache.stats().entries == unique
    assert base_runner.last_report.computed == len(units)

    # Byte-identity to dedup-off, outcome by outcome.
    assert [pickle.dumps(outcome.value) for outcome in outcomes] == \
        [pickle.dumps(outcome.value) for outcome in baseline]

    benchmark.extra_info.update({
        "family": list(FAMILY),
        "units": len(units),
        "unique_digests": unique,
        "deduped": report.deduped,
        "smoke": SMOKE,
        "dedup_on_s": round(dedup_time, 6),
        "dedup_off_s": round(base_time, 6),
        "work_saved_fraction": round(duplicates / len(units), 4),
    })
