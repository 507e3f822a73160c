"""Tests for the parallel sweep runner (repro.runner).

The runner's contract is the determinism of the whole PR: parallel
execution must be byte-identical to serial, the cache must hit exactly
when the causal inputs are unchanged, worker failures must surface as
real tracebacks, and the wave-based replication procedure must reproduce
the sequential stopping rule bit for bit.
"""

import json
import multiprocessing
import os
import pickle

import pytest

import repro.runner.supervisor as supervisor_module
from repro.errors import ConfigurationError, WorkerError
from repro.experiments import figure_series, figure_work_units
from repro.runner import (
    ResultCache,
    SupervisorPolicy,
    SweepRunner,
    UnitOutcome,
    WorkUnit,
    resolve_jobs,
    work_unit_digest,
)
from repro.runner.evaluators import evaluator
from repro.sim import spawn_seed
from repro.workload.arrivals import Workload

#: Deliberately failing evaluator, registered at import (module level so
#: pool workers can unpickle it; SIM005).
@evaluator("test-explode")
def _explode(members):
    raise ValueError(f"boom from seed {members[0][0]}")


@evaluator("test-square")
def _square(members):
    return [params["x"] ** 2 + seed for seed, params in members]


@evaluator("test-crash-in-pool")
def _crash_in_pool(members):
    # Kills any pool worker that runs it; computes in the parent.
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return [params["x"] ** 2 for _seed, params in members]


def _square_units(count, seed=0):
    return [WorkUnit("test-square", seed, {"x": x}) for x in range(count)]


class TestWorkUnit:
    def test_digest_is_stable_across_key_order(self):
        first = work_unit_digest("sweep-point", 3, {"a": 1, "b": 2})
        second = work_unit_digest("sweep-point", 3, {"b": 2, "a": 1})
        assert first == second

    def test_digest_changes_with_each_component(self):
        base = work_unit_digest("sweep-point", 3, {"a": 1})
        assert work_unit_digest("analytic-point", 3, {"a": 1}) != base
        assert work_unit_digest("sweep-point", 4, {"a": 1}) != base
        assert work_unit_digest("sweep-point", 3, {"a": 2}) != base

    def test_unit_computes_and_pins_digest(self):
        unit = WorkUnit("sweep-point", 3, {"a": 1})
        assert unit.config_digest == work_unit_digest("sweep-point", 3,
                                                      {"a": 1})
        with pytest.raises(ConfigurationError):
            WorkUnit("sweep-point", 3, {"a": 1}, config_digest="deadbeef")

    def test_params_are_read_only(self):
        unit = WorkUnit("sweep-point", 3, {"a": 1})
        with pytest.raises(TypeError):
            unit.params["a"] = 2

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkUnit("sweep-point", 3, {"a": object()})

    def test_payload_round_trips_through_pickle(self):
        unit = WorkUnit("sweep-point", 3, {"a": 1})
        payload = pickle.loads(pickle.dumps(unit.payload()))
        assert payload == ("sweep-point",
                           [(3, {"a": 1}, unit.config_digest)])


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs()
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)


class TestSweepRunner:
    def test_serial_and_parallel_results_identical(self):
        units = _square_units(9)
        serial = SweepRunner(jobs=1).run_values(units)
        parallel = SweepRunner(jobs=3).run_values(units)
        assert serial == parallel == [x ** 2 for x in range(9)]

    def test_outcomes_come_back_in_submission_order(self):
        units = _square_units(7)
        outcomes = SweepRunner(jobs=2).run(units)
        assert [o.unit.config_digest for o in outcomes] == [
            u.config_digest for u in units]
        assert all(isinstance(o, UnitOutcome) and o.ok and not o.cached
                   for o in outcomes)
        assert all(o.wall_time >= 0.0 for o in outcomes)

    def test_worker_exception_carries_remote_traceback(self):
        units = [WorkUnit("test-square", 0, {"x": 1}),
                 WorkUnit("test-explode", 7, {})]
        runner = SweepRunner(jobs=2)
        with pytest.raises(WorkerError) as excinfo:
            runner.run(units)
        assert "boom from seed 7" in excinfo.value.remote_traceback
        assert "ValueError" in excinfo.value.remote_traceback
        assert excinfo.value.digest == units[1].config_digest

    def test_raise_on_error_false_returns_outcomes(self):
        units = [WorkUnit("test-explode", 7, {}),
                 WorkUnit("test-square", 0, {"x": 2})]
        outcomes = SweepRunner(jobs=1).run(units, raise_on_error=False)
        assert not outcomes[0].ok and "boom" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 4

    def test_equal_units_each_execute(self, tmp_path):
        log = tmp_path / "executions.log"
        units = [WorkUnit("test-log-execution", 1, {"x": x, "log": str(log)})
                 for _copy in range(3) for x in range(3)]
        runner = SweepRunner(jobs=1)
        outcomes = runner.run(units)
        assert log.read_text().count("\n") == 9  # every unit executes
        report = runner.last_report
        assert (report.total, report.computed, report.deduped) == (9, 9, 0)
        assert [o.value for o in outcomes] == [1, 11, 21] * 3
        assert [o.unit.config_digest for o in outcomes] == [
            u.config_digest for u in units]

    def test_equal_failing_units_fail_alike(self):
        units = [WorkUnit("test-explode", 7, {}),
                 WorkUnit("test-explode", 7, {}),
                 WorkUnit("test-square", 0, {"x": 2})]
        policy = SupervisorPolicy(max_attempts=1)
        runner = SweepRunner(jobs=1, supervisor=policy)
        outcomes = runner.run(units, raise_on_error=False)
        assert not outcomes[0].ok and not outcomes[1].ok
        assert outcomes[0].error == outcomes[1].error
        assert "boom from seed 7" in outcomes[1].error
        assert outcomes[2].ok
        assert len(runner.last_report.failures) == 2

    def test_counter_invariant_with_cache_hits(self, tmp_path):
        units = [WorkUnit("test-square", 2, {"x": x}) for x in (1, 1, 2, 3)]
        cache = ResultCache(tmp_path)
        warm = SweepRunner(jobs=1, cache=cache)
        warm.run([units[3]])  # pre-warm x=3
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run(units)
        report = runner.last_report
        assert report.cache_hits == 1
        assert report.computed + report.cache_hits == report.total == 4

    def test_run_report_format_mentions_hit_rate(self):
        units = [WorkUnit("test-square", 0, {"x": 1}),
                 WorkUnit("test-square", 0, {"x": 1})]
        runner = SweepRunner(jobs=1)
        runner.run(units)
        text = runner.last_report.format()
        assert text.startswith("2 unit(s): 2 computed, 0 cache hit(s)")
        assert "hit rate" in text
        assert "fault tolerance" not in text  # a clean run


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, value = cache.get("ab" + "0" * 62)
        assert not hit and value is None
        cache.put("ab" + "0" * 62, {"answer": 42})
        hit, value = cache.get("ab" + "0" * 62)
        assert hit and value == {"answer": 42}
        assert cache.misses == 1 and cache.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "cd" + "0" * 62
        cache.put(digest, 1.0)
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        path.write_bytes(b"not a pickle")
        hit, value = cache.get(digest)
        assert not hit and value is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02d}" + "0" * 62, index)
        stats = cache.stats()
        assert stats.entries == 3 and stats.total_bytes > 0
        assert "entries" in stats.format()
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_stats_format_is_human_readable(self):
        from repro.runner import CacheStats

        stats = CacheStats(root="/r", entries=2, total_bytes=3 * 1024 * 1024,
                           session_hits=1, session_misses=0)
        assert "3.0 MiB" in stats.format()
        small = CacheStats(root="/r", entries=1, total_bytes=512,
                           session_hits=0, session_misses=0)
        assert "512 B" in small.format()

    def test_format_bytes_scales_units(self):
        from repro.runner import format_bytes

        assert format_bytes(0) == "0 B"
        assert format_bytes(1023) == "1023 B"
        assert format_bytes(1536) == "1.5 KiB"
        assert format_bytes(5 * 1024 * 1024) == "5.0 MiB"
        assert format_bytes(3 * 1024 ** 3) == "3.0 GiB"

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        digests = [f"{index:02d}" + "0" * 62 for index in range(4)]
        for index, digest in enumerate(digests):
            cache.put(digest, b"x" * 100)
            path = tmp_path / digest[:2] / f"{digest}.pkl"
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        entry_size = cache.stats().total_bytes // 4
        removed, remaining = cache.prune(entry_size * 2)
        assert removed == 2 and remaining == entry_size * 2
        # The two oldest-written entries are gone, the newest two survive.
        assert not cache.get(digests[0])[0] and not cache.get(digests[1])[0]
        cache.hits = cache.misses = 0
        assert cache.get(digests[2])[0] and cache.get(digests[3])[0]

    def test_prune_within_budget_removes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ef" + "0" * 62, 1.0)
        total = cache.stats().total_bytes
        assert cache.prune(total) == (0, total)
        assert cache.prune(10 * 1024 * 1024) == (0, total)
        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_prune_to_zero_empties_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02d}" + "0" * 62, index)
        removed, remaining = cache.prune(0)
        assert removed == 3 and remaining == 0
        assert cache.stats().entries == 0

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "envcache"

    def test_get_many_counts_each_digest_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        kept, gone, absent = (f"{index:02d}" + "1" * 62 for index in range(3))
        cache.put(kept, "kept")
        cache.put(gone, "gone")
        (tmp_path / gone[:2] / f"{gone}.pkl").unlink()
        values = cache.get_many([kept, gone, absent, kept, absent])
        assert values == {kept: "kept"}
        # One load per distinct digest: the repeated hit and the repeated
        # miss count once each; a deleted entry is a plain miss.
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 2, 0)

    def test_get_many_survives_a_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        good, bad = (f"{index:02d}" + "3" * 62 for index in range(2))
        cache.put(good, "good")
        cache.put(bad, "bad")
        bad_path = tmp_path / bad[:2] / f"{bad}.pkl"
        bad_path.write_bytes(b"torn")
        values = cache.get_many([good, bad])
        assert values == {good: "good"}
        # The corrupt entry is a quarantined miss; the good one is served.
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 1)
        assert not bad_path.exists()
        assert [p.name for p in cache.quarantine_root.iterdir()] == [
            f"{bad}.pkl.quar"]

    def test_quarantine_sibling_directories_are_scanned(self, tmp_path):
        # Quarantine is excluded by path component, not by name prefix: a
        # "_quarantine-old" sibling holds real entries.
        from repro.runner import encode_entry

        cache = ResultCache(tmp_path)
        cache.put("01" + "2" * 62, 1)
        sibling = tmp_path / "_quarantine-old"
        sibling.mkdir()
        stray = "02" + "2" * 62
        (sibling / f"{stray}.pkl").write_bytes(encode_entry(stray, "stray"))
        cache.quarantine_root.mkdir()
        (cache.quarantine_root / ("03" + "2" * 62 + ".pkl")).write_bytes(
            b"evidence")
        assert cache.stats().entries == 2
        assert cache.verify().checked == 2

    def test_stats_json_key_set(self, tmp_path, capsys):
        from repro.cli import main

        ResultCache(tmp_path).put("04" + "2" * 62, "x" * 20)
        assert main(["cache", "stats", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"root", "entries", "total_bytes",
                                "session_hits", "session_misses",
                                "quarantined", "session_corrupt", "hit_rate"}
        assert payload["entries"] == 1 and payload["total_bytes"] > 0
        assert payload["hit_rate"] is None

    def test_entries_with_evaluator_provenance_still_load(self, tmp_path):
        # Earlier writers added an "evaluator" key to the envelope and kept
        # an SQLite index file beside the store.  Neither version moved, so
        # those entries are verified hits and the stray file is no entry.
        import hashlib

        from repro.runner import CACHE_SCHEMA_VERSION, ENVELOPE_VERSION

        assert (ENVELOPE_VERSION, CACHE_SCHEMA_VERSION) == (1, 8)
        digest = "05" + "2" * 62
        payload = pickle.dumps({"answer": 42})
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({
            "format": "repro-result-cache", "version": 1, "digest": digest,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload, "evaluator": "megabatch-figure"}))
        (tmp_path / "_index.sqlite").write_bytes(b"SQLite format 3\x00")
        cache = ResultCache(tmp_path)
        assert cache.get_many([digest]) == {digest: {"answer": 42}}
        assert cache.verify().clean and cache.verify().checked == 1
        assert cache.stats().entries == 1

    def test_runner_serves_repeat_work_from_cache(self, tmp_path):
        units = _square_units(5)
        first = SweepRunner(jobs=1, cache=tmp_path)
        cold = first.run(units)
        assert not any(o.cached for o in cold)
        second = SweepRunner(jobs=1, cache=tmp_path)
        warm = second.run(units)
        assert all(o.cached and o.wall_time == 0.0 for o in warm)
        assert [o.value for o in warm] == [o.value for o in cold]

    def test_config_change_invalidates(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.run(_square_units(3, seed=0))
        changed = runner.run(_square_units(3, seed=1))
        assert not any(o.cached for o in changed)

    def test_failures_are_not_cached(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=tmp_path)
        unit = WorkUnit("test-explode", 1, {})
        runner.run([unit], raise_on_error=False)
        again = runner.run([unit], raise_on_error=False)
        assert not again[0].cached and not again[0].ok


def _simulated_point_seeds(units):
    """``(seed, (triplet, intensity))`` of every simulated figure point."""
    return [(spawn_seed(unit.seed, unit.params["config"], intensity),
             (unit.params["config"], intensity))
            for unit in units if unit.evaluator_id == "megabatch-figure"
            for intensity in unit.params["intensities"]]


def _simulated_figure_curves():
    """``(exp_id, spec, config)`` of every simulated figure curve (SBUS
    figures stay analytic)."""
    from repro.config import SystemConfig
    from repro.experiments import FIGURE_SPECS

    for exp_id, spec in FIGURE_SPECS.items():
        for _label, triplet in spec.curves:
            config = SystemConfig.parse(triplet)
            if config.network_type != "SBUS":
                yield exp_id, spec, config


class TestFigureParity:
    def test_work_units_have_independent_seeds(self):
        _spec, _grid, units = figure_work_units("fig7", quality="fast",
                                                intensities=[0.3, 0.6])
        seeds = [seed for seed, _key in _simulated_point_seeds(units)]
        assert len(seeds) == len(set(seeds)) == 8
        assert len({u.config_digest for u in units}) == len(units)

    def test_spawn_seed_is_key_determined(self):
        assert spawn_seed(1, "a", 0.3) == spawn_seed(1, "a", 0.3)
        assert spawn_seed(1, "a", 0.3) != spawn_seed(1, "a", 0.6)
        assert spawn_seed(1, "a", 0.3) != spawn_seed(2, "a", 0.3)

    def test_spawn_seeds_collision_free_across_figure_registry(self):
        """Derived per-point seeds never collide over the whole registry,
        and no figure hands the runner two units with one digest, at any
        quality preset."""
        from repro.experiments import FIGURE_SPECS, QUALITY_PRESETS

        seen = {}
        for exp_id in FIGURE_SPECS:
            for quality in QUALITY_PRESETS:
                _spec, _grid, units = figure_work_units(exp_id,
                                                        quality=quality)
                digests = [unit.config_digest for unit in units]
                assert len(set(digests)) == len(digests), (
                    f"{exp_id} at {quality} repeats a unit digest")
                for seed, key in _simulated_point_seeds(units):
                    previous = seen.setdefault(seed, key)
                    # The same (curve, intensity) pair legitimately reuses
                    # its seed across qualities; distinct pairs must not.
                    assert previous == key, (
                        f"seed collision: {previous} vs {key}")
        assert len(seen) > 50

    def test_each_simulated_curve_is_one_unit(self):
        """Each simulated curve is one ``megabatch-figure`` unit over the
        whole grid, and no unit names an engine: the engine is not
        digest material."""
        for exp_id in ("fig4", "fig7", "fig12"):
            spec, grid, units = figure_work_units(
                exp_id, intensities=[0.3, 0.6])
            curves = [u for u in units
                      if u.evaluator_id == "megabatch-figure"]
            simulated = [triplet for _label, triplet in spec.curves
                         if "SBUS" not in triplet]
            assert [u.params["config"] for u in curves] == simulated
            assert all(u.params["intensities"] == grid for u in curves)
            assert not any("engine" in u.params for u in units)

    def test_every_simulated_figure_family_is_megabatch_eligible(self):
        """The closed fabric gate: no simulated figure curve falls back
        to the scalar loop (SBUS figures stay analytic)."""
        from repro.analysis.sweep import workload_at
        from repro.sim.batched import batched_unsupported_reason

        simulated = 0
        for exp_id, spec, config in _simulated_figure_curves():
            workload = workload_at(0.5, spec.mu_ratio,
                                   processors=config.processors)
            assert batched_unsupported_reason(config, workload) is None, (
                f"{exp_id} {config} falls back to the scalar loop")
            simulated += 1
        assert simulated >= 16  # four curves in each of figs 7, 8, 12, 13

    def test_no_figure_curve_falls_back_at_any_preset_intensity(self):
        """The gate passes every simulated figure curve at every intensity
        of every quality preset's grid, so `repro run` has no scalar
        fallback to report."""
        from repro.analysis.sweep import workload_at
        from repro.experiments.figures import QUALITY_PRESETS, intensity_grid
        from repro.sim.batched import batched_unsupported_reason

        for step, _horizon in QUALITY_PRESETS.values():
            for exp_id, spec, config in _simulated_figure_curves():
                for intensity in intensity_grid(step):
                    workload = workload_at(intensity, spec.mu_ratio,
                                           processors=config.processors)
                    assert batched_unsupported_reason(
                        config, workload) is None, (
                        f"{exp_id} {config} at {intensity} falls back "
                        "to the scalar loop")

    def test_schema_bump_separates_fabric_gate_digests(self, monkeypatch):
        """Schema bumps (the fabric gate at 6, the engine collapse at 7)
        separate digests, so an older schema's entries can never serve."""
        from repro.runner import workunit

        assert workunit.CACHE_SCHEMA_VERSION >= 7
        assert (f"schema{workunit.CACHE_SCHEMA_VERSION}"
                in workunit.code_version())
        params = {"config": "16/1x16x16 OMEGA/2", "mu_ratio": 0.1,
                  "intensities": [0.3]}
        current = work_unit_digest("megabatch-figure", 3, params)
        for older in (5, 6):
            monkeypatch.setattr(workunit, "CACHE_SCHEMA_VERSION", older)
            assert work_unit_digest("megabatch-figure", 3, params) != current

    def test_megabatch_evaluator_matches_per_point_units(self):
        """A curve unit's value equals its one-point curves' values bit
        for bit (lockstep rows never interact), saturated points
        included."""
        from repro.runner.evaluators import get_evaluator

        curve = get_evaluator("megabatch-figure")
        params = {"config": "16/1x16x8 XBAR/2", "mu_ratio": 0.1,
                  "horizon": 1_000.0}
        [together] = curve([(9, {**params,
                                 "intensities": [0.2, 0.4, 5.0]})])
        alone = [point for intensity in (0.2, 0.4, 5.0)
                 for [point] in curve([(9, {**params,
                                            "intensities": [intensity]})])]
        assert together == alone
        assert [point.normalized_delay is None for point in together] == [
            False, False, True]

    def test_serial_and_parallel_figures_identical(self):
        grid = [0.3, 0.6]
        serial = figure_series("fig7", quality="fast", intensities=grid,
                               runner=SweepRunner(jobs=1))
        parallel = figure_series("fig7", quality="fast", intensities=grid,
                                 runner=SweepRunner(jobs=4))
        assert serial == parallel

    def test_cached_figure_is_identical_to_fresh(self, tmp_path):
        grid = [0.4]
        cold_runner = SweepRunner(jobs=1, cache=tmp_path)
        cold = figure_series("fig4", quality="fast", intensities=grid,
                             runner=cold_runner)
        warm_runner = SweepRunner(jobs=1, cache=tmp_path)
        warm = figure_series("fig4", quality="fast", intensities=grid,
                             runner=warm_runner)
        assert warm == cold
        assert all(o.cached for o in warm_runner.last_outcomes)


class TestReplicationWaves:
    WORKLOAD = Workload(arrival_rate=0.04, transmission_rate=1.0,
                        service_rate=0.2)

    def test_wave_estimate_matches_sequential(self):
        from repro.analysis.replication import replicate_delay
        from repro.core.system import simulate

        estimate = replicate_delay("8/1x1x1 SBUS/4", self.WORKLOAD,
                                   horizon=2_000.0, warmup=200.0,
                                   target_relative_halfwidth=0.2,
                                   max_replications=30)
        assert estimate.values == tuple(
            simulate("8/1x1x1 SBUS/4", self.WORKLOAD, horizon=2_000.0,
                     warmup=200.0, seed=100 + index).mean_queueing_delay
            for index in range(estimate.replications))


class TestJobsEnvIntegration:
    def test_repro_jobs_env_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        runner = SweepRunner()
        assert runner.effective_jobs == 2
        values = runner.run_values(_square_units(4))
        assert values == [0, 1, 4, 9]


class TestCacheIntegrity:
    """The checksummed-envelope contract: damage is detected, never served."""

    def _digest(self, index=0):
        return f"{index:02x}" + "e" * 62

    def test_envelope_round_trip_and_statuses(self):
        from repro.runner import decode_entry, encode_entry

        digest = self._digest()
        blob = encode_entry(digest, {"answer": 42})
        assert decode_entry(digest, blob) == ("ok", {"answer": 42})
        # Stored under the wrong digest: corrupt, not a value.
        assert decode_entry(self._digest(1), blob)[0] == "corrupt"
        # A flipped byte anywhere in the payload: corrupt.
        damaged = blob[:-10] + bytes([blob[-10] ^ 0xFF]) + blob[-9:]
        assert decode_entry(digest, damaged)[0] in ("corrupt", "legacy")
        # Truncation: corrupt.
        assert decode_entry(digest, blob[: len(blob) // 2])[0] == "corrupt"
        # A pre-envelope plain pickle: legacy (a miss, not quarantine bait).
        assert decode_entry(digest, pickle.dumps(42))[0] == "legacy"

    def test_corrupt_get_quarantines_the_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = self._digest(2)
        cache.put(digest, [1.0, 2.0])
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        blob = path.read_bytes()
        path.write_bytes(blob[:-4] + bytes([blob[-4] ^ 0xFF]) + blob[-3:])
        hit, value = cache.get(digest)
        assert not hit and value is None
        assert not path.exists()
        quarantined = list(cache.quarantine_root.iterdir())
        assert [p.name for p in quarantined] == [f"{digest}.pkl.quar"]
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.quarantined == 1 and stats.session_corrupt == 1
        # Quarantine never blocks a fresh write of the same digest.
        cache.put(digest, [3.0])
        assert cache.get(digest) == (True, [3.0])

    def test_legacy_entry_is_a_miss_and_overwritten_in_place(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = self._digest(3)
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"pre-envelope": True}))
        assert cache.get(digest) == (False, None)
        assert path.exists()          # a miss, not quarantine bait
        cache.put(digest, "fresh")
        assert cache.get(digest) == (True, "fresh")

    def test_verify_reports_and_repairs(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = self._digest(4)
        bad = self._digest(5)
        legacy = self._digest(6)
        cache.put(good, 1)
        cache.put(bad, 2)
        bad_path = tmp_path / bad[:2] / f"{bad}.pkl"
        bad_path.write_bytes(b"\x00garbage")
        legacy_path = tmp_path / legacy[:2] / f"{legacy}.pkl"
        legacy_path.parent.mkdir(parents=True, exist_ok=True)
        legacy_path.write_bytes(pickle.dumps(3))

        report = cache.verify()
        assert (report.checked, report.ok) == (3, 1)
        assert report.corrupt == (bad,)
        assert report.legacy == (legacy,)
        assert not report.clean
        assert bad in report.format()

        repaired = cache.verify(repair=True)
        assert repaired.quarantined == 2
        assert not bad_path.exists() and not legacy_path.exists()
        assert cache.verify().clean
        assert cache.get(good) == (True, 1)

    def test_scans_tolerate_entries_vanishing_mid_walk(self, tmp_path):
        # A dangling symlink is a faithful stand-in for the race: the scan
        # lists the entry, but stat/read raise when another runner has
        # already pruned it.
        cache = ResultCache(tmp_path)
        cache.put(self._digest(7), "survivor")
        ghost = tmp_path / "aa" / (self._digest(8)[2:] + ".pkl")
        ghost.parent.mkdir(parents=True, exist_ok=True)
        ghost.symlink_to(tmp_path / "never-existed.pkl")

        stats = cache.stats()
        assert stats.entries == 1
        report = cache.verify()
        assert report.checked == 1 and report.clean
        removed, remaining = cache.prune(0)
        assert removed == 1 and remaining == 0

    def test_clear_sweeps_quarantine_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = self._digest(9)
        cache.put(digest, 1)
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        path.write_bytes(b"torn")
        cache.get(digest)
        assert list(cache.quarantine_root.iterdir())
        assert cache.clear() == 0     # the only entry was quarantined
        assert not cache.quarantine_root.exists()


@evaluator("test-echo")
def _echo(members):
    return [{"seed": seed, "x": params["x"]} for seed, params in members]


@evaluator("test-log-execution")
def _log_execution(members):
    # Appends one line per *execution* to a file the test names; tests
    # count lines to prove how many times units ran.
    values = []
    for seed, params in members:
        with open(params["log"], "a", encoding="utf-8") as handle:
            handle.write(f"{seed}:{params['x']}\n")
        values.append(params["x"] * 10 + seed)
    return values


def _count_calls(monkeypatch, evaluator_id):
    """Record the member count of every call of ``evaluator_id``."""
    from repro.runner.evaluators import EVALUATORS

    calls = []
    original = EVALUATORS[evaluator_id]

    def counted(members):
        calls.append(len(members))
        return original(members)

    monkeypatch.setitem(EVALUATORS, evaluator_id, counted)
    return calls


class TestSerialRuns:
    """The serial path hands each run of consecutive pending units of one
    evaluator to a single call and splits the outcomes per unit."""

    def test_consecutive_units_make_one_call(self, monkeypatch):
        calls = _count_calls(monkeypatch, "test-square")
        other = WorkUnit("test-echo", 0, {"x": 7})
        units = _square_units(5) + [other] + _square_units(2, seed=10)
        runner = SweepRunner(jobs=1)
        values = runner.run_values(units)
        assert calls == [5, 2]
        assert values == ([x ** 2 for x in range(5)]
                          + [{"seed": 0, "x": 7}]
                          + [10, 11])
        outcomes = runner.last_outcomes
        assert all(outcome.attempts == 1 for outcome in outcomes)
        # The call's wall time is split evenly among its members.
        assert len({outcome.wall_time for outcome in outcomes[:5]}) == 1
        assert runner.last_report.computed == len(units)

    def test_chaos_on_one_member_falls_back_per_unit(self, monkeypatch):
        from repro.runner import ChaosPolicy

        units = _square_units(6)
        digests = [unit.config_digest for unit in units]

        def fails(policy, digest, attempt):
            return policy._draw("fail", digest, attempt) < policy.fail

        # A policy whose injection hits exactly one member, once.
        policy = next(
            candidate for candidate in (ChaosPolicy(fail=0.2, seed=seed)
                                        for seed in range(1000))
            if sum(fails(candidate, digest, 1) for digest in digests) == 1
            and not any(fails(candidate, digest, 2) for digest in digests))
        target = next(index for index, digest in enumerate(digests)
                      if fails(policy, digest, 1))
        clean = SweepRunner(jobs=1).run_values(units)
        calls = _count_calls(monkeypatch, "test-square")
        runner = SweepRunner(jobs=1, chaos=policy)
        values = runner.run_values(units)
        assert pickle.dumps(values) == pickle.dumps(clean)
        # Chaos fired before the shared call ran, so every member took
        # the per-unit path: one evaluation each (the target's first
        # attempt fails before its evaluator runs).
        assert calls == [1] * len(units)
        assert [outcome.attempts for outcome in runner.last_outcomes] == [
            2 if index == target else 1 for index in range(len(units))]
        assert runner.last_report.retries == 1
        assert runner.last_report.serial_fallbacks == 0


class TestPoolRecovery:
    def test_broken_pool_walks_recovery_to_serial(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        def broken(self, *args, **kwargs):
            raise BrokenProcessPool("no workers today")

        # Every submit fails: the supervisor must respawn the pool and
        # eventually send the work to inline serial execution.
        monkeypatch.setattr(ProcessPoolExecutor, "submit", broken)
        monkeypatch.setattr(supervisor_module, "MAX_POOL_RESPAWNS", 1)
        policy = SupervisorPolicy(max_attempts=1)
        runner = SweepRunner(jobs=2, supervisor=policy)
        units = _square_units(4)
        values = runner.run_values(units)
        assert values == [x ** 2 for x in range(4)]
        report = runner.last_report
        assert report.pool_respawns >= 1
        assert report.serial_fallbacks == 4

    def test_drain_keeps_requested_units(self, monkeypatch):
        # Once the pool gives up, the drained outcomes still name the
        # requested units, equal ones included, each recorded once as a
        # serial fallback.
        units = [WorkUnit("test-crash-in-pool", 0, {"x": x})
                 for x in (1, 1, 2)]
        monkeypatch.setattr(supervisor_module, "MAX_POOL_RESPAWNS", 1)
        policy = SupervisorPolicy(max_attempts=2)
        runner = SweepRunner(jobs=2, supervisor=policy)
        assert runner.run_values(units) == [1, 1, 4]
        outcomes = runner.last_outcomes
        assert [outcome.unit for outcome in outcomes] == units
        assert all(outcome.serial_fallback for outcome in outcomes)
        assert runner.last_report.serial_fallbacks == 3
