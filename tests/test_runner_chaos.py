"""Chaos tests for the fault-tolerant execution layer (repro.runner).

The contract under test: with deterministic fault injection enabled —
worker crashes, transient failures, hangs, cache-byte corruption — a sweep
still completes through immediate retry, pool respawn, and serial
fallback, and the values it produces are byte-identical to a fault-free
run (retries and pool-level recovery recompute pure functions; they
cannot change results).
A killed sweep leaves an append-only journal behind, and running it again
recomputes only the missing units.
"""

import json
import multiprocessing
import os
import pickle
import time  # lint: disable=SIM002 - tests supervise wall-clock execution

import pytest

from repro.errors import ChaosError, ConfigurationError, WorkerError
from repro.experiments import figure_series
from repro.runner import (
    ChaosPolicy,
    ResultCache,
    SupervisorPolicy,
    SweepJournal,
    SweepRunner,
    WorkUnit,
    resolve_chaos,
)
from repro.runner.evaluators import evaluator


@evaluator("chaos-square")
def _square(members):
    return [params["x"] ** 2 + seed for seed, params in members]


@evaluator("chaos-marker-hang")
def _marker_hang(members):
    """Hangs on the first execution only: the marker file is the memory.

    The first worker to run the unit creates the marker and sleeps far past
    any test timeout; after the supervisor kills it, the retry sees the
    marker and returns immediately — a real hung worker, a real recovery.
    """
    values = []
    for _seed, params in members:
        marker = params["marker"]
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write("hung once")
            time.sleep(60.0)
        values.append(params["x"] * 10)
    return values


@evaluator("chaos-sleep")
def _sleep(members):
    """Sleeps ``seconds`` per member: a unit that is slow, never hung."""
    values = []
    for _seed, params in members:
        time.sleep(params["seconds"])
        values.append(params["x"])
    return values


@evaluator("chaos-worker-exit")
def _worker_exit(members):
    """Kills the pool worker running it, never the parent process: on
    every execution, or only on the first when ``marker`` names a file
    that records it.  A real worker death, so the pool really breaks."""
    values = []
    for _seed, params in members:
        marker = params.get("marker")
        in_worker = multiprocessing.parent_process() is not None
        if in_worker and not (marker and os.path.exists(marker)):
            if marker:
                with open(marker, "w", encoding="utf-8") as handle:
                    handle.write("exited once")
            os._exit(1)
        values.append(params["x"])
    return values


def _beside_slow_units(crasher, count):
    """``crasher`` first, then ``count`` 1 s units: with two workers the
    first slow unit is still in flight when the crasher's worker dies."""
    return [crasher] + [WorkUnit("chaos-sleep", 0, {"x": x, "seconds": 1.0})
                        for x in range(count)]


def _units(count, seed=0):
    return [WorkUnit("chaos-square", seed, {"x": x}) for x in range(count)]


class TestChaosPolicy:
    def test_parse_and_spec_round_trip(self):
        policy = ChaosPolicy.parse("crash=0.1, fail=0.05,seed=7")
        assert policy.crash == 0.1
        assert policy.fail == 0.05
        assert policy.seed == 7
        assert ChaosPolicy.parse(policy.spec()) == policy

    def test_bad_specs_rejected(self):
        for spec in ("crash=1.5", "fail=-0.1", "hang_seconds=0",
                     "bogus=0.5", "crash=notanumber", "crash0.5"):
            with pytest.raises(ConfigurationError):
                ChaosPolicy.parse(spec)

    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert not resolve_chaos().active
        monkeypatch.setenv("REPRO_CHAOS", "fail=0.25,seed=3")
        assert resolve_chaos().fail == 0.25
        explicit = ChaosPolicy(crash=0.5)
        assert resolve_chaos(explicit) is explicit
        assert resolve_chaos(spec="hang=0.1").hang == 0.1

    def test_decisions_are_deterministic(self):
        first = ChaosPolicy(fail=0.5, corrupt=0.5, seed=11)
        second = ChaosPolicy(fail=0.5, corrupt=0.5, seed=11)
        digests = [unit.config_digest for unit in _units(32)]
        for digest in digests:
            assert (first.should_corrupt(digest)
                    == second.should_corrupt(digest))
        # Attempt-salting: the same unit rolls fresh dice each attempt, so
        # under a 50% rate some units fail attempt 1 and pass attempt 2.
        def fails(policy, digest, attempt):
            try:
                policy.maybe_inject(digest, attempt, in_worker=False)
            except ChaosError:
                return True
            return False

        outcomes = {(d, a): fails(first, d, a)
                    for d in digests for a in (1, 2)}
        assert outcomes == {(d, a): fails(second, d, a)
                            for d in digests for a in (1, 2)}
        assert any(outcomes[(d, 1)] and not outcomes[(d, 2)]
                   for d in digests)

    def test_corrupt_bytes_flips_exactly_one_byte(self):
        policy = ChaosPolicy(corrupt=1.0, seed=2)
        blob = bytes(range(256))
        damaged = policy.corrupt_bytes("abcd" * 16, blob)
        assert damaged != blob
        assert len(damaged) == len(blob)
        assert sum(1 for a, b in zip(blob, damaged) if a != b) == 1
        assert damaged == policy.corrupt_bytes("abcd" * 16, blob)

    def test_inline_crash_degrades_to_error(self):
        policy = ChaosPolicy(crash=1.0)
        with pytest.raises(ChaosError):
            policy.maybe_inject("deadbeef", 1, in_worker=False)


class TestSupervisorPolicy:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(unit_timeout=0.0)


class TestSupervisedRuns:
    def test_injected_failures_converge_byte_identical_serial(self):
        units = _units(12, seed=3)
        baseline = SweepRunner(jobs=1).run_values(units)
        chaos = ChaosPolicy(fail=0.4, seed=5)
        runner = SweepRunner(jobs=1, supervisor=SupervisorPolicy(max_attempts=8),
                             chaos=chaos)
        assert runner.run_values(units) == baseline
        assert runner.last_report.retries > 0
        assert pickle.dumps(baseline) == pickle.dumps(
            [outcome.value for outcome in runner.last_outcomes])

    def test_injected_crashes_converge_byte_identical_pool(self):
        units = _units(10, seed=1)
        chaos = ChaosPolicy(crash=0.25, seed=9)
        # Precondition: the chosen seed really does crash someone's first
        # attempt, so the pool-respawn path is exercised, not skipped.
        assert any(chaos._draw("crash", unit.config_digest, 1) < chaos.crash
                   for unit in units)
        baseline = SweepRunner(jobs=1).run_values(units)
        runner = SweepRunner(jobs=2, supervisor=SupervisorPolicy(max_attempts=8),
                             chaos=chaos)
        assert runner.run_values(units) == baseline
        assert runner.last_report.pool_respawns >= 1

    def test_injected_hangs_recover_via_retry(self):
        units = _units(6, seed=2)
        chaos = ChaosPolicy(hang=0.5, hang_seconds=0.05, seed=14)
        runner = SweepRunner(jobs=2, supervisor=SupervisorPolicy(max_attempts=8),
                             chaos=chaos)
        assert runner.run_values(units) == SweepRunner(jobs=1).run_values(units)
        assert runner.last_report.retries >= 1

    def test_unit_timeout_kills_a_real_hang(self, tmp_path):
        marker = tmp_path / "hang.marker"
        units = [WorkUnit("chaos-marker-hang", 0,
                          {"x": 7, "marker": str(marker)}),
                 WorkUnit("chaos-square", 0, {"x": 5})]
        runner = SweepRunner(
            jobs=2,
            supervisor=SupervisorPolicy(max_attempts=4, unit_timeout=1.0))
        start = time.monotonic()
        values = runner.run_values(units)
        assert time.monotonic() - start < 30.0
        assert values == [70, 25]
        assert runner.last_report.timeouts >= 1
        assert runner.last_report.pool_respawns >= 1
        assert marker.exists()

    def test_unit_timeout_covers_a_lone_unit(self, tmp_path):
        # One pending unit must still run in the pool when a timeout is
        # set: inline execution could not stop it.
        marker = tmp_path / "hang.marker"
        units = [WorkUnit("chaos-marker-hang", 0,
                          {"x": 7, "marker": str(marker)})]
        runner = SweepRunner(
            jobs=2,
            supervisor=SupervisorPolicy(max_attempts=4, unit_timeout=1.0))
        start = time.monotonic()
        assert runner.run_values(units) == [70]
        assert time.monotonic() - start < 30.0
        assert runner.last_report.timeouts >= 1
        assert marker.exists()

    def test_queued_unit_keeps_its_whole_timeout(self):
        # Four 1.0 s units on two workers: the last two wait about 1.0 s
        # for a free worker.  Their 1.5 s timeout must count from their
        # start, not from the moment the run began.
        units = [WorkUnit("chaos-sleep", 0, {"x": x, "seconds": 1.0})
                 for x in range(4)]
        runner = SweepRunner(
            jobs=2, supervisor=SupervisorPolicy(unit_timeout=1.5))
        assert runner.run_values(units) == [0, 1, 2, 3]
        report = runner.last_report
        assert report.timeouts == 0
        assert report.pool_respawns == 0

    def test_break_with_several_in_flight_charges_none(self, tmp_path,
                                                       monkeypatch):
        # BrokenProcessPool does not say whose worker died: the unit in
        # flight beside the crasher is run again, alone, uncharged.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        marker = tmp_path / "exit.marker"
        units = _beside_slow_units(WorkUnit(
            "chaos-worker-exit", 0, {"x": 9, "marker": str(marker)}), 3)
        runner = SweepRunner(jobs=2,
                             supervisor=SupervisorPolicy(max_attempts=1))
        outcomes = runner.run(units)
        assert [outcome.value for outcome in outcomes] == [9, 0, 1, 2]
        assert marker.exists()
        report = runner.last_report
        assert report.pool_respawns >= 1
        assert report.retries == 0
        assert report.serial_fallbacks == 0
        assert not any(outcome.serial_fallback for outcome in outcomes)

    def test_only_the_crashing_unit_falls_back_to_serial(self, monkeypatch):
        # The crasher kills every worker it runs in; the slow unit flies
        # beside it at first, and must not pay for those deaths.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        units = _beside_slow_units(
            WorkUnit("chaos-worker-exit", 0, {"x": 9}), 1)
        runner = SweepRunner(jobs=2,
                             supervisor=SupervisorPolicy(max_attempts=2))
        outcomes = runner.run(units)
        assert [outcome.value for outcome in outcomes] == [9, 0]
        assert [outcome.serial_fallback for outcome in outcomes] == [
            True, False]
        assert runner.last_report.serial_fallbacks == 1

    def test_budget_exhaustion_surfaces_worker_error(self):
        chaos = ChaosPolicy(fail=1.0)
        runner = SweepRunner(jobs=1, supervisor=SupervisorPolicy(max_attempts=2),
                             chaos=chaos)
        with pytest.raises(WorkerError):
            runner.run(_units(2))
        outcomes = runner.run(_units(2), raise_on_error=False)
        assert all(not outcome.ok for outcome in outcomes)
        assert all("ChaosError" in outcome.error for outcome in outcomes)
        assert runner.last_report.failures

    def test_permanent_crash_walks_pool_to_serial(self):
        chaos = ChaosPolicy(crash=1.0)
        runner = SweepRunner(jobs=2, supervisor=SupervisorPolicy(max_attempts=2),
                             chaos=chaos)
        outcomes = runner.run(_units(4), raise_on_error=False)
        assert all(not outcome.ok for outcome in outcomes)
        assert all(outcome.serial_fallback for outcome in outcomes)
        assert runner.last_report.serial_fallbacks == 4

    def test_keyboard_interrupt_cancels_and_propagates(self, tmp_path,
                                                       monkeypatch):
        import repro.runner.supervisor as supervisor_module

        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(supervisor_module, "wait_futures", interrupted)
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            runner.run(_units(8))
        # Atomic writes: an interrupted run leaves no torn temp files.
        leftovers = [path for path in tmp_path.rglob("*")
                     if path.is_file() and not path.name.endswith(".pkl")]
        assert leftovers == []


class TestCacheChaos:
    def test_corrupted_puts_are_quarantined_never_served(self, tmp_path):
        units = _units(3, seed=7)
        chaos = ChaosPolicy(corrupt=1.0, seed=1)
        writer = SweepRunner(jobs=1, cache=ResultCache(tmp_path, chaos=chaos))
        baseline = writer.run_values(units)

        clean = ResultCache(tmp_path)
        report = clean.verify()
        assert len(report.corrupt) == 3 and report.ok == 0
        for unit in units:
            hit, _value = clean.get(unit.config_digest)
            assert hit is False
        assert clean.corrupt == 3
        assert clean.stats().quarantined == 3

        # Recompute without chaos: values identical, store now verified.
        rerun = SweepRunner(jobs=1, cache=clean)
        assert rerun.run_values(units) == baseline
        assert clean.verify().clean

    def test_runner_chaos_reaches_cache_writes(self, tmp_path):
        chaos = ChaosPolicy(corrupt=1.0, seed=1)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path), chaos=chaos)
        runner.run_values(_units(2))
        assert len(ResultCache(tmp_path).verify().corrupt) == 2


class TestJournalResume:
    def test_rerun_recomputes_only_missing_units(self, tmp_path):
        units = _units(6, seed=4)
        cache = ResultCache(tmp_path)
        journal = SweepJournal.for_sweep(tmp_path, "chaos-test", 4)

        first = SweepRunner(jobs=1, cache=cache, journal=journal)
        first.run(units[:3])    # the "killed at 50%" prefix

        second = SweepRunner(jobs=1, cache=cache, journal=journal)
        values = second.run_values(units)
        assert values == [unit.params["x"] ** 2 + 4 for unit in units]
        report = second.last_report
        assert report.cache_hits == 3
        assert report.computed == 3

        records = [json.loads(line) for line
                   in journal.path.read_text(encoding="utf-8").splitlines()]
        assert [record["status"] for record in records] == ["ok"] * 9
        assert sum(1 for record in records if record.get("cached")) == 3

    def test_torn_journal_lines_are_skipped(self, tmp_path):
        # A record torn by a kill damages only itself: the next append
        # starts on a line of its own.
        journal = SweepJournal(tmp_path / "torn.jsonl")
        journal.record("a" * 64, "ok")
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "digest": "b", "status"')  # torn
        journal.record("c" * 64, "failed", attempts=3,
                       error="Traceback\nChaosError: injected")
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        with pytest.raises(ValueError):
            json.loads(lines[1])
        entries = [json.loads(lines[0]), json.loads(lines[2])]
        assert [entry["digest"] for entry in entries] == ["a" * 64, "c" * 64]
        assert entries[1]["error"].startswith("ChaosError")

    def test_figure_series_journals_and_reruns_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        first = figure_series("fig4", intensities=[0.3, 0.6], runner=runner)
        assert runner.journal is not None and runner.journal.path.is_file()
        computed = runner.last_report.computed
        assert computed == len(runner.last_outcomes)

        rerun_runner = SweepRunner(jobs=1, cache=cache)
        second = figure_series("fig4", intensities=[0.3, 0.6],
                               runner=rerun_runner)
        assert second == first
        assert rerun_runner.last_report.computed == 0
        assert rerun_runner.last_report.cache_hits == computed


class TestEndToEndChaos:
    def test_ten_percent_chaos_sweep_is_byte_identical(self, tmp_path):
        """The acceptance bar: 10% crashes + 5% corruption, same bytes."""
        units = _units(16, seed=6)
        baseline = pickle.dumps(SweepRunner(jobs=1).run_values(units))
        chaos = ChaosPolicy(crash=0.10, fail=0.05, corrupt=0.05, seed=17)
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path),
                             supervisor=SupervisorPolicy(max_attempts=8),
                             chaos=chaos)
        values = runner.run_values(units)
        assert pickle.dumps(values) == baseline
        report = runner.last_report
        assert not report.failures
        assert report.serial_fallbacks == 0  # retries alone absorb this
        # And the store holds no silent lies: every surviving entry verifies.
        verify = ResultCache(tmp_path).verify(repair=True)
        assert verify.ok + len(verify.corrupt) == verify.checked
