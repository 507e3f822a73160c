"""Replication methodology: CI-driven sequential simulation.

The figure benchmarks use single long runs with batch-means intervals; for
point estimates that must carry a defensible confidence interval (the
EXPERIMENTS.md tables), the textbook-correct procedure is independent
replications with a sequential stopping rule: keep adding replications
until the Student-t interval on the mean queueing delay is narrower than
the requested relative half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runner import SweepRunner

from repro.analysis.sweep import DEFAULT_ENGINE, ENGINES
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.errors import AnalysisError, ConfigurationError
from repro.sim.stats import confidence_interval
from repro.workload.arrivals import Workload


@dataclass(frozen=True)
class ReplicationEstimate:
    """A mean-delay estimate from independent replications."""

    mean_delay: float
    ci_halfwidth: float
    replications: int
    values: Tuple[float, ...]

    @property
    def relative_halfwidth(self) -> float:
        """Half-width as a fraction of the mean (inf for a zero mean)."""
        if self.mean_delay == 0:
            return math.inf
        return self.ci_halfwidth / abs(self.mean_delay)

    def normalized(self, service_rate: float) -> Tuple[float, float]:
        """(mu_s * d, mu_s * halfwidth) for the paper's y-axis."""
        return (self.mean_delay * service_rate,
                self.ci_halfwidth * service_rate)


def _replication_units(config: SystemConfig, workload: Workload,
                       horizon: float, warmup: float, arbitration: str,
                       base_seed: int, first: int, count: int) -> list:
    """Work units for replications ``first .. first + count - 1``."""
    from repro.runner import WorkUnit

    params = {
        "config": str(config),
        "arrival_rate": workload.arrival_rate,
        "transmission_rate": workload.transmission_rate,
        "service_rate": workload.service_rate,
        "horizon": horizon,
        "warmup": warmup,
        "arbitration": arbitration,
    }
    return [WorkUnit("replication-delay", base_seed + index, params)
            for index in range(first, first + count)]


def replicate_delay(config: Union[SystemConfig, str], workload: Workload,
                    horizon: float, warmup: float,
                    target_relative_halfwidth: float = 0.05,
                    confidence: float = 0.95,
                    min_replications: int = 5, max_replications: int = 50,
                    base_seed: int = 100,
                    arbitration: str = "priority",
                    jobs: Optional[int] = None,
                    runner: Optional["SweepRunner"] = None) -> ReplicationEstimate:
    """Replicate until the delay CI is tight enough, in waves of ``jobs``.

    Each replication uses an independent seed (``base_seed + i``); the
    procedure stops at the first point past ``min_replications`` where the
    Student-t interval's relative half-width drops below the target, and
    raises if ``max_replications`` cannot achieve it (the caller should
    lengthen the horizon instead of silently accepting a loose answer).

    With ``jobs > 1`` (or a ``runner``), replications are submitted in
    waves of the worker count instead of strictly one at a time.  The
    stopping rule still scans values in replication order and truncates at
    the first index that satisfies the target, so the estimate is
    bit-identical to the sequential procedure — a wave may merely compute a
    few replications past the stopping point, whose values are discarded.
    The ``jobs=1`` path is exactly the original sequential loop.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if not 0 < target_relative_halfwidth < 1:
        raise ConfigurationError(
            f"target relative half-width must be in (0, 1), "
            f"got {target_relative_halfwidth}")
    if min_replications < 2:
        raise ConfigurationError("need at least 2 replications for a CI")

    values: List[float] = []

    def estimate_at(count: int) -> Optional[ReplicationEstimate]:
        """The sequential stopping rule, applied to values[:count]."""
        if count < min_replications:
            return None
        prefix = values[:count]
        mean, halfwidth = confidence_interval(prefix, confidence=confidence)
        if mean > 0 and halfwidth / mean <= target_relative_halfwidth:
            return ReplicationEstimate(mean_delay=mean,
                                       ci_halfwidth=halfwidth,
                                       replications=count,
                                       values=tuple(prefix))
        return None

    if runner is None and (jobs is None or jobs == 1):
        for replication in range(max_replications):
            result = simulate(config, workload, horizon=horizon, warmup=warmup,
                              seed=base_seed + replication,
                              arbitration=arbitration)
            values.append(result.mean_queueing_delay)
            estimate = estimate_at(len(values))
            if estimate is not None:
                return estimate
    else:
        from repro.runner import SweepRunner

        if runner is None:
            runner = SweepRunner(jobs=jobs)
        wave_size = max(1, runner.effective_jobs)
        while len(values) < max_replications:
            count = min(wave_size, max_replications - len(values))
            units = _replication_units(config, workload, horizon, warmup,
                                       arbitration, base_seed,
                                       first=len(values), count=count)
            values.extend(runner.run_values(units))
            for stop in range(len(values) - count + 1, len(values) + 1):
                estimate = estimate_at(stop)
                if estimate is not None:
                    return estimate

    mean, halfwidth = confidence_interval(values, confidence=confidence)
    raise AnalysisError(
        f"CI still {halfwidth / mean:.1%} of the mean after "
        f"{max_replications} replications (target "
        f"{target_relative_halfwidth:.1%}); lengthen the horizon")


def _replication_delays(config: Union[SystemConfig, str], workload: Workload,
                        horizon: float, warmup: float, seeds: List[int],
                        engine: str) -> List[float]:
    """Per-seed mean delays via the requested engine (scalar fallback)."""
    from repro.sim.batched import batched_delays, batched_unsupported_reason

    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; expected one of {ENGINES}")
    if engine == "batched" and batched_unsupported_reason(
            config, workload) is None:
        return batched_delays(config, [workload], horizon=horizon,
                              warmup=warmup, seed_groups=[seeds])[0]
    return [simulate(config, workload, horizon=horizon, warmup=warmup,
                     seed=seed).mean_queueing_delay
            for seed in seeds]


def compare_with_replications(first: Union[SystemConfig, str],
                              second: Union[SystemConfig, str],
                              workload: Workload, horizon: float,
                              warmup: float,
                              confidence: float = 0.95,
                              replications: int = 10,
                              base_seed: int = 100,
                              crn: bool = True,
                              engine: str = DEFAULT_ENGINE
                              ) -> Tuple[float, float, bool]:
    """Replicated comparison of two configurations.

    Returns ``(mean difference first - second, CI half-width,
    significantly_different)``.

    With ``crn=True`` (the default) both systems run on common random
    numbers — the same seed per replication pair, hence the same named
    arrival/transmission/service streams feeding both configurations — and
    the interval is the paired-t interval on the per-pair differences.
    Pairing cancels the workload noise common to both systems, so far
    fewer replications resolve an ordering than independent runs would (a
    regression test pins the paired half-width at or below the unpaired
    one on the bench workload).  ``crn=False`` runs the second system on
    disjoint seeds and reports the two-sample Welch interval.

    ``engine="batched"`` (the default) computes each configuration's
    replication wave with the lockstep engine of :mod:`repro.sim.batched`
    when the model is in its scope (per-replication results are
    bit-identical to the scalar engine, so ``crn`` pairing is
    unaffected); out-of-scope models fall back to scalar runs.
    """
    if replications < 2:
        raise ConfigurationError("need at least 2 paired replications")
    first_seeds = [base_seed + index for index in range(replications)]
    second_seeds = (first_seeds if crn else
                    [base_seed + replications + index
                     for index in range(replications)])
    first_values = _replication_delays(first, workload, horizon, warmup,
                                       first_seeds, engine)
    second_values = _replication_delays(second, workload, horizon, warmup,
                                        second_seeds, engine)
    if crn:
        differences = [a - b for a, b in zip(first_values, second_values)]
        mean, halfwidth = confidence_interval(differences,
                                              confidence=confidence)
        return mean, halfwidth, abs(mean) > halfwidth
    mean_first, half_first = confidence_interval(first_values,
                                                 confidence=confidence)
    mean_second, half_second = confidence_interval(second_values,
                                                   confidence=confidence)
    # Conservative unpaired interval: halfwidths add in quadrature (each
    # already carries its own t quantile at n - 1 degrees of freedom).
    mean = mean_first - mean_second
    halfwidth = math.hypot(half_first, half_second)
    return mean, halfwidth, abs(mean) > halfwidth
