"""Replication methodology: CI-driven sequential simulation.

A figure point carries the Student-t interval over a fixed number of
replications (:data:`repro.analysis.sweep.POINT_REPLICATIONS`); for point
estimates that must reach a requested precision (the EXPERIMENTS.md
tables), the textbook-correct procedure is independent replications with
a sequential stopping rule: keep adding replications until the Student-t
interval on the mean queueing delay is narrower than the requested
relative half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.analysis.sweep import replication_delays
from repro.config import SystemConfig
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


def replicate_delay(config: Union[SystemConfig, str], workload: Workload,
                    horizon: float, warmup: float,
                    target_relative_halfwidth: float = 0.05,
                    confidence: float = 0.95,
                    min_replications: int = 5, max_replications: int = 50,
                    base_seed: int = 100) -> ReplicationEstimate:
    """Replicate until the delay CI is tight enough.

    Each replication uses an independent seed (``base_seed + i``); the
    procedure stops at the first point past ``min_replications`` where the
    Student-t interval's relative half-width drops below the target, and
    raises if ``max_replications`` cannot achieve it (the caller should
    lengthen the horizon instead of silently accepting a loose answer).

    Replications run in waves of ``min_replications`` seeds, each wave one
    lockstep batch when the model is in the batched engine's scope (the
    scalar engine otherwise).  Batched replications equal scalar ones bit
    for bit, and the stopping rule scans values in replication order and
    truncates at the first index that satisfies the target, so the
    estimate is the sequential scalar procedure's — a wave may merely
    compute a few replications past the stopping point, whose values are
    discarded.
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
    while len(values) < max_replications:
        count = min(min_replications, max_replications - len(values))
        seeds = [base_seed + index
                 for index in range(len(values), len(values) + count)]
        values.extend(replication_delays(config, workload, horizon, warmup,
                                         seeds))
        for stop in range(max(len(values) - count + 1, min_replications),
                          len(values) + 1):
            prefix = values[:stop]
            mean, halfwidth = confidence_interval(prefix,
                                                  confidence=confidence)
            if mean > 0 and halfwidth / mean <= target_relative_halfwidth:
                return ReplicationEstimate(mean_delay=mean,
                                           ci_halfwidth=halfwidth,
                                           replications=stop,
                                           values=tuple(prefix))

    mean, halfwidth = confidence_interval(values, confidence=confidence)
    raise AnalysisError(
        f"CI still {halfwidth / mean:.1%} of the mean after "
        f"{max_replications} replications (target "
        f"{target_relative_halfwidth:.1%}); lengthen the horizon")


def compare_with_replications(first: Union[SystemConfig, str],
                              second: Union[SystemConfig, str],
                              workload: Workload, horizon: float,
                              warmup: float,
                              confidence: float = 0.95,
                              replications: int = 10,
                              base_seed: int = 100,
                              crn: bool = True
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

    Each configuration's replications run through
    :func:`~repro.analysis.sweep.replication_delays`: one lockstep batch
    when the model is in the batched engine's scope, scalar runs
    otherwise, with the same values either way, so ``crn`` pairing does
    not depend on the engine.
    """
    if replications < 2:
        raise ConfigurationError("need at least 2 paired replications")
    first_seeds = [base_seed + index for index in range(replications)]
    second_seeds = (first_seeds if crn else
                    [base_seed + replications + index
                     for index in range(replications)])
    first_values = replication_delays(first, workload, horizon, warmup,
                                      first_seeds)
    second_values = replication_delays(second, workload, horizon, warmup,
                                       second_seeds)
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
