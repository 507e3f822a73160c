"""Workload specification: task arrivals, transmission and service demands.

The paper's model (Section II assumptions (a)-(f)) is Poisson arrivals per
processor with exponential transmission and service times.  The workload
object also supports deterministic and hyperexponential variants used by
the ablation benchmarks to probe sensitivity to the exponential
assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.rng import RngStream

DISTRIBUTIONS = ("exponential", "deterministic", "hyperexponential")

#: Coefficient-of-variation squared for the hyperexponential variant.
_HYPER_CV2 = 4.0


def sample_time(rng: RngStream, rate: float, distribution: str) -> float:
    """Draw one holding time with the given mean rate and distribution."""
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    if distribution == "exponential":
        return rng.expovariate(rate)
    if distribution == "deterministic":
        return 1.0 / rate
    if distribution == "hyperexponential":
        # Balanced-means two-phase hyperexponential with CV^2 = _HYPER_CV2.
        probability = 0.5 * (1.0 + math.sqrt((_HYPER_CV2 - 1.0) / (_HYPER_CV2 + 1.0)))
        if rng.random() < probability:
            return rng.expovariate(2.0 * probability * rate)
        return rng.expovariate(2.0 * (1.0 - probability) * rate)
    raise ConfigurationError(
        f"unknown distribution {distribution!r}; expected one of {DISTRIBUTIONS}")


@dataclass(frozen=True)
class Workload:
    """Per-processor task statistics.

    * ``arrival_rate`` — lambda, tasks per unit time per processor;
    * ``transmission_rate`` — mu_n, reciprocal mean bus-holding time;
    * ``service_rate`` — mu_s, reciprocal mean resource service time.
    """

    arrival_rate: float
    transmission_rate: float
    service_rate: float
    interarrival_distribution: str = "exponential"
    transmission_distribution: str = "exponential"
    service_distribution: str = "exponential"

    def __post_init__(self) -> None:
        for name, value in (("arrival_rate", self.arrival_rate),
                            ("transmission_rate", self.transmission_rate),
                            ("service_rate", self.service_rate)):
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value}")
        for name, value in (
                ("interarrival_distribution", self.interarrival_distribution),
                ("transmission_distribution", self.transmission_distribution),
                ("service_distribution", self.service_distribution)):
            if value not in DISTRIBUTIONS:
                raise ConfigurationError(
                    f"{name} must be one of {DISTRIBUTIONS}, got {value!r}")

    @property
    def service_to_transmission_ratio(self) -> float:
        """The paper's pivotal parameter mu_s / mu_n."""
        return self.service_rate / self.transmission_rate

    # -- samplers --------------------------------------------------------------
    def next_interarrival(self, rng: RngStream) -> float:
        """Time to the next task arrival at one processor."""
        return sample_time(rng, self.arrival_rate, self.interarrival_distribution)

    def next_transmission(self, rng: RngStream) -> float:
        """Bus holding time of one task."""
        return sample_time(rng, self.transmission_rate,
                           self.transmission_distribution)

    def next_service(self, rng: RngStream) -> float:
        """Resource service time of one task."""
        return sample_time(rng, self.service_rate, self.service_distribution)
