"""Fault models for RSIN components.

The paper assumes every bus, crossbar cell, interchange box, and resource
is permanently healthy.  This module describes what can break and how:

* :class:`ResourceFault` — one resource at an output port fails and stops
  serving (fail-stop at a job boundary: a resource busy when its failure
  arrives finishes the task in hand, then leaves the pool);
* :class:`BusFault` — an output-port bus fails; an in-flight transmission
  on it is severed and must be retried by its processor;
* :class:`CellFault` — one crossbar crosspoint cell fails: its (input,
  output) pair becomes unroutable, circuits through it are severed;
* :class:`InterchangeFault` — one Omega/cube interchange box fails; the
  distributed-backtracking search routes requests around it and circuits
  through it are severed.

Every model is an alternating renewal process: time-to-failure and
time-to-repair are drawn from the model's distributions (exponential by
default, the classical MTTF/MTTR parametrization).  ``mttf = inf`` means
the component never fails — a fault rate of zero reproduces the healthy
system bit-for-bit.

A :class:`FaultSchedule` replaces the stochastic processes with an explicit
list of :class:`FaultEvent` timestamps, which is what deterministic tests
and post-mortem replays use.

:class:`FaultConfig` bundles the active models, the retry policy for
severed/blocked requests, and an optional explicit schedule; it is carried
by :attr:`repro.config.SystemConfig.faults`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy
from repro.sim.rng import RngStream
from repro.workload.arrivals import DISTRIBUTIONS, sample_time

#: Component kinds a fault model can target.
FAULT_KINDS = ("resource", "bus", "cell", "interchange")


@dataclass(frozen=True)
class FaultModel:
    """Failure/repair process of one component class.

    ``mttf``/``mttr`` are mean time to failure / repair; the distributions
    default to exponential (memoryless failures, the standard availability
    model) but accept any :data:`repro.workload.arrivals.DISTRIBUTIONS`
    member for sensitivity studies.
    """

    mttf: float
    mttr: float
    failure_distribution: str = "exponential"
    repair_distribution: str = "exponential"

    #: Component kind this model applies to; set by subclasses.
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if not type(self).kind:
            raise ConfigurationError(
                "instantiate a concrete fault model (ResourceFault, BusFault, "
                "CellFault, InterchangeFault), not FaultModel itself")
        if not self.mttf > 0:
            raise ConfigurationError(f"mttf must be positive, got {self.mttf}")
        if not 0 < self.mttr < math.inf:
            raise ConfigurationError(
                f"mttr must be positive and finite, got {self.mttr}")
        for name, value in (("failure_distribution", self.failure_distribution),
                            ("repair_distribution", self.repair_distribution)):
            if value not in DISTRIBUTIONS:
                raise ConfigurationError(
                    f"{name} must be one of {DISTRIBUTIONS}, got {value!r}")

    @property
    def availability(self) -> float:
        """Steady-state probability the component is up: MTTF/(MTTF+MTTR)."""
        if self.mttf == math.inf:
            return 1.0
        return self.mttf / (self.mttf + self.mttr)

    # -- samplers ----------------------------------------------------------
    def next_failure(self, rng: RngStream) -> float:
        """Up-time until the next failure (``inf`` = never fails)."""
        if self.mttf == math.inf:
            return math.inf
        return sample_time(rng, 1.0 / self.mttf, self.failure_distribution)

    def next_repair(self, rng: RngStream) -> float:
        """Down-time until the component is repaired."""
        return sample_time(rng, 1.0 / self.mttr, self.repair_distribution)


@dataclass(frozen=True)
class ResourceFault(FaultModel):
    """Per-resource fail-stop process (each of the ``m * r`` resources)."""

    kind: ClassVar[str] = "resource"


@dataclass(frozen=True)
class BusFault(FaultModel):
    """Per-output-port bus failure process."""

    kind: ClassVar[str] = "bus"


@dataclass(frozen=True)
class CellFault(FaultModel):
    """Per-crosspoint failure process of a crossbar's scheduling cells."""

    kind: ClassVar[str] = "cell"


@dataclass(frozen=True)
class InterchangeFault(FaultModel):
    """Per-interchange-box failure process of a multistage network."""

    kind: ClassVar[str] = "interchange"


#: Concrete model class per kind (for building models programmatically).
MODEL_CLASSES = {
    "resource": ResourceFault,
    "bus": BusFault,
    "cell": CellFault,
    "interchange": InterchangeFault,
}


@dataclass(frozen=True)
class FaultEvent:
    """One explicit fault transition for a :class:`FaultSchedule`.

    ``component`` identifies the instance within its kind:

    * ``resource`` — ``(partition, port, slot)``;
    * ``bus`` — ``(partition, port)``;
    * ``cell`` — ``(partition, (input, output))``;
    * ``interchange`` — ``(partition, (stage, box))``.
    """

    time: float
    kind: str
    component: Tuple
    action: str  # "down" | "up"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"fault event in the past: {self.time}")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.action not in ("down", "up"):
            raise ConfigurationError(
                f"fault action must be 'down' or 'up', got {self.action!r}")


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic, time-ordered list of fault transitions."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def of(cls, *transitions) -> "FaultSchedule":
        """Build from ``(time, kind, component, action)`` tuples."""
        return cls(events=tuple(FaultEvent(*t) for t in transitions))


@dataclass(frozen=True)
class FaultConfig:
    """Everything the fault injector needs for one run.

    ``models`` drive stochastic alternating up/down processes per component
    instance; ``schedule`` adds (or, with no models, fully determines)
    explicit transitions.  ``retry`` governs how the system handles severed
    and timed-out requests.
    """

    models: Tuple[FaultModel, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        kinds = [model.kind for model in self.models]
        for kind in kinds:
            if kinds.count(kind) > 1:
                raise ConfigurationError(
                    f"duplicate fault model for kind {kind!r}")
        for model in self.models:
            if not isinstance(model, FaultModel):
                raise ConfigurationError(
                    f"models must be FaultModel instances, got {model!r}")
        if not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy, got {self.retry!r}")

    def model_for(self, kind: str) -> Optional[FaultModel]:
        """The configured model of ``kind``, or None."""
        for model in self.models:
            if model.kind == kind:
                return model
        return None

    @property
    def fault_free(self) -> bool:
        """True when no stochastic model can fire and no schedule is set."""
        no_schedule = self.schedule is None or len(self.schedule) == 0
        return no_schedule and all(m.mttf == math.inf for m in self.models)
