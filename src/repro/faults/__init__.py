"""Fault injection, retry/backoff, and graceful degradation for RSINs.

The paper's model assumes permanently healthy hardware; this package
models what production cannot assume away:

* :mod:`repro.faults.models` — what breaks (resources, buses, crossbar
  cells, interchange boxes) and on what failure/repair distributions;
* :mod:`repro.faults.retry` — how severed and timed-out requests back off,
  retry, and eventually abandon;
* :mod:`repro.faults.injector` — the process that drives component state
  against a running :class:`~repro.core.system.RsinSystem` and keeps the
  availability ledger.

Attach a :class:`FaultConfig` to a system via
:meth:`SystemConfig.with_faults <repro.config.SystemConfig.with_faults>`;
with no models (or ``mttf=inf``) the simulation reproduces the healthy
system bit-for-bit.
"""

from repro.faults.models import (
    FAULT_KINDS,
    MODEL_CLASSES,
    BusFault,
    CellFault,
    FaultConfig,
    FaultEvent,
    FaultModel,
    FaultSchedule,
    InterchangeFault,
    ResourceFault,
)
from repro.faults.retry import RetryPolicy
from repro.faults.injector import AvailabilityTracker, FaultInjector

__all__ = [
    "FAULT_KINDS",
    "MODEL_CLASSES",
    "FaultModel",
    "ResourceFault",
    "BusFault",
    "CellFault",
    "InterchangeFault",
    "FaultEvent",
    "FaultSchedule",
    "FaultConfig",
    "RetryPolicy",
    "FaultInjector",
    "AvailabilityTracker",
]
