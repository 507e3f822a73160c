"""From-scratch discrete-event simulation kernel.

Public surface:

* :class:`Environment` — clock, event queue, run loop; models schedule
  callbacks on :class:`Timeout` events (:class:`Event` is their base);
* :class:`RandomStreams` / :class:`RngStream` — reproducible named random
  streams (the only sanctioned randomness in the package, rule SIM001);
* the batched lockstep engine — the points-times-replications
  mega-batch (:class:`MegaBatchEngine`, front door
  :func:`batched_delays`; one point's replications are a one-point
  call) — with its bit-identical uniform block sources
  (:func:`uniform_block_source`) and the batchability gate
  (:func:`batched_unsupported_reason`);
* statistics collectors: :class:`TallyStat`, :class:`TimeWeightedStat`,
  :class:`BatchMeans`, :func:`confidence_interval`.
"""

from repro.sim.batched import (
    MegaBatchEngine,
    MegaBatchResult,
    VariateTable,
    batched_delays,
    batched_unsupported_reason,
)
from repro.sim.environment import Environment
from repro.sim.events import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Event,
    Timeout,
)
from repro.sim.rng import (
    RandomStreams,
    RngStream,
    mt19937_generator,
    spawn_seed,
    uniform_block_source,
)
from repro.sim.stats import (
    BatchMeans,
    TallyStat,
    TimeWeightedStat,
    confidence_interval,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "RandomStreams",
    "RngStream",
    "spawn_seed",
    "mt19937_generator",
    "uniform_block_source",
    "MegaBatchEngine",
    "MegaBatchResult",
    "VariateTable",
    "batched_delays",
    "batched_unsupported_reason",
    "TallyStat",
    "TimeWeightedStat",
    "BatchMeans",
    "confidence_interval",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]
