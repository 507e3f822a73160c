"""Lockstep batched simulation: replications — and whole figures — as one
structure-of-arrays sweep.

The scalar path to a replication study is ``R`` independent
:class:`~repro.core.system.RsinSystem` runs: each simulated event costs a
heap pop, a callback dispatch, and a handful of Python object mutations.
This module advances many independent runs *in lockstep* instead — every
piece of mutable state lives in a structure-of-arrays layout over a
leading row axis, and each iteration of the outer loop advances **every
live row by exactly one event** with vectorized NumPy updates:

* the event calendar is one ``(K, 2 P + ports * r)`` ``float64`` array —
  next arrival per processor, transmission end per processor, service end
  per resource slot, side by side — so the calendar advance is a single
  axis-min plus one argmin over the live rows, and the flat column index
  *is* the event type; rows whose ``ports * r`` is narrower than the
  widest row's leave their trailing columns at ``+inf``;
* holding times come from :class:`VariateTable`\\ s: per-``(row, stream)``
  blocks of pre-transformed variates in one flat, ragged buffer, each
  stream's capacity sized from its expected draws, gathered for a whole
  event batch with one fancy index (see the class docstring for how
  block refills preserve bit-identity);
* FIFO queues are linked lists of task creation times in one slot pool
  per engine, which doubles when its free stack runs short, so queue
  storage follows the peak number of waiting tasks over all rows;
* each row keeps Wah's request and status lines as two 64-bit words,
  updated in place by the events that change them: bit ``p`` of the
  *request word* while processor ``p`` has a queued task and no circuit,
  bit ``j`` of the *status word* while port ``j``'s bus is free and it
  has a free resource;
* dispatch is one call per step of a per-fabric batched kernel (see
  ``FABRIC_DISPATCH``) on those words, masked to the one partition each
  row re-offers (the freed port's, the finished processor's, or only
  the arriving processor): the priority matcher of
  :mod:`repro.networks.batched_crossbar`, which also serves the shared
  bus as a one-column crossbar, or the link-plane router of
  :mod:`repro.networks.batched_omega`, with a wiring per row.  Each
  status broadcast grants until its partition is *settled* (no waiting
  processor can reach an acceptable port), so one event leaves at most
  one grantable crossbar pair and every grant batch holds a row once;
* mean queueing delay accumulates by Welford's recurrence exactly as
  :class:`repro.sim.stats.TallyStat` does, vectorized over the granted
  rows.

**The 2-D mega-batch.**  :class:`MegaBatchEngine` generalizes the row
axis from "R replications of one sweep point" to ``K = sum of
(replications per point)`` rows spanning whole figure curves: the
``point_of_row`` index map sends each row back to its sweep point, and
per-row arrival/transmission/service rates replace the single-point
scalars in the variate tables.  Points may carry their own
configurations: partitions, processors per partition, ports and
resources per port are per-row arrays, a partition's processors and ports
are a per-row mask of word bits, and per-partition stream rows are offset
by a prefix sum of partition counts.
:func:`lockstep_mismatch` states which configurations can share an engine
— one processor count and one dispatch kernel — so fig. 7's four
crossbar curves run as one batch, and so do the three Omega wirings of
figs. 12 and 13, each row routed on its own wiring.
Because rows never interact, the merged run is the per-point runs
interleaved — same draws, same float operations, same order within each
row — while the outer Python loop runs ``max`` instead of ``sum`` of the
per-point event counts, which is where the throughput multiplier over
running the points one at a time comes from.  One point's replications
are a one-point mega-batch, and :func:`batched_delays` is the one front
door for both.

**The lockstep invariant.**  Row ``k`` of a batched run is
*bit-identical* to ``simulate(config, workload_of_row_k, horizon, warmup,
seed=row_seed_k)``: the same named streams (``arrivals-{p}``,
``transmission-{g}``, ``service-{g}``, seeds derived via
:func:`repro.sim.rng.spawn_seed` exactly as ``RandomStreams`` derives
them) are consumed in the same order with the same Mersenne Twister
variates, and every state update applies the same float operations in the
same per-row order.  The scalar engine's draw order is reproducible
because its streams are independent per concern: within
``transmission-{g}`` draws happen in dispatch order (ascending processor
index inside each status broadcast, chronological across events), within
``service-{g}`` in transmission-completion order, and within
``arrivals-{p}`` trivially — all orders the lockstep loop preserves.  A
regression test checks equality of per-row delay estimates over a
randomized ``(p, m, r, rho)`` grid.

Scope (see :func:`batched_unsupported_reason` for the precise gate):
every fabric family in the ``FABRIC_DISPATCH`` table — ``XBAR``,
``SBUS``, and the multistage wirings (``OMEGA``, ``CUBE``,
``BASELINE``) — healthy, with at most 64 processors and 64 ports (one
word each), under ``"priority"`` arbitration, with a finite resource
count per port and continuous interarrival and transmission
distributions.  The service distribution may additionally be
``"deterministic"``: service ends inherit continuous transmission-end
timestamps plus a constant, so their ties stay measure-zero, whereas a
deterministic transmission or interarrival time lattices event
timestamps and tie order is a heap-insertion property the lockstep
argmin cannot reproduce.  A configuration with faults attached runs on
the scalar engine, which models failures, repairs, retries and queue
expiry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.config import SystemConfig, check_window
from repro.errors import ConfigurationError
from repro.networks.batched_crossbar import WORD_BITS, match_pairs_batch
from repro.networks.batched_omega import BatchedMultistageRouter
from repro.networks.topology import make_topology
from repro.sim.rng import BATCH_BLOCK, spawn_seed, uniform_block_source

if TYPE_CHECKING:  # pragma: no cover - circular at runtime (arrivals uses rng)
    from repro.workload.arrivals import Workload

#: Distributions whose holding times are continuous (ties measure-zero).
_CONTINUOUS_DISTRIBUTIONS = ("exponential", "hyperexponential")

#: Distributions a :class:`VariateTable` can serve.  ``deterministic``
#: rows refill with a constant block and consume no uniforms, matching
#: ``sample_time``'s no-draw contract for that distribution.
_TABLE_DISTRIBUTIONS = _CONTINUOUS_DISTRIBUTIONS + ("deterministic",)

#: Expected draws per stream above which a table's block refills use the
#: numpy generator (whose one-time construction costs ~15 blocks of scalar
#: generation — see :func:`repro.sim.rng.uniform_block_source`).
_VECTORIZED_REFILL_CROSSOVER = 4096

_INF = math.inf

_FloatArray = NDArray[np.float64]
_IntArray = NDArray[np.int64]
_Words = NDArray[np.uint64]

#: ``_BIT[i]`` is the word with bit ``i`` alone.
_BIT: _Words = np.left_shift(np.uint64(1),
                             np.arange(WORD_BITS, dtype=np.uint64))


def first_block_size(expected: float, cap: int) -> int:
    """Variates in a stream's first refill, sized from its expected draws.

    The expected count plus a constant margin, capped at ``cap``.  About
    half the streams outrun it and refill once more, which costs less
    than carrying a ``4 sqrt(expected)`` margin in every stream.
    """
    return min(cap, math.ceil(expected) + 8)


def _per_row(value: Union[bool, float, Sequence[Any]], count: int,
             name: str) -> List[Any]:
    """``value`` for each of ``count`` rows: one shared value or one per row."""
    values = ([value] * count if isinstance(value, (bool, int, float))
              else list(value))
    if len(values) != count:
        raise ConfigurationError(
            f"need one {name} per stream: {count} seeds, {len(values)} "
            f"values")
    return values


class VariateTable:
    """``S`` parallel holding-time streams in structure-of-arrays form.

    Row ``s`` of the table is one named stream of a scalar run — its seed
    comes from :func:`~repro.sim.rng.spawn_seed`, its uniform blocks from
    :func:`~repro.sim.rng.uniform_block_source` (the numpy generator when
    ``vectorized``, which the engine requests for streams expected to
    consume thousands of draws) — but all ``S`` cursors and buffered
    variates live in flat arrays, so the engine draws one variate from
    each of a whole batch of streams with a single fancy index
    (:meth:`draw`).  Refills transform a block of uniforms with per-value
    :func:`math.log` (``numpy.log`` differs from libm by one ulp on a few
    per mille of arguments), keeping every variate bit-equal to
    ``sample_time`` on the scalar stream:

    * ``exponential`` — one uniform per variate, ``-log(1 - u) / rate``;
    * ``hyperexponential`` — exactly two uniforms per variate (branch,
      then magnitude), so a block of ``block`` uniforms yields ``block/2``
      variates with the same pairing the scalar draw order produces;
    * ``deterministic`` — constant ``1 / rate`` blocks, no uniforms at
      all (``sample_time`` does not touch the stream either).

    Streams are stored ragged: one flat buffer in which stream ``s`` owns
    its own capacity, starting at a per-stream offset.  ``expected`` (the
    draws each stream will probably make) sets that capacity to
    :func:`first_block_size`, and every refill fills it, so a table
    holds the sum of its streams' capacities rather than rows times the
    widest, and no refill is smaller than the stream's first block.  A
    stream's sequence does not depend on where its blocks break, so
    sizing changes only how many variates are generated and never used.
    Without ``expected``, every refill is a full block.

    ``rate``, ``vectorized`` and ``expected`` accept either one value for
    every row or a per-row sequence — the mega-batch engine threads a
    different sweep point's rate through each row of one table.
    """

    __slots__ = ("distribution", "_sources", "_buffer", "_starts", "_ends",
                 "_cursors", "_rates", "_probability")

    def __init__(self, seeds: Sequence[int],
                 rate: Union[float, Sequence[float]],
                 distribution: str,
                 block: int = BATCH_BLOCK,
                 vectorized: Union[bool, Sequence[bool]] = True,
                 expected: Union[None, float, Sequence[float]] = None):
        count = len(seeds)
        rates = [float(value) for value in _per_row(rate, count, "rate")]
        for value in rates:
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"rate must be finite and positive, got {value}")
        if distribution not in _TABLE_DISTRIBUTIONS:
            raise ConfigurationError(
                f"variate table supports {_TABLE_DISTRIBUTIONS}, "
                f"got {distribution!r}")
        if block < 2 or block % 2:
            raise ConfigurationError(
                f"block must be a positive even count, got {block}")
        flags = [bool(flag) for flag in
                 _per_row(vectorized, count, "vectorized flag")]
        draws_per_block = (block // 2 if distribution == "hyperexponential"
                           else block)
        if expected is None:
            capacities = [draws_per_block] * count
        else:
            capacities = []
            for draws in _per_row(expected, count, "expected draw count"):
                if not (math.isfinite(draws) and draws >= 0):
                    raise ConfigurationError(
                        "expected draw counts must be finite and "
                        f"non-negative, got {draws}")
                capacities.append(first_block_size(draws, draws_per_block))
        self.distribution = distribution
        self._rates: _FloatArray = np.array(rates, dtype=np.float64)
        # Deterministic rows never consume a uniform, so their sources
        # (and the generator construction behind them) are skipped.
        self._sources = (None if distribution == "deterministic" else
                         [uniform_block_source(int(seed), flag)
                          for seed, flag in zip(seeds, flags)])
        #: Stream ``s`` owns ``_buffer[_starts[s]:_ends[s]]``.
        sizes = np.array(capacities, dtype=np.int64)
        self._ends: _IntArray = np.cumsum(sizes)
        self._starts: _IntArray = self._ends - sizes
        self._buffer: _FloatArray = np.empty(
            int(self._ends[-1]) if count else 0, dtype=np.float64)
        # Cursors start exhausted: each row refills on first use.
        self._cursors: _IntArray = self._ends.copy()
        # The balanced-means two-phase branch probability of sample_time.
        from repro.workload.arrivals import _HYPER_CV2

        self._probability = 0.5 * (1.0 + math.sqrt(
            (_HYPER_CV2 - 1.0) / (_HYPER_CV2 + 1.0)))

    def _refill(self, row: int) -> None:
        """Refill ``row``'s whole capacity with its next block."""
        start = int(self._starts[row])
        end = int(self._ends[row])
        self._cursors[row] = start
        rate = float(self._rates[row])
        if self._sources is None:
            self._buffer[start:end] = 1.0 / rate
            return
        log = math.log
        if self.distribution == "exponential":
            uniforms = self._sources[row](end - start)
            values = [-log(1.0 - u) / rate for u in uniforms]
        else:
            # The phase rates with sample_time's exact expressions
            # (2.0 * p * rate order).
            uniforms = self._sources[row](2 * (end - start))
            probability = self._probability
            fast = 2.0 * probability * rate
            slow = 2.0 * (1.0 - probability) * rate
            pairs = iter(uniforms)
            values = [-log(1.0 - v) / (fast if u < probability else slow)
                      for u, v in zip(pairs, pairs)]
        self._buffer[start:end] = values

    def draw(self, rows: _IntArray) -> _FloatArray:
        """One variate from each stream in ``rows`` (must be distinct)."""
        cursors = self._cursors
        position = cursors[rows]
        exhausted = position >= self._ends[rows]
        if exhausted.any():
            for row in rows[exhausted].tolist():
                self._refill(row)
            position = cursors[rows]
        values: _FloatArray = self._buffer[position]
        cursors[rows] = position + 1
        return values

    def draw_one(self, row: int) -> float:
        """Scalar :meth:`draw`: the next variate of stream ``row`` alone."""
        cursor = int(self._cursors[row])
        if cursor >= self._ends[row]:
            self._refill(row)
            cursor = int(self._cursors[row])
        self._cursors[row] = cursor + 1
        return float(self._buffer[cursor])


@dataclass(frozen=True)
class MegaBatchResult:
    """Per-(point, replication) delay estimates of one mega-batch run.

    Outer index is the sweep point, inner index the replication within
    that point's seed group; ``mean_delays[i][k]`` equals the scalar
    engine's ``mean_queueing_delay`` for point ``i`` with seed
    ``seed_groups[i][k]`` (NaN when no task was dispatched inside the
    measurement window); ``delay_counts`` and ``completed`` carry the
    matching sample and service-completion counts.
    """

    seed_groups: Tuple[Tuple[int, ...], ...]
    mean_delays: Tuple[Tuple[float, ...], ...]
    delay_counts: Tuple[Tuple[int, ...], ...]
    completed: Tuple[Tuple[int, ...], ...]
    simulated_time: float
    measurement_start: float


#: The batched dispatch kernel serving each network type: ``"crossbar"``
#: (the word priority matcher of
#: :func:`~repro.networks.batched_crossbar.match_pairs_batch`; a shared
#: bus is its one-column case: the lowest requesting processor wins when
#: the bus can accept) or ``"multistage"`` (the plane router of
#: :class:`~repro.networks.batched_omega.BatchedMultistageRouter`).  A
#: network type missing from this table has no batched kernel at all.
FABRIC_DISPATCH = {
    "XBAR": "crossbar",
    "SBUS": "crossbar",
    "OMEGA": "multistage",
    "CUBE": "multistage",
    "BASELINE": "multistage",
}


def batched_unsupported_reason(config: Union[SystemConfig, str],
                               workload: Workload,
                               arbitration: str = "priority"
                               ) -> Optional[str]:
    """Why this model cannot run on the batched path, or None when it can.

    The returned string names the *first* blocking property.  The gate,
    in order:

    * a fabric family with a dispatch kernel in ``FABRIC_DISPATCH``
      (all five grammar network types have one);
    * at most 64 processors and 64 ports (``WORD_BITS``: the kernels
      read one request word and one status word per row);
    * ``"priority"`` arbitration only (random arbitration draws
      per-dispatch randomness the dispatch kernels do not model);
    * a finite resource count per port (the calendar needs a fixed
      service-slot axis);
    * no fault configuration, not even an inert ``FaultConfig()``
      (failures, repairs, retries and queue expiry are scalar-engine
      features);
    * continuous interarrival and transmission distributions (discrete
      holding times tie event timestamps, and tie order is a
      heap-insertion property the lockstep argmin cannot reproduce); the
      *service* distribution may also be ``"deterministic"``, because
      service ends inherit continuous transmission-end timestamps plus a
      constant and stay tie-free almost surely.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if config.network_type not in FABRIC_DISPATCH:
        return (f"{config.network_type} fabrics (no batched dispatch "
                "kernel in the dispatch table)")
    if max(config.processors, config.total_ports) > WORD_BITS:
        return (f"more than {WORD_BITS} processors or ports (the dispatch "
                f"kernels read one {WORD_BITS}-bit request word and one "
                "status word per row)")
    if arbitration != "priority":
        return (f"{arbitration!r} arbitration (per-dispatch randomness "
                "the lockstep dispatch kernels do not model)")
    if config.resources_per_port == math.inf:
        return ("an infinite resource pool (the calendar needs a fixed "
                "service-slot axis)")
    if config.faults is not None:
        return ("a fault configuration (failures, repairs, retries and "
                "queue expiry are scalar-engine features)")
    for name, distribution in (
            ("interarrival", workload.interarrival_distribution),
            ("transmission", workload.transmission_distribution)):
        if distribution not in _CONTINUOUS_DISTRIBUTIONS:
            return (f"a {distribution!r} {name} distribution (equal "
                    "timestamps would tie, and tie order is a "
                    "heap-insertion property the lockstep calendar "
                    "cannot reproduce)")
    if workload.service_distribution not in _TABLE_DISTRIBUTIONS:
        return (f"a {workload.service_distribution!r} service "
                "distribution (no variate-table transform for it)")
    return None


def _require_batchable(config: SystemConfig, workload: Workload) -> None:
    """Reject models whose scalar event order lockstep cannot reproduce."""
    reason = batched_unsupported_reason(config, workload)
    if reason is not None:
        raise ConfigurationError(
            f"batched engine does not support {reason}; "
            "use the scalar engine")


def lockstep_mismatch(config: SystemConfig,
                      other: SystemConfig) -> Optional[str]:
    """Why ``other`` cannot share a lockstep engine with ``config``, or None.

    Both configurations must already pass the batchability gate.  The
    rows of one engine share the calendar's arrival and transmission
    columns and one dispatch kernel; partitions, processors per
    partition, ports and resources per port are per-row arrays, and the
    multistage router takes a wiring (network type, network size and
    partition count) per row.  So two configurations share an engine
    exactly when they have the same processor count and dispatch kernel.
    The engine's validation and the sweep's grouping both apply this
    rule.
    """
    if other == config:
        return None
    if other.processors != config.processors:
        return (f"processor counts differ ({config} has "
                f"{config.processors}, {other} has {other.processors}); "
                "rows share the calendar's arrival and transmission "
                "columns")
    kind = FABRIC_DISPATCH[config.network_type]
    other_kind = FABRIC_DISPATCH[other.network_type]
    if kind != other_kind:
        return (f"dispatch kernels differ ({config} dispatches by {kind}, "
                f"{other} by {other_kind})")
    return None


def _partition_masks(partitions: _IntArray, width: _IntArray) -> _Words:
    """``masks[k, g]``: the word bits ``[g * width[k], (g + 1) * width[k])``
    of row ``k``'s partition ``g`` (none for partitions a row lacks)."""
    masks: _Words = np.zeros((partitions.shape[0], int(partitions.max())),
                             dtype=np.uint64)
    for k, (count, size) in enumerate(zip(partitions.tolist(),
                                          width.tolist())):
        masks[k, :count] = [((1 << size) - 1) << (g * size)
                            for g in range(count)]
    return masks


def _point_configs(config: Union[SystemConfig, str,
                                 Sequence[Union[SystemConfig, str]]],
                   points: int) -> List[SystemConfig]:
    """One parsed configuration per point, from one or a sequence."""
    if isinstance(config, (SystemConfig, str)):
        configs = [config] * points
    else:
        configs = list(config)
        if len(configs) != points:
            raise ConfigurationError(
                f"need one configuration per point: {points} workloads, "
                f"{len(configs)} configurations")
    return [SystemConfig.parse(item) if isinstance(item, str) else item
            for item in configs]


class MegaBatchEngine:
    """``K = points x replications`` lockstep rows spanning figure curves.

    Each *point* is one ``(configuration, workload, seed group)`` triple;
    row ``k`` of the merged batch simulates replication
    ``seed_groups[point_of_row[k]]...`` of its point, bit-identically to
    the scalar engine with that seed.  ``config`` is one configuration for
    every point or one per point, the way :class:`VariateTable` takes one
    rate or one per row; points must share their holding-time
    distributions, and their configurations must pass
    :func:`lockstep_mismatch` against the first.

    >>> from repro import SystemConfig, Workload
    >>> from repro.sim.batched import MegaBatchEngine
    >>> engine = MegaBatchEngine(
    ...     ["16/1x16x8 XBAR/2", "16/4x4x4 XBAR/2"],
    ...     [Workload(0.05, 1.0, 0.1), Workload(0.08, 1.0, 0.1)],
    ...     seed_groups=[range(8), range(8)])
    >>> result = engine.run(horizon=2000.0, warmup=200.0)

    May be run once per instance, like the scalar system.
    """

    def __init__(self, config: Union[SystemConfig, str,
                                     Sequence[Union[SystemConfig, str]]],
                 workloads: Sequence[Workload],
                 seed_groups: Sequence[Sequence[int]]):
        workload_list = list(workloads)
        if not workload_list:
            raise ConfigurationError(
                "mega-batch engine needs at least one point")
        configs = _point_configs(config, len(workload_list))
        if len(seed_groups) != len(workload_list):
            raise ConfigurationError(
                f"need one seed group per point: {len(workload_list)} "
                f"workloads, {len(seed_groups)} seed groups")
        group_list = [[int(seed) for seed in group] for group in seed_groups]
        if any(not group for group in group_list):
            raise ConfigurationError("batched engine needs at least one seed")
        for point_config, workload in zip(configs, workload_list):
            _require_batchable(point_config, workload)
        first = workload_list[0]
        for workload in workload_list[1:]:
            if (workload.interarrival_distribution,
                    workload.transmission_distribution,
                    workload.service_distribution) != (
                    first.interarrival_distribution,
                    first.transmission_distribution,
                    first.service_distribution):
                raise ConfigurationError(
                    "mega-batch points must share their holding-time "
                    "distributions (rates may differ per point)")
        lead = configs[0]
        for point_config in configs[1:]:
            reason = lockstep_mismatch(lead, point_config)
            if reason is not None:
                raise ConfigurationError(
                    f"mega-batch points cannot share one engine: {reason}")
        self.configs: Tuple[SystemConfig, ...] = tuple(configs)
        self.workloads: Tuple[Workload, ...] = tuple(workload_list)
        self.seed_groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(group) for group in group_list)
        self._started = False

        self._row_seeds: List[int] = [seed for group in group_list
                                      for seed in group]
        self._row_points: List[int] = [index
                                       for index, group in
                                       enumerate(group_list)
                                       for _ in group]
        #: Row -> sweep-point index map of the flattened 2-D batch.
        self.point_of_row: _IntArray = np.asarray(self._row_points,
                                                  dtype=np.int64)

        def per_row(values: List[int]) -> _IntArray:
            row_values: _IntArray = np.asarray(
                values, dtype=np.int64)[self.point_of_row]
            return row_values

        rows = len(self._row_seeds)
        processors = lead.processors
        partitions = per_row([c.num_networks for c in configs])
        per_partition = per_row([c.processors_per_network for c in configs])
        ports = per_row([c.outputs_per_network for c in configs])
        resources = per_row([int(c.resources_per_port) for c in configs])
        self._rows = rows
        self._processors = processors
        self._per_partition_of = per_partition
        self._ports_of = ports
        self._resources_of = resources
        #: First transmission/service table row of each batch row: row
        #: ``k``'s partition ``g`` streams sit at ``offset[k] + g``.
        self._stream_offset: _IntArray = np.cumsum(partitions) - partitions
        #: Row ``k``'s partition ``g`` owns the processor bits
        #: ``_processor_masks[k, g]`` and the port bits ``_port_masks[k, g]``.
        self._processor_masks = _partition_masks(partitions, per_partition)
        self._port_masks = _partition_masks(partitions, ports)
        self._max_resources = int(resources.max())
        self._mixed_resources = int(resources.min()) != self._max_resources

        self._router: Optional[BatchedMultistageRouter] = None
        if FABRIC_DISPATCH[lead.network_type] == "multistage":
            wirings = [(make_topology(c.network_type, c.inputs_per_network),
                        c.num_networks) for c in configs]
            self._router = BatchedMultistageRouter(
                [wirings[point] for point in self._row_points])

        # The calendar: [0, P) next arrivals, [P, 2P) transmission ends,
        # then row k's service ends at 2P + port * r_k + slot; it is as
        # wide as the widest row, and unused columns stay +inf.
        total_ports = int((partitions * ports).max())
        width = 2 * processors + int((partitions * ports * resources).max())
        self._width = width
        self._calendar: _FloatArray = np.full(
            (rows, width), _INF, dtype=np.float64)
        self._next_arrival = self._calendar[:, :processors]
        self._transmission_end = self._calendar[:, processors:2 * processors]

        # Per-processor and per-port state; ports are numbered across
        # partitions, partition g's port j at g * ports + j.
        self._queue_length: _IntArray = np.zeros((rows, processors),
                                                 dtype=np.int64)
        self._connected_port: _IntArray = np.full((rows, processors), -1,
                                                  dtype=np.int64)
        self._bus_busy: NDArray[np.uint8] = np.zeros((rows, total_ports),
                                                     dtype=np.uint8)
        self._busy_resources: _IntArray = np.zeros((rows, total_ports),
                                                   dtype=np.int64)
        # The dispatch words, kept equal to that state: bit p of
        # ``_requests[k]`` while processor p has a queued task and no
        # circuit, bit j of ``_status[k]`` while port j's bus is free and
        # it has a free resource (every port, at the start).
        self._requests: _Words = np.zeros(rows, dtype=np.uint64)
        self._status: _Words = np.bitwise_or.reduce(self._port_masks, axis=1)

        # FIFO queues of task creation times: linked lists in one pool of
        # slots.  Slot ``q = k * P + p`` is queue ``(k, p)``'s sentinel,
        # whose ``_slot_next`` is the queue's head; the slots past the
        # sentinels hold waiting tasks, start free (one per queue) and
        # double when the free stack runs short.  A tail is read only
        # while its queue holds tasks.
        queues = rows * processors
        self._slot_time: _FloatArray = np.zeros(2 * queues, dtype=np.float64)
        self._slot_next: _IntArray = np.zeros(2 * queues, dtype=np.int64)
        self._free_slots: _IntArray = np.arange(queues, 2 * queues,
                                                dtype=np.int64)
        self._free_count = queues
        self._queue_tail: _IntArray = np.zeros(queues, dtype=np.int64)
        # Welford accumulators, matching TallyStat.record exactly.
        self._delay_count: _IntArray = np.zeros(rows, dtype=np.int64)
        self._delay_mean: _FloatArray = np.zeros(rows, dtype=np.float64)
        self._completed: _IntArray = np.zeros(rows, dtype=np.int64)
        self._transmission_table: VariateTable

    def _build_tables(self, horizon: float
                      ) -> Tuple[VariateTable, VariateTable, VariateTable]:
        """Stream tables, one row per (batch row, scalar stream).

        Each table row carries its own rate (its point's workload), its
        expected draw count, which sizes its first block, and its refill
        backend, picked by the same estimate: the numpy generator's
        one-time construction only beats scalar block generation for
        streams that will be drawn from thousands of times (per-processor
        arrival streams usually will not; per-partition transmission and
        service streams on long horizons will).
        """
        processors = self._processors
        crossover = _VECTORIZED_REFILL_CROSSOVER
        first = self.workloads[0]

        arrival_seeds: List[int] = []
        arrival_rates: List[float] = []
        arrival_expected: List[float] = []
        transmission_seeds: List[int] = []
        service_seeds: List[int] = []
        transmission_rates: List[float] = []
        service_rates: List[float] = []
        stream_expected: List[float] = []
        for seed, point in zip(self._row_seeds, self._row_points):
            workload = self.workloads[point]
            config = self.configs[point]
            # In a stable system every arrival is eventually dispatched
            # and served, so per-partition streams see
            # ~arrivals-per-partition.
            arrivals = workload.arrival_rate * horizon
            dispatches = arrivals * config.processors_per_network
            for p in range(processors):
                arrival_seeds.append(spawn_seed(seed, f"arrivals-{p}"))
                arrival_rates.append(workload.arrival_rate)
                arrival_expected.append(arrivals)
            for g in range(config.num_networks):
                transmission_seeds.append(
                    spawn_seed(seed, f"transmission-{g}"))
                service_seeds.append(spawn_seed(seed, f"service-{g}"))
                transmission_rates.append(workload.transmission_rate)
                service_rates.append(workload.service_rate)
                stream_expected.append(dispatches)
        arrival_flags = [draws >= crossover for draws in arrival_expected]
        stream_flags = [draws >= crossover for draws in stream_expected]
        arrival_table = VariateTable(
            arrival_seeds, arrival_rates, first.interarrival_distribution,
            vectorized=arrival_flags, expected=arrival_expected)
        transmission_table = VariateTable(
            transmission_seeds, transmission_rates,
            first.transmission_distribution, vectorized=stream_flags,
            expected=stream_expected)
        service_table = VariateTable(
            service_seeds, service_rates, first.service_distribution,
            vectorized=stream_flags, expected=stream_expected)
        return arrival_table, transmission_table, service_table

    # -- the queue-slot pool -----------------------------------------------
    def _grow_pool(self) -> None:
        """Double the task slots; the new ones go on the free stack.

        The stack is as long as the task slots, so every freed slot fits.
        Slots never move, so every queue's links stay valid.
        """
        size = self._slot_time.shape[0]
        added = self._free_slots.shape[0]
        self._slot_time = np.concatenate(
            (self._slot_time, np.empty(added, dtype=np.float64)))
        self._slot_next = np.concatenate(
            (self._slot_next, np.empty(added, dtype=np.int64)))
        free = np.empty(2 * added, dtype=np.int64)
        count = self._free_count
        free[:count] = self._free_slots[:count]
        free[count:count + added] = np.arange(size, size + added,
                                              dtype=np.int64)
        self._free_slots = free
        self._free_count = count + added

    # -- the lockstep loop -------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> MegaBatchResult:
        """Advance every row to ``horizon``; discard ``warmup``."""
        self._advance(horizon, warmup)
        mean_delays: List[Tuple[float, ...]] = []
        delay_counts: List[Tuple[int, ...]] = []
        completed: List[Tuple[int, ...]] = []
        start = 0
        for group in self.seed_groups:
            end = start + len(group)
            mean_delays.append(tuple(
                float(self._delay_mean[k]) if self._delay_count[k]
                else math.nan
                for k in range(start, end)))
            delay_counts.append(tuple(
                int(count) for count in self._delay_count[start:end]))
            completed.append(tuple(
                int(count) for count in self._completed[start:end]))
            start = end
        return MegaBatchResult(
            seed_groups=self.seed_groups,
            mean_delays=tuple(mean_delays),
            delay_counts=tuple(delay_counts),
            completed=tuple(completed),
            simulated_time=float(horizon),
            measurement_start=float(warmup))

    def _advance(self, horizon: float, warmup: float) -> None:
        if self._started:
            raise ConfigurationError(
                f"{type(self).__name__}.run may only be called once")
        check_window(horizon, warmup)
        self._started = True
        rows_total = self._rows
        processors = self._processors
        per_partition_of = self._per_partition_of
        ports_of = self._ports_of
        resources_of = self._resources_of
        mixed_resources = self._mixed_resources
        service_base = 2 * processors
        last_column = self._width - 1
        slot_range = np.arange(self._max_resources, dtype=np.int64)
        calendar = self._calendar
        router = self._router
        requests = self._requests
        status = self._status
        arrival_table, transmission_table, service_table = (
            self._build_tables(horizon))
        self._transmission_table = transmission_table

        # Initial arrival per processor (draw order across streams is
        # immaterial: streams are independent per name).
        first = arrival_table.draw(
            np.arange(rows_total * processors, dtype=np.int64))
        self._next_arrival[:, :] = first.reshape(rows_total, processors)

        row_index = np.arange(rows_total, dtype=np.int64)
        while True:
            # Each row's next event: the first column holding its minimum.
            columns = calendar.argmin(axis=1)
            times = calendar[row_index, columns]
            reps = np.nonzero(times <= horizon)[0]
            if reps.size == 0:
                break
            now = times[reps]
            slots = columns[reps]
            # Each live row advances by one event, so it re-offers exactly
            # one partition: the freed port's, the finished processor's,
            # or the arriving processor's.
            parts = np.empty(reps.shape[0], dtype=np.int64)

            is_arrival = slots < processors
            is_service = slots >= service_base
            is_transmission = ~is_arrival & ~is_service

            # --- service completions -----------------------------------
            if is_service.any():
                sub = np.nonzero(is_service)[0]
                sv_reps = reps[sub]
                port_index = ((slots[sub] - service_base)
                              // resources_of[sv_reps])
                calendar[sv_reps, slots[sub]] = _INF
                self._busy_resources[sv_reps, port_index] -= 1
                self._completed[sv_reps[now[sub] > warmup]] += 1
                # The port accepts again unless its bus is transmitting.
                status[sv_reps] |= _BIT[port_index] * (
                    self._bus_busy[sv_reps, port_index] == 0)
                parts[sub] = port_index // ports_of[sv_reps]

            # --- transmission completions ------------------------------
            if is_transmission.any():
                sub = np.nonzero(is_transmission)[0]
                tr_reps = reps[sub]
                rows = slots[sub] - processors
                port_index = self._connected_port[tr_reps, rows]
                calendar[tr_reps, slots[sub]] = _INF
                self._connected_port[tr_reps, rows] = -1
                self._bus_busy[tr_reps, port_index] = 0
                if router is not None:
                    # Tear down the multistage circuits (no draws happen
                    # here, so ordering against the service draw below is
                    # immaterial — only the broadcast must see freed links).
                    router.release_batch(tr_reps, rows)
                busy = self._busy_resources[tr_reps, port_index] + 1
                self._busy_resources[tr_reps, port_index] = busy
                row_resources = resources_of[tr_reps]
                # The processor waits again if it has queued tasks; the
                # port, bus now free, accepts while a resource is free.
                requests[tr_reps] |= _BIT[rows] * (
                    self._queue_length[tr_reps, rows] > 0)
                status[tr_reps] |= _BIT[port_index] * (busy < row_resources)
                # The port's first free service slot.
                base = service_base + port_index * row_resources
                window = base[:, None] + slot_range
                if mixed_resources:
                    np.minimum(window, last_column, out=window)
                    free = ((calendar[tr_reps[:, None], window] == _INF)
                            & (slot_range < row_resources[:, None]))
                else:
                    free = calendar[tr_reps[:, None], window] == _INF
                partition = rows // per_partition_of[tr_reps]
                durations = service_table.draw(
                    self._stream_offset[tr_reps] + partition)
                calendar[tr_reps, base + free.argmax(axis=1)] = (
                    now[sub] + durations)
                parts[sub] = partition

            # --- arrivals ----------------------------------------------
            arrived: Optional[Tuple[_IntArray, _Words]] = None
            if is_arrival.any():
                sub = np.nonzero(is_arrival)[0]
                ar_reps = reps[sub]
                rows = slots[sub]
                lengths = self._queue_length[ar_reps, rows]
                queues = ar_reps * processors + rows
                if self._free_count < queues.shape[0]:
                    self._grow_pool()
                top = self._free_count - queues.shape[0]
                # A view of the stack: used up before any grant pushes.
                taken = self._free_slots[top:self._free_count]
                self._free_count = top
                self._slot_time[taken] = now[sub]
                # Link behind the tail, or behind the sentinel (as the
                # head) when the queue is empty.
                self._slot_next[np.where(lengths > 0,
                                         self._queue_tail[queues],
                                         queues)] = taken
                self._queue_tail[queues] = taken
                self._queue_length[ar_reps, rows] = lengths + 1
                durations = arrival_table.draw(queues)
                calendar[ar_reps, rows] = now[sub] + durations
                bits = _BIT[rows]
                requests[ar_reps] |= bits * (
                    self._connected_port[ar_reps, rows] < 0)
                parts[sub] = rows // per_partition_of[ar_reps]
                arrived = sub, bits

            # --- status broadcasts → one batched dispatch ---------------
            # Every waiting processor of each row's partition, and the
            # partition's acceptable ports.
            offers = requests[reps] & self._processor_masks[reps, parts]
            if arrived is not None:
                # An arrival redispatches only the arriving processor, if
                # idle (nothing else changed for its partition).
                sub, bits = arrived
                offers[sub] &= bits
            accepts = status[reps] & self._port_masks[reps, parts]
            offered = np.nonzero((offers != 0) & (accepts != 0))[0]
            if offered.size == 0:
                continue
            reps = reps[offered]
            offers = offers[offered]
            accepts = accepts[offered]
            if router is not None:
                # The router yields grant waves; each wave's bookkeeping
                # must land before the next wave is labelled.
                for positions, inputs, outputs in router.route_broadcast(
                        reps, offers, accepts):
                    self._apply_grants(reps[positions], inputs, outputs,
                                       times, warmup)
                continue
            positions, grant_rows, grant_ports = match_pairs_batch(
                offers, accepts)
            self._apply_grants(reps[positions], grant_rows, grant_ports,
                               times, warmup)

    def _apply_grants(self, grant_reps: _IntArray, grant_rows: _IntArray,
                      grant_ports: _IntArray, times: _FloatArray,
                      warmup: float) -> None:
        """Dispatch the matched grants.

        Grant ``i`` connects processor ``grant_rows[i]`` to port
        ``grant_ports[i]`` of batch row ``grant_reps[i]``.  A crossbar
        step grants at most one pair per row and a router wave one input
        per row, so the rows are distinct, and the queue pops, Welford
        updates, word updates and transmission draws all vectorize in the
        scalar broadcast's dispatch order.
        """
        table_rows = (self._stream_offset[grant_reps]
                      + grant_rows // self._per_partition_of[grant_reps])
        queues = grant_reps * self._processors + grant_rows
        slot_next = self._slot_next
        moments = times[grant_reps]
        heads = slot_next[queues]
        created = self._slot_time[heads]
        slot_next[queues] = slot_next[heads]
        count = self._free_count
        self._free_slots[count:count + heads.shape[0]] = heads
        self._free_count = count + heads.shape[0]
        self._queue_length[grant_reps, grant_rows] -= 1
        measured = moments > warmup
        if measured.any():
            m_reps = grant_reps[measured]
            counts = self._delay_count[m_reps] + 1
            self._delay_count[m_reps] = counts
            delta = (moments[measured] - created[measured]
                     ) - self._delay_mean[m_reps]
            self._delay_mean[m_reps] += delta / counts
        durations = self._transmission_table.draw(table_rows)
        self._transmission_end[grant_reps, grant_rows] = moments + durations
        self._connected_port[grant_reps, grant_rows] = grant_ports
        self._bus_busy[grant_reps, grant_ports] = 1
        # The processor holds a circuit and the port's bus is busy.
        self._requests[grant_reps] &= ~_BIT[grant_rows]
        self._status[grant_reps] &= ~_BIT[grant_ports]


def batched_delays(config: Union[SystemConfig, str,
                                  Sequence[Union[SystemConfig, str]]],
                   workloads: Sequence[Workload], horizon: float,
                   warmup: float, seed_groups: Sequence[Sequence[int]]
                   ) -> List[List[float]]:
    """Front door: mean queueing delay of every (point, replication) row.

    ``config`` is one configuration, or one per point (see
    :class:`MegaBatchEngine`).  ``batched_delays(c, ws, h, u,
    groups)[i][k]`` equals ``simulate(c_i, ws[i], horizon=h, warmup=u,
    seed=groups[i][k]).mean_queueing_delay`` to the last bit — the
    lockstep invariant this module exists to keep — whether the points
    share one call or run one at a time; the replications of a single
    point are ``batched_delays(c, [w], h, u, [seeds])[0]``.
    """
    engine = MegaBatchEngine(config, workloads, seed_groups)
    result = engine.run(horizon=horizon, warmup=warmup)
    return [list(delays) for delays in result.mean_delays]
