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
  blocks of pre-transformed variates in one 2-D buffer, gathered for a
  whole event batch with one fancy index, with each stream's first block
  sized from its expected draws (see the class docstring for how block
  refills preserve bit-identity);
* FIFO queues are ring buffers of task creation times in one
  ``(K, P, capacity)`` array, doubled in place when one fills;
* dispatch is one call per step of a per-fabric batched kernel (see
  ``FABRIC_DISPATCH``): the priority matcher of
  :mod:`repro.networks.batched_crossbar` — the closed form of the
  crossbar cells' wavefront, which also serves the shared bus as a
  one-column crossbar; and the plane router of
  :mod:`repro.networks.batched_omega` for multistage fabrics, which
  grants in the scalar broadcast's ascending input order.  A step
  advances each row by one event, so each row re-offers exactly one
  partition (the freed port's, the finished processor's, or the arriving
  processor's); the kernel takes one request row per offering batch row,
  gathered from that partition, with the partition as a per-row index;
* mean queueing delay accumulates by Welford's recurrence exactly as
  :class:`repro.sim.stats.TallyStat` does, vectorized when every granted
  row appears once and replayed sequentially when one row receives
  several grants in a single status broadcast.

**The 2-D mega-batch.**  :class:`MegaBatchEngine` generalizes the row
axis from "R replications of one sweep point" to ``K = sum of
(replications per point)`` rows spanning whole figure curves: the
``point_of_row`` index map sends each row back to its sweep point, and
per-row arrival/transmission/service rates replace the single-point
scalars in the variate tables.  Points may carry their own
configurations: partitions, processors per partition, ports and
resources per port are per-row arrays, a partition's processors and ports
are gathered zero-padded to the widest partition (padded cells never
request or accept, so rank pairing grants what it grants unpadded), and
per-partition stream rows are offset by a prefix sum of partition counts.
:func:`lockstep_mismatch` states which configurations can share an engine
— one processor count, one dispatch kernel, one multistage wiring — so
fig. 7's four crossbar curves run as one batch.
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
``BASELINE``) — healthy, under ``"priority"`` arbitration, with a finite
resource count per port and continuous interarrival and transmission
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
from repro.networks.batched_crossbar import match_pairs_batch
from repro.networks.batched_omega import BatchedMultistageRouter
from repro.networks.topology import make_topology
from repro.sim.rng import BATCH_BLOCK, spawn_seed, uniform_block_source

if TYPE_CHECKING:  # pragma: no cover - circular at runtime (arrivals uses rng)
    from repro.workload.arrivals import Workload

#: Initial per-processor queue ring-buffer capacity (power of two; doubles).
_INITIAL_QUEUE_CAPACITY = 32

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


def first_block_size(expected: float, cap: int) -> int:
    """Variates in a stream's first refill, sized from its expected draws.

    A Poisson-like count of mean ``e`` rarely exceeds ``e + 4 sqrt(e)``,
    so the first block carries that plus a constant margin, capped at
    ``cap``; a stream that outruns it simply refills again.
    """
    return min(cap, math.ceil(expected + 4.0 * math.sqrt(expected)) + 8)


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

    ``expected`` (the draws each stream will probably make) right-sizes
    the refills: a row's first block holds
    :func:`first_block_size` variates, and every later refill fills the
    buffer, which is as wide as the widest first block.  A stream's
    sequence does not depend on where its blocks break, so sizing changes
    only how many variates are generated and never used.  Without it,
    every refill is a full block.

    ``rate``, ``vectorized`` and ``expected`` accept either one value for
    every row or a per-row sequence — the mega-batch engine threads a
    different sweep point's rate through each row of one table.
    """

    __slots__ = ("rate", "distribution", "_width", "_next_counts",
                 "_sources", "_buffers", "_cursors", "_rates",
                 "_probability", "_fast_rates", "_slow_rates")

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
            counts = [draws_per_block] * count
        else:
            counts = []
            for draws in _per_row(expected, count, "expected draw count"):
                if not (math.isfinite(draws) and draws >= 0):
                    raise ConfigurationError(
                        "expected draw counts must be finite and "
                        f"non-negative, got {draws}")
                counts.append(first_block_size(draws, draws_per_block))
        self.rate = rate
        self.distribution = distribution
        self._rates = rates
        self._width = max(counts, default=draws_per_block)
        #: Variates each row's next refill generates.
        self._next_counts = counts
        # Deterministic rows never consume a uniform, so their sources
        # (and the generator construction behind them) are skipped.
        self._sources = (None if distribution == "deterministic" else
                         [uniform_block_source(int(seed), flag)
                          for seed, flag in zip(seeds, flags)])
        self._buffers: _FloatArray = np.empty(
            (count, self._width), dtype=np.float64)
        # Cursors start exhausted: each row refills on first use.
        self._cursors: _IntArray = np.full(
            count, self._width, dtype=np.int64)
        # The balanced-means two-phase constants of sample_time; rates are
        # precomputed with its exact expressions (2.0 * p * rate order).
        from repro.workload.arrivals import _HYPER_CV2

        probability = 0.5 * (1.0 + math.sqrt(
            (_HYPER_CV2 - 1.0) / (_HYPER_CV2 + 1.0)))
        self._probability = probability
        self._fast_rates = [2.0 * probability * value for value in rates]
        self._slow_rates = [2.0 * (1.0 - probability) * value
                            for value in rates]

    def _refill(self, row: int) -> None:
        """Fill the tail of ``row``'s buffer with its next block."""
        count = self._next_counts[row]
        self._next_counts[row] = self._width
        start = self._width - count
        self._cursors[row] = start
        if self._sources is None:
            self._buffers[row, start:] = 1.0 / self._rates[row]
            return
        log = math.log
        if self.distribution == "exponential":
            uniforms = self._sources[row](count)
            rate = self._rates[row]
            values = [-log(1.0 - u) / rate for u in uniforms]
        else:
            uniforms = self._sources[row](2 * count)
            probability = self._probability
            fast = self._fast_rates[row]
            slow = self._slow_rates[row]
            pairs = iter(uniforms)
            values = [-log(1.0 - v) / (fast if u < probability else slow)
                      for u, v in zip(pairs, pairs)]
        self._buffers[row, start:] = values

    def draw(self, rows: _IntArray) -> _FloatArray:
        """One variate from each stream in ``rows`` (must be distinct)."""
        cursors = self._cursors
        position = cursors[rows]
        if int(position.max()) >= self._width:
            for row in rows[position >= self._width].tolist():
                self._refill(row)
            position = cursors[rows]
        values: _FloatArray = self._buffers[rows, position]
        cursors[rows] = position + 1
        return values

    def draw_one(self, row: int) -> float:
        """Scalar :meth:`draw`, for grant bursts that repeat a stream."""
        cursor = int(self._cursors[row])
        if cursor >= self._width:
            self._refill(row)
            cursor = int(self._cursors[row])
        self._cursors[row] = cursor + 1
        return float(self._buffers[row, cursor])


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
#: (the rank-paired priority matcher of
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


def _require_batchable(config: SystemConfig, workload: Workload,
                       arbitration: str) -> None:
    """Reject models whose scalar event order lockstep cannot reproduce."""
    reason = batched_unsupported_reason(config, workload, arbitration)
    if reason is not None:
        raise ConfigurationError(
            f"batched engine does not support {reason}; "
            "use the scalar engine")


def lockstep_mismatch(config: SystemConfig,
                      other: SystemConfig) -> Optional[str]:
    """Why ``other`` cannot share a lockstep engine with ``config``, or None.

    Both configurations must already pass the batchability gate.  The
    rows of one engine share the calendar's arrival and transmission
    columns, one dispatch kernel and, on a multistage fabric, one router;
    partitions, processors per partition, ports and resources per port
    are per-row arrays.  So two configurations share an engine exactly
    when they have the same processor count and dispatch kernel, and
    multistage ones also the same wiring (network type, network size and
    partition count).  The engine's validation and the sweep's grouping
    both apply this rule.
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
    if kind == "multistage" and (
            (config.network_type, config.inputs_per_network,
             config.num_networks)
            != (other.network_type, other.inputs_per_network,
                other.num_networks)):
        return (f"multistage wirings differ ({config} and {other}); one "
                "router serves every row")
    return None


def _windows(storage: np.ndarray, width: int) -> np.ndarray:
    """Read-only ``width``-wide windows over the last axis of ``storage``.

    ``windows[k, s]`` is ``storage[k, s:s + width]``, so gathering one
    partition of each batch row is one fancy index by (row, first column).
    """
    return np.lib.stride_tricks.sliding_window_view(storage, width, axis=1)


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
                 seed_groups: Sequence[Sequence[int]],
                 arbitration: str = "priority"):
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
            _require_batchable(point_config, workload, arbitration)
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
        # Partition gathers are zero-padded to the widest partition; the
        # validity masks are only needed when widths differ.
        widest = int(per_partition.max())
        widest_ports = int(ports.max())
        self._processor_valid: Optional[NDArray[np.bool_]] = None
        if int(per_partition.min()) != widest:
            self._processor_valid = (np.arange(widest)
                                     < per_partition[:, None])
        self._port_valid: Optional[NDArray[np.bool_]] = None
        if int(ports.min()) != widest_ports:
            self._port_valid = np.arange(widest_ports) < ports[:, None]
        self._max_resources = int(resources.max())
        self._mixed_resources = int(resources.min()) != self._max_resources

        self._router: Optional[BatchedMultistageRouter] = None
        if FABRIC_DISPATCH[lead.network_type] == "multistage":
            self._router = BatchedMultistageRouter(
                make_topology(lead.network_type, lead.inputs_per_network),
                rows=rows, partitions=lead.num_networks)

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

        # Per-processor and per-port state, each with enough trailing
        # padding that a widest-partition window from any partition start
        # stays in bounds (none when all rows share the width).
        processor_pad = widest - int(per_partition.min())
        port_pad = widest_ports - int(ports.min())
        queue_length = np.zeros((rows, processors + processor_pad),
                                dtype=np.int64)
        connected = np.full((rows, processors + processor_pad), -1,
                            dtype=np.int64)
        bus_busy = np.zeros((rows, total_ports + port_pad), dtype=np.uint8)
        busy_resources = np.zeros((rows, total_ports + port_pad),
                                  dtype=np.int64)
        self._queue_length: _IntArray = queue_length[:, :processors]
        self._connected_port: _IntArray = connected[:, :processors]
        self._bus_busy: NDArray[np.uint8] = bus_busy[:, :total_ports]
        self._busy_resources: _IntArray = busy_resources[:, :total_ports]
        self._queue_windows = _windows(queue_length, widest)
        self._connected_windows = _windows(connected, widest)
        self._bus_windows = _windows(bus_busy, widest_ports)
        self._resource_windows = _windows(busy_resources, widest_ports)

        self._queue_capacity = _INITIAL_QUEUE_CAPACITY
        self._queue_created: _FloatArray = np.zeros(
            (rows, processors, self._queue_capacity), dtype=np.float64)
        self._queue_start: _IntArray = np.zeros(
            (rows, processors), dtype=np.int64)
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

    # -- queue ring buffers -----------------------------------------------
    def _grow_queues(self) -> None:
        """Double the ring capacity, keeping every ring's start.

        The old ring goes into both halves of the new one.  Live slot
        ``i`` of a ring is ``(start + i) mod 2C``; since ``start + i <
        2C`` that is ``start + i`` itself, and either half holds the old
        ``(start + i) mod C`` value there.
        """
        self._queue_created = np.concatenate(
            (self._queue_created, self._queue_created), axis=2)
        self._queue_capacity *= 2

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
        processor_valid = self._processor_valid
        port_valid = self._port_valid
        mixed_resources = self._mixed_resources
        service_base = 2 * processors
        last_column = self._width - 1
        slot_range = np.arange(self._max_resources, dtype=np.int64)
        calendar = self._calendar
        router = self._router
        arrival_table, transmission_table, service_table = (
            self._build_tables(horizon))
        self._transmission_table = transmission_table
        # Partition windows: indexing ``[reps, first column]`` gathers each
        # row's processors (or ports) of one partition, zero-padded to the
        # widest partition.
        queue_windows = self._queue_windows
        connected_windows = self._connected_windows
        bus_windows = self._bus_windows
        resource_windows = self._resource_windows

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
                parts[sub] = port_index // ports_of[sv_reps]

            # --- transmission completions ------------------------------
            if is_transmission.any():
                sub = np.nonzero(is_transmission)[0]
                tr_reps = reps[sub]
                rows = slots[sub] - processors
                per_partition = per_partition_of[tr_reps]
                partition = rows // per_partition
                port_index = partition * ports_of[tr_reps] + (
                    self._connected_port[tr_reps, rows])
                calendar[tr_reps, slots[sub]] = _INF
                self._connected_port[tr_reps, rows] = -1
                self._bus_busy[tr_reps, port_index] = 0
                if router is not None:
                    # Tear down the multistage circuits (no draws happen
                    # here, so ordering against the service draw below is
                    # immaterial — only the broadcast must see freed links).
                    router.release_batch(tr_reps, partition,
                                         rows - partition * per_partition)
                self._busy_resources[tr_reps, port_index] += 1
                # The port's first free service slot.
                row_resources = resources_of[tr_reps]
                base = service_base + port_index * row_resources
                window = base[:, None] + slot_range
                if mixed_resources:
                    np.minimum(window, last_column, out=window)
                    free = ((calendar[tr_reps[:, None], window] == _INF)
                            & (slot_range < row_resources[:, None]))
                else:
                    free = calendar[tr_reps[:, None], window] == _INF
                durations = service_table.draw(
                    self._stream_offset[tr_reps] + partition)
                calendar[tr_reps, base + free.argmax(axis=1)] = (
                    now[sub] + durations)
                parts[sub] = partition

            # --- arrivals ----------------------------------------------
            arrived: Optional[Tuple[_IntArray, _IntArray]] = None
            if is_arrival.any():
                sub = np.nonzero(is_arrival)[0]
                ar_reps = reps[sub]
                rows = slots[sub]
                lengths = self._queue_length[ar_reps, rows]
                if (lengths >= self._queue_capacity).any():
                    self._grow_queues()
                position = ((self._queue_start[ar_reps, rows] + lengths)
                            & (self._queue_capacity - 1))
                self._queue_created[ar_reps, rows, position] = now[sub]
                self._queue_length[ar_reps, rows] = lengths + 1
                durations = arrival_table.draw(ar_reps * processors + rows)
                calendar[ar_reps, rows] = now[sub] + durations
                per_partition = per_partition_of[ar_reps]
                parts[sub] = rows // per_partition
                arrived = sub, rows - parts[sub] * per_partition

            # --- status broadcasts → one batched dispatch ---------------
            # Every waiting processor of each row's partition, ascending.
            starts = parts * per_partition_of[reps]
            requests = ((queue_windows[reps, starts] > 0)
                        & (connected_windows[reps, starts] < 0))
            if processor_valid is not None:
                requests &= processor_valid[reps]
            if arrived is not None:
                # An arrival redispatches only the arriving processor, if
                # idle (nothing else changed for its partition).
                sub, local = arrived
                offer = requests[sub, local]
                requests[sub] = False
                requests[sub, local] = offer
            offered = np.nonzero(requests.any(axis=1))[0]
            if offered.size == 0:
                continue
            reps = reps[offered]
            parts = parts[offered]
            requests = requests[offered]
            starts = parts * ports_of[reps]
            acceptable = ((bus_windows[reps, starts] == 0)
                          & (resource_windows[reps, starts]
                             < (resources_of[reps][:, None]
                                if mixed_resources
                                else self._max_resources)))
            if port_valid is not None:
                acceptable &= port_valid[reps]
            if router is not None:
                # The router yields grant waves; each wave's bookkeeping
                # must land before the next wave is labelled.
                for positions, inputs, outputs in router.route_broadcast(
                        reps, parts, requests, acceptable):
                    self._apply_grants(parts[positions], reps[positions],
                                       inputs, outputs, times, warmup)
                continue
            # Row i of requests/acceptable is one partition of one batch
            # row, zero-padded to the widest partition; padded cells are
            # False, so rank pairing grants what it grants unpadded.
            positions, grant_rows, grant_cols = match_pairs_batch(
                requests, acceptable)
            if positions.size:
                self._apply_grants(parts[positions], reps[positions],
                                   grant_rows, grant_cols, times, warmup)

    def _apply_grants(self, parts: _IntArray, grant_reps: _IntArray,
                      grant_rows: _IntArray, grant_cols: _IntArray,
                      times: _FloatArray, warmup: float) -> None:
        """Dispatch the matched grants.

        Grant ``i`` connects processor ``grant_rows[i]`` to column
        ``grant_cols[i]``, both local to partition ``parts[i]`` of batch
        row ``grant_reps[i]``.  The kernels return grants row-major and
        processor-ascending — the scalar broadcast's dispatch order — so
        when every batch row appears once the queue pops, Welford updates
        and transmission draws all vectorize; a row granted several
        connections in one broadcast replays them sequentially instead.
        """
        rows = parts * self._per_partition_of[grant_reps] + grant_rows
        port_index = parts * self._ports_of[grant_reps] + grant_cols
        table_rows = self._stream_offset[grant_reps] + parts
        capacity = self._queue_capacity
        if grant_reps.size == 1 or (grant_reps[1:] != grant_reps[:-1]).all():
            moments = times[grant_reps]
            starts = self._queue_start[grant_reps, rows]
            created = self._queue_created[grant_reps, rows, starts]
            self._queue_start[grant_reps, rows] = (starts + 1) & (capacity - 1)
            self._queue_length[grant_reps, rows] -= 1
            measured = moments > warmup
            if measured.any():
                m_reps = grant_reps[measured]
                counts = self._delay_count[m_reps] + 1
                self._delay_count[m_reps] = counts
                delta = (moments[measured] - created[measured]
                         ) - self._delay_mean[m_reps]
                self._delay_mean[m_reps] += delta / counts
            durations = self._transmission_table.draw(table_rows)
            self._transmission_end[grant_reps, rows] = moments + durations
            self._connected_port[grant_reps, rows] = grant_cols
            self._bus_busy[grant_reps, port_index] = 1
            return
        for index in range(grant_reps.shape[0]):
            k = int(grant_reps[index])
            row = int(rows[index])
            start = int(self._queue_start[k, row])
            created_one = float(self._queue_created[k, row, start])
            self._queue_start[k, row] = (start + 1) & (capacity - 1)
            self._queue_length[k, row] -= 1
            moment = float(times[k])
            if moment > warmup:
                count = int(self._delay_count[k]) + 1
                self._delay_count[k] = count
                delta_one = (moment - created_one) - float(self._delay_mean[k])
                self._delay_mean[k] += delta_one / count
            duration = self._transmission_table.draw_one(int(table_rows[index]))
            self._transmission_end[k, row] = moment + duration
            self._connected_port[k, row] = int(grant_cols[index])
            self._bus_busy[k, int(port_index[index])] = 1


def batched_delays(config: Union[SystemConfig, str,
                                  Sequence[Union[SystemConfig, str]]],
                   workloads: Sequence[Workload], horizon: float,
                   warmup: float, seed_groups: Sequence[Sequence[int]],
                   arbitration: str = "priority") -> List[List[float]]:
    """Front door: mean queueing delay of every (point, replication) row.

    ``config`` is one configuration, or one per point (see
    :class:`MegaBatchEngine`).  ``batched_delays(c, ws, h, u,
    groups)[i][k]`` equals ``simulate(c_i, ws[i], horizon=h, warmup=u,
    seed=groups[i][k]).mean_queueing_delay`` to the last bit — the
    lockstep invariant this module exists to keep — whether the points
    share one call or run one at a time; the replications of a single
    point are ``batched_delays(c, [w], h, u, [seeds])[0]``.
    """
    engine = MegaBatchEngine(config, workloads, seed_groups,
                             arbitration=arbitration)
    result = engine.run(horizon=horizon, warmup=warmup)
    return [list(delays) for delays in result.mean_delays]
