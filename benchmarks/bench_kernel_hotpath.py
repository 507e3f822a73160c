"""Kernel hot path: event throughput of the tuned ``Environment.run``.

The tuned kernel flattens the inner loop — ``run`` pops the heap and
dispatches callbacks inline instead of paying a ``step()`` frame plus an
``Event._run_callbacks`` frame per event, ``Timeout`` writes its slots and
schedules itself without the ``Event.__init__`` / ``Environment.schedule``
frames, and the hot loop binds ``heappop`` and the queue to locals.  This
benchmark measures event throughput (steps/sec) on the shape every model
in ``core/`` and the fault injector produces: long interleaved chains of
timeouts, each scheduled from the previous one's callback, driven through
``run(until=...)``.

The baseline is a *reference kernel* embedded below — a line-for-line
reduction of the seed implementation (pre-tuning ``environment.py`` /
``events.py``) to the classes the chain workload touches.  Benchmarking
against live code would understate the win (the seed's ``Timeout`` and
callback dispatch no longer exist in the tree), so the seed shape is
preserved here as the regression yardstick.  The tuned kernel must clear
it by >= 1.2x: the median ratio over interleaved pairs of runs.

``REPRO_BENCH_SMOKE=1`` shortens the chains so CI can execute the
benchmark end to end in about a second; the floor is asserted only at
full size.
"""

from __future__ import annotations

import heapq
import os
import statistics
from time import perf_counter

from repro.sim import Environment

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Events processed per measured run (chains * events per chain).
CHAINS = 100
EVENTS_PER_CHAIN = 200 if SMOKE else 2_000
TOTAL_EVENTS = CHAINS * EVENTS_PER_CHAIN
#: Run horizon: past the last event of the slowest chain (delay < 2.0).
HORIZON = 2.0 * EVENTS_PER_CHAIN

#: Interleaved (tuned, seed-shape) run pairs behind the floor.
PAIRS = 7
SPEEDUP_FLOOR = 1.2


# -- reference kernel (seed shape) ----------------------------------------
# Faithful to the pre-tuning implementation's per-event cost structure:
# Timeout pays Event.__init__ + Environment.schedule frames, step() pays a
# frame plus Event._run_callbacks, run() calls self.step() per event, and
# heap operations go through module-attribute lookups.  Keep in seed shape;
# do not "fix" this to match the tuned kernel.

class _SeedEvent:
    __slots__ = ("env", "callbacks", "_value", "_exception",
                 "_triggered", "_processed")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False

    def _run_callbacks(self):
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def add_callback(self, callback):
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class _SeedTimeout(_SeedEvent):
    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None, priority=1):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._triggered = True
        env.schedule(self, delay=delay, priority=priority)


class _SeedEnvironment:
    def __init__(self, initial_time=0.0, max_queue_length=1_000_000):
        self._now = float(initial_time)
        self._queue = []
        self._sequence = 0
        self.max_queue_length = max_queue_length

    @property
    def now(self):
        return self._now

    def timeout(self, delay, value=None, priority=1):
        return _SeedTimeout(self, delay, value=value, priority=priority)

    def schedule(self, event, delay=0.0, priority=1):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if (self.max_queue_length is not None
                and len(self._queue) >= self.max_queue_length):
            raise ValueError("event queue exceeded max_queue_length")
        heapq.heappush(self._queue,
                       (self._now + delay, priority, self._sequence, event))
        self._sequence += 1

    def step(self):
        if not self._queue:
            raise ValueError("no more events scheduled")
        time, _priority, _seq, event = heapq.heappop(self._queue)
        if time < self._now:
            raise ValueError("event queue corrupted: time moved backwards")
        self._now = time
        event._run_callbacks()

    def run(self, until=None):
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)


# -- workload --------------------------------------------------------------

def _chain(env, delay, finished):
    """Start one chain: each timeout's callback schedules the next."""
    remaining = EVENTS_PER_CHAIN

    def fire(_event):
        nonlocal remaining
        remaining -= 1
        if remaining:
            env.timeout(delay).add_callback(fire)
        else:
            finished.append(delay)

    env.timeout(delay).add_callback(fire)


def _build(environment_class):
    """An environment preloaded with interleaved callback chains."""
    env = environment_class()
    finished = []
    for index in range(CHAINS):
        # Distinct delays interleave the chains so the heap sees realistic
        # churn instead of FIFO-like batches of equal keys.
        _chain(env, 1.0 + index / CHAINS, finished)
    return env, finished


def _throughput(environment_class):
    """Events/sec through ``environment_class``'s run loop."""
    env, finished = _build(environment_class)
    start = perf_counter()
    env.run(until=HORIZON)
    elapsed = perf_counter() - start
    assert len(finished) == CHAINS and env.now == HORIZON
    return TOTAL_EVENTS / elapsed


# -- benchmarks ------------------------------------------------------------

def test_kernel_hotpath_throughput(benchmark):
    """Measure tuned-run throughput; record both kernels in the payload."""
    rate = benchmark.pedantic(_throughput, args=(Environment,),
                              rounds=3, iterations=1)
    seed_rate = _throughput(_SeedEnvironment)
    benchmark.extra_info["tuned_steps_per_sec"] = round(rate)
    benchmark.extra_info["seed_shape_steps_per_sec"] = round(seed_rate)
    benchmark.extra_info["speedup"] = round(rate / seed_rate, 3)
    print(f"\ntuned run(): {rate:,.0f} steps/s; "
          f"seed shape: {seed_rate:,.0f} steps/s; "
          f"speedup {rate / seed_rate:.2f}x")
    assert rate > 0


def _pair_ratios():
    """``tuned / seed`` throughput ratio of each of :data:`PAIRS` pairs,
    alternating which kernel runs first."""
    ratios = []
    for index in range(PAIRS):
        if index % 2:
            seed = _throughput(_SeedEnvironment)
            tuned = _throughput(Environment)
        else:
            tuned = _throughput(Environment)
            seed = _throughput(_SeedEnvironment)
        ratios.append(tuned / seed)
    return ratios


def test_kernel_hotpath_speedup_floor(benchmark):
    """The tuned kernel must beat the seed shape by >= 1.2x.

    The speedup is the median of per-pair ratios: the two runs of a pair
    follow each other, so a drift in host speed reaches both alike, and
    the median discards the pairs a burst of host load landed on.  The
    pair ratios go into the payload.  Smoke runs record them without
    asserting the floor: short chains are dominated by set-up costs.
    """
    ratios = benchmark.pedantic(_pair_ratios, rounds=1, iterations=1)
    speedup = statistics.median(ratios)
    benchmark.extra_info["pair_ratios"] = [round(ratio, 3)
                                           for ratio in ratios]
    benchmark.extra_info["median_speedup"] = round(speedup, 3)
    benchmark.extra_info["smoke"] = SMOKE
    print(f"\nmedian speedup: {speedup:.2f}x over {PAIRS} pairs "
          f"({', '.join(f'{ratio:.2f}' for ratio in ratios)})")
    if not SMOKE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"kernel hot path regressed: tuned run() only {speedup:.2f}x "
            f"over the seed-shape reference kernel (median of {PAIRS} "
            f"pairs, floor {SPEEDUP_FLOOR}x)")
