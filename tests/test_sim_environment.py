"""Unit tests for the simulation environment run loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.events import Event


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=7.5).now == 7.5


def test_run_until_advances_clock_even_without_events():
    env = Environment()
    env.run(until=100.0)
    assert env.now == 100.0


def test_run_until_does_not_process_later_events():
    env = Environment()
    seen = []
    env.timeout(5.0).add_callback(lambda e: seen.append(5.0))
    env.timeout(15.0).add_callback(lambda e: seen.append(15.0))
    env.run(until=10.0)
    assert seen == [5.0]
    assert env.now == 10.0
    env.run()  # drain the rest
    assert seen == [5.0, 15.0]


def test_run_into_the_past_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_schedule_into_past_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.schedule(Event(env), delay=-0.5)


def test_events_process_in_time_order():
    env = Environment()
    seen = []
    for delay in (3.0, 1.0, 2.0):
        env.timeout(delay).add_callback(
            lambda e, delay=delay: seen.append(delay))
    env.run()
    assert seen == [1.0, 2.0, 3.0]


def test_ties_break_fifo():
    env = Environment()
    seen = []
    for tag in ("a", "b", "c"):
        env.timeout(1.0).add_callback(lambda e, tag=tag: seen.append(tag))
    env.run()
    assert seen == ["a", "b", "c"]


def test_livelock_guard_bounds_queue_growth():
    """A model that schedules faster than it drains hits the guard."""
    env = Environment(max_queue_length=100)

    def explode(event):
        for _ in range(2):  # two children per event: exponential growth
            env.timeout(1.0).add_callback(explode)

    env.timeout(1.0).add_callback(explode)
    with pytest.raises(SimulationError, match="max_queue_length"):
        env.run(until=1_000.0)


def test_livelock_guard_disabled_with_none():
    env = Environment(max_queue_length=None)
    for _ in range(200):
        env.timeout(1.0)
    env.run()  # no guard, drains fine


def test_livelock_guard_rejects_nonpositive_bound():
    with pytest.raises(SimulationError):
        Environment(max_queue_length=0)


def test_livelock_guard_default_allows_normal_models():
    env = Environment()
    seen = []
    for delay in range(1, 50):
        env.timeout(float(delay)).add_callback(
            lambda e: seen.append(env.now))
    env.run()
    assert len(seen) == 49


def test_nested_scheduling_from_callbacks():
    env = Environment()
    seen = []

    def chain(event):
        seen.append(env.now)
        if env.now < 3.0:
            env.timeout(1.0).add_callback(chain)

    env.timeout(1.0).add_callback(chain)
    env.run()
    assert seen == [1.0, 2.0, 3.0]
