"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, PRIORITY_URGENT


def test_event_starts_pending():
    env = Environment()
    timeout = env.timeout(1.0)
    assert not timeout.processed
    env.run(until=0.5)
    assert not timeout.processed
    env.run()
    assert timeout.processed


def test_callbacks_run_in_registration_order():
    env = Environment()
    timeout = env.timeout(1.0)
    calls = []
    timeout.add_callback(lambda e: calls.append("first"))
    timeout.add_callback(lambda e: calls.append("second"))
    env.run()
    assert calls == ["first", "second"]


def test_callback_added_after_processing_fires_immediately():
    env = Environment()
    timeout = env.timeout(2.0)
    env.run()
    late = []
    timeout.add_callback(lambda e: late.append((e, env.now)))
    assert late == [(timeout, 2.0)]


def test_timeout_fires_at_right_time():
    env = Environment()
    seen = []
    timeout = env.timeout(5.0)
    timeout.add_callback(lambda e: seen.append((env.now, e)))
    env.run()
    assert seen == [(5.0, timeout)]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_priority_orders_same_time_events():
    env = Environment()
    order = []
    normal = env.timeout(1.0)
    urgent = env.timeout(1.0, priority=PRIORITY_URGENT)
    normal.add_callback(lambda e: order.append("normal"))
    urgent.add_callback(lambda e: order.append("urgent"))
    env.run()
    assert order == ["urgent", "normal"]


def test_same_time_same_priority_pops_fifo():
    """Regression: timestamp ties resolve by monotonic schedule order.

    The heap entry is a (time, priority, sequence, event) tuple; the
    sequence tie-break must make same-slot events pop in the order they
    were scheduled, on every Python version, and the comparison must never
    fall through to the Event objects themselves.
    """
    env = Environment()
    order = []
    for label in range(8):
        timer = env.timeout(3.0)
        timer.add_callback(lambda e, lab=label: order.append(lab))
    env.run()
    assert order == list(range(8))


def test_interleaved_schedules_keep_fifo_within_slot():
    env = Environment()
    order = []
    early = env.timeout(1.0)
    late_first = env.timeout(2.0)
    early.add_callback(lambda e: order.append("early"))
    late_first.add_callback(lambda e: order.append("late-first"))
    late_second = env.timeout(2.0)
    late_second.add_callback(lambda e: order.append("late-second"))
    env.run()
    assert order == ["early", "late-first", "late-second"]
