"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, PRIORITY_URGENT


def test_event_starts_pending():
    env = Environment()
    event = env.event()
    assert not event.triggered
    assert not event.processed


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_succeed_carries_value():
    env = Environment()
    event = env.event()
    event.succeed(42)
    env.run()
    assert event.processed
    assert event.ok
    assert event.value == 42


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("late"))


def test_fail_raises_on_value_access():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("boom"))
    env.run()
    assert event.triggered
    assert not event.ok
    with pytest.raises(RuntimeError):
        _ = event.value


def test_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_callbacks_run_in_registration_order():
    env = Environment()
    event = env.event()
    calls = []
    event.add_callback(lambda e: calls.append("first"))
    event.add_callback(lambda e: calls.append("second"))
    event.succeed()
    env.run()
    assert calls == ["first", "second"]


def test_callback_added_after_processing_fires_immediately():
    env = Environment()
    event = env.event()
    event.succeed("done")
    env.run()
    late = []
    event.add_callback(lambda e: late.append(e.value))
    assert late == ["done"]


def test_timeout_fires_at_right_time():
    env = Environment()
    seen = []
    timeout = env.timeout(5.0, value="ping")
    timeout.add_callback(lambda e: seen.append((env.now, e.value)))
    env.run()
    assert seen == [(5.0, "ping")]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_any_of_fires_on_first_child():
    env = Environment()
    slow = env.timeout(10.0, value="slow")
    fast = env.timeout(1.0, value="fast")
    condition = env.any_of([slow, fast])
    env.run_until_event(condition)
    assert env.now == 1.0
    assert condition.value == {fast: "fast"}


def test_all_of_waits_for_every_child():
    env = Environment()
    first = env.timeout(1.0, value=1)
    second = env.timeout(3.0, value=2)
    condition = env.all_of([first, second])
    env.run_until_event(condition)
    assert env.now == 3.0
    assert condition.value == {first: 1, second: 2}


def test_all_of_empty_fires_immediately():
    env = Environment()
    condition = env.all_of([])
    env.run()
    assert condition.processed
    assert condition.value == {}


def test_condition_propagates_child_failure():
    env = Environment()
    bad = env.event()
    good = env.timeout(5.0)
    condition = env.all_of([bad, good])
    bad.fail(ValueError("child died"))
    env.run()
    assert condition.triggered
    assert not condition.ok


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
