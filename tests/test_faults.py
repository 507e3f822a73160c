"""Unit tests for the fault-injection subsystem.

Covers the fault models and schedules, the retry/backoff policy, the
fabric-level fail/repair hooks of all three network classes, the system
hooks (severing, retries, abandonment), and the availability ledger.
"""

import math
import random

import pytest

from repro.config import SystemConfig
from repro.core.system import RsinSystem, simulate
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    ReproError,
    RetryExhaustedError,
    SchedulingError,
    SimulationError,
)
from repro.faults import (
    FAULT_KINDS,
    BusFault,
    CellFault,
    FaultConfig,
    FaultEvent,
    FaultSchedule,
    InterchangeFault,
    ResourceFault,
    RetryPolicy,
)
from repro.networks.crossbar import CrossbarFabric
from repro.networks.omega import MultistageFabric
from repro.networks.topology import make_topology
from repro.workload import Workload

WORKLOAD = Workload(arrival_rate=0.05, transmission_rate=1.0,
                    service_rate=0.1)


class TestFaultModels:
    def test_kind_registry_covers_all_models(self):
        assert set(FAULT_KINDS) == {"resource", "bus", "cell", "interchange"}
        assert ResourceFault(mttf=10.0, mttr=1.0).kind == "resource"
        assert BusFault(mttf=10.0, mttr=1.0).kind == "bus"
        assert CellFault(mttf=10.0, mttr=1.0).kind == "cell"
        assert InterchangeFault(mttf=10.0, mttr=1.0).kind == "interchange"

    def test_availability(self):
        model = ResourceFault(mttf=900.0, mttr=100.0)
        assert model.availability == pytest.approx(0.9)
        assert ResourceFault(mttf=math.inf, mttr=1.0).availability == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceFault(mttf=0.0, mttr=1.0)
        with pytest.raises(ConfigurationError):
            ResourceFault(mttf=1.0, mttr=0.0)
        with pytest.raises(ConfigurationError):
            ResourceFault(mttf=1.0, mttr=math.inf)
        with pytest.raises(ConfigurationError):
            ResourceFault(mttf=math.nan, mttr=1.0)
        with pytest.raises(ConfigurationError):
            ResourceFault(mttf=1.0, mttr=math.nan)
        with pytest.raises(ConfigurationError):
            ResourceFault(mttf=1.0, mttr=1.0, failure_distribution="weird")

    def test_infinite_mttf_never_fails(self):
        model = BusFault(mttf=math.inf, mttr=1.0)
        assert model.next_failure(random.Random(0)) == math.inf

    def test_deterministic_distributions(self):
        model = BusFault(mttf=50.0, mttr=5.0,
                         failure_distribution="deterministic",
                         repair_distribution="deterministic")
        rng = random.Random(0)
        assert model.next_failure(rng) == pytest.approx(50.0)
        assert model.next_repair(rng) == pytest.approx(5.0)

    def test_schedule_sorts_events(self):
        schedule = FaultSchedule.of((9.0, "bus", (0, 0), "down"),
                                    (3.0, "bus", (0, 0), "down"))
        assert [event.time for event in schedule.events] == [3.0, 9.0]

    def test_fault_event_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=-1.0, kind="bus", component=(0, 0), action="down")
        with pytest.raises(ConfigurationError):
            FaultEvent(time=1.0, kind="bus", component=(0, 0), action="maybe")
        with pytest.raises(ConfigurationError):
            FaultEvent(time=1.0, kind="nope", component=(0, 0), action="down")

    def test_config_rejects_duplicate_kinds(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(models=(BusFault(mttf=1.0, mttr=1.0),
                                BusFault(mttf=2.0, mttr=1.0)))

    def test_fault_free_detection(self):
        assert FaultConfig().fault_free
        assert FaultConfig(
            models=(BusFault(mttf=math.inf, mttr=1.0),)).fault_free
        assert not FaultConfig(
            models=(BusFault(mttf=5.0, mttr=1.0),)).fault_free


class TestRetryPolicy:
    def test_exponential_backoff_without_jitter(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.5,
                             backoff_factor=2.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.next_delay(1, rng) == pytest.approx(0.5)
        assert policy.next_delay(2, rng) == pytest.approx(1.0)
        assert policy.next_delay(3, rng) == pytest.approx(2.0)

    def test_jitter_bounds(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.5)
        rng = random.Random(7)
        for _ in range(100):
            assert 0.5 <= policy.next_delay(1, rng) <= 1.5

    def test_exhaustion_raises(self):
        policy = RetryPolicy(max_retries=2)
        with pytest.raises(RetryExhaustedError) as info:
            policy.next_delay(3, random.Random(0))
        assert info.value.attempts == 3
        assert info.value.max_retries == 2
        assert isinstance(info.value, SchedulingError)

    def test_timeout(self):
        policy = RetryPolicy(task_timeout=10.0)
        assert not policy.expired(10.0)
        assert policy.expired(10.5)
        assert not RetryPolicy().expired(1e12)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-0.1)


class TestErrorHierarchy:
    def test_fault_errors_nest_under_repro_error(self):
        assert issubclass(FaultInjectionError, SimulationError)
        assert issubclass(RetryExhaustedError, SchedulingError)
        assert issubclass(FaultInjectionError, ReproError)
        assert issubclass(RetryExhaustedError, ReproError)


class TestFabricHooks:
    def test_crossbar_cell_failure_blocks_and_repairs(self):
        fabric = CrossbarFabric(inputs=2, outputs=2)
        assert ("cell", (0, 1)) in fabric.fault_components()
        fabric.fail_component(("cell", (0, 0)))
        fabric.fail_component(("cell", (0, 1)))
        assert fabric.connect(0, [0, 1]) is None  # input 0 fully cut off
        connection = fabric.connect(1, [0, 1])
        assert connection is not None  # input 1 unaffected
        fabric.release(connection)
        fabric.repair_component(("cell", (0, 0)))
        assert fabric.connect(0, [0]) is not None

    def test_crossbar_fail_severs_matching_circuit(self):
        fabric = CrossbarFabric(inputs=2, outputs=2)
        connection = fabric.connect(0, [1])
        severed = fabric.fail_component(("cell", (0, 1)))
        assert severed == frozenset({connection})
        assert not fabric.active_connections

    def test_omega_routes_around_failed_box(self):
        fabric = MultistageFabric(make_topology("OMEGA", 8))
        # Kill one first-stage box; its two inputs lose all routes, the
        # other six inputs still reach every output.
        boxes = [c for c in fabric.fault_components() if c[1][0] == 0]
        dead = boxes[0]
        fabric.fail_component(dead)
        blocked_inputs = []
        for i in range(8):
            probe = fabric.connect(i, list(range(8)))
            if probe is None:
                blocked_inputs.append(i)
            else:
                fabric.release(probe)
        assert len(blocked_inputs) == 2
        open_input = next(i for i in range(8) if i not in blocked_inputs)
        connection = fabric.connect(open_input, list(range(8)))
        assert connection is not None
        dead_stage, dead_box = dead[1]
        assert not any(column == dead_stage
                       and fabric._in_map[column][index][0] == dead_box
                       for column, index in connection.links)
        fabric.release(connection)
        fabric.repair_component(dead)
        assert fabric.connect(blocked_inputs[0], list(range(8))) is not None

    def test_double_fail_and_bad_component_rejected(self):
        fabric = CrossbarFabric(inputs=2, outputs=2)
        fabric.fail_component(("cell", (0, 0)))
        with pytest.raises(FaultInjectionError):
            fabric.fail_component(("cell", (0, 0)))
        with pytest.raises(FaultInjectionError):
            fabric.repair_component(("cell", (1, 1)))
        with pytest.raises(FaultInjectionError):
            fabric.fail_component(("cell", (9, 9)))


def _system(triplet, faults=None, workload=WORKLOAD, seed=3):
    config = SystemConfig.parse(triplet)
    if faults is not None:
        config = config.with_faults(faults)
    return RsinSystem(config, workload, seed=seed)


class TestSystemHooks:
    def test_bus_failure_severs_inflight_transmission(self):
        system = _system("2/1x1x1 SBUS/2")
        # Drive manually: start the system, then kill the bus mid-run.
        system.env.timeout(50.0).add_callback(
            lambda _e: system.fail_bus(0, 0))
        system.env.timeout(80.0).add_callback(
            lambda _e: system.repair_bus(0, 0))
        result = system.run(horizon=500.0)
        assert result.completed_tasks > 0

    def test_resource_failure_defers_until_job_boundary(self):
        system = _system("2/1x1x1 SBUS/1")
        port = system.ports[0][0]
        port.busy_resources = 1  # pretend a job is in service
        system.fail_resource(0, 0)
        assert port.pending_resource_failures == 1
        assert port.failed_resources == 0
        port.busy_resources = 0
        system.repair_resource(0, 0)  # cancels the pending failure
        assert port.pending_resource_failures == 0
        system.fail_resource(0, 0)
        assert port.failed_resources == 1
        assert not port.can_accept
        system.repair_resource(0, 0)
        assert port.can_accept

    def test_repair_without_failure_rejected(self):
        system = _system("2/1x1x1 SBUS/1")
        with pytest.raises(FaultInjectionError):
            system.repair_resource(0, 0)
        with pytest.raises(FaultInjectionError):
            system.repair_bus(0, 0)

    def test_scheduled_bus_outage_counts_severed_and_retried(self):
        schedule = FaultSchedule.of((40.0, "bus", (0, 0), "down"),
                                    (60.0, "bus", (0, 0), "up"))
        faults = FaultConfig(schedule=schedule,
                             retry=RetryPolicy(max_retries=8, jitter=0.0))
        workload = Workload(arrival_rate=0.2, transmission_rate=0.1,
                            service_rate=0.5)  # long transmissions
        result = simulate(
            SystemConfig.parse("2/1x1x1 SBUS/4").with_faults(faults),
            workload, horizon=300.0, seed=1)
        assert result.severed_transmissions >= 1
        assert result.retried_tasks >= 1
        report = result.availability
        assert report.total_failures == 1
        assert report.downtime_by_component()[("bus", (0, 0))] == \
            pytest.approx(20.0)

    def test_retry_budget_exhaustion_abandons(self):
        # A bus that dies and never comes back: the severed task retries
        # until the budget is spent, then is abandoned; queued tasks age
        # out through the task timeout.
        schedule = FaultSchedule.of((10.0, "bus", (0, 0), "down"))
        faults = FaultConfig(
            schedule=schedule,
            retry=RetryPolicy(max_retries=2, backoff_base=1.0, jitter=0.0,
                              task_timeout=50.0))
        workload = Workload(arrival_rate=0.3, transmission_rate=0.05,
                            service_rate=0.5)
        result = simulate(
            SystemConfig.parse("1/1x1x1 SBUS/2").with_faults(faults),
            workload, horizon=400.0, seed=2)
        assert result.abandoned_tasks >= 1

    def test_cell_faults_rejected_on_sbus(self):
        faults = FaultConfig(models=(CellFault(mttf=10.0, mttr=1.0),))
        with pytest.raises(ConfigurationError):
            _system("2/1x1x1 SBUS/1", faults)

    def test_interchange_faults_rejected_on_crossbar(self):
        faults = FaultConfig(models=(InterchangeFault(mttf=10.0, mttr=1.0),))
        with pytest.raises(ConfigurationError):
            _system("4/1x4x4 XBAR/1", faults)

    def test_resource_faults_rejected_with_infinite_resources(self):
        faults = FaultConfig(models=(ResourceFault(mttf=10.0, mttr=1.0),))
        with pytest.raises(ConfigurationError):
            SystemConfig.parse("2/2x1x1 SBUS/inf").with_faults(faults)

    def test_schedule_with_unknown_component_rejected(self):
        schedule = FaultSchedule.of((1.0, "bus", (0, 7), "down"))
        with pytest.raises(ConfigurationError):
            _system("2/1x1x1 SBUS/1", FaultConfig(schedule=schedule))

    def test_availability_report_attached_only_with_faults(self):
        healthy = simulate("2/1x1x1 SBUS/1", WORKLOAD, horizon=200.0, seed=1)
        assert healthy.availability is None
        faults = FaultConfig(models=(BusFault(mttf=math.inf, mttr=1.0),))
        shadow = simulate(
            SystemConfig.parse("2/1x1x1 SBUS/1").with_faults(faults),
            WORKLOAD, horizon=200.0, seed=1)
        assert shadow.availability is not None
        assert shadow.availability.total_failures == 0
        assert shadow == healthy  # compare=False on the report

    @pytest.mark.parametrize("triplet,model", [
        ("8/2x1x1 SBUS/2", BusFault(mttf=60.0, mttr=15.0)),
        ("8/2x1x1 SBUS/2", ResourceFault(mttf=60.0, mttr=15.0)),
        ("8/1x8x8 XBAR/1", CellFault(mttf=200.0, mttr=20.0)),
        ("8/1x8x8 OMEGA/1", InterchangeFault(mttf=120.0, mttr=15.0)),
    ])
    def test_stochastic_faults_complete_work_on_every_fabric(self, triplet,
                                                             model):
        faults = FaultConfig(models=(model,),
                             retry=RetryPolicy(max_retries=6,
                                               task_timeout=200.0))
        result = simulate(
            SystemConfig.parse(triplet).with_faults(faults),
            WORKLOAD, horizon=2_000.0, warmup=100.0, seed=9)
        assert result.completed_tasks > 0
        assert result.availability.total_failures > 0
        assert 0.0 < result.availability.time_weighted_capacity() < 1.0
