"""Cross-validation: independent implementations must agree.

The repository contains several independently written engines for the same
physics; these property tests pin them against each other:

* the clocked distributed scheduler versus the exhaustive optimal mapping
  (never allocates more, and on a free network with fully settled status
  its shortfall is bounded);
* the settled-status fabric versus the exhaustive optimal (sequential
  greedy lower bound);
* every scheduler, random address mapping included, versus the
  exhaustive optimal on up to 6x6 requests (none allocates more);
* the cycle-accurate crossbar at zero gate time versus the event-driven
  crossbar simulator (covered in test_core_cycle_system; here the
  gate-level wavefront versus the closed-form matcher on random state).
"""

from hypothesis import given, settings, strategies as st

from repro.networks import (
    ClockedMultistageScheduler,
    DistributedCrossbar,
    MultistageFabric,
    OmegaTopology,
    max_conflict_free,
    priority_match,
    random_mapping_outcome,
)
from repro.sim import RngStream


class TestSchedulerVersusOptimal:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_clocked_never_exceeds_optimal(self, data):
        size = 8
        requesters = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                        min_size=1, max_size=4))
        ports = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                   min_size=1, max_size=4))
        topology = OmegaTopology(size)
        best, _mapping = max_conflict_free(topology, requesters, ports)
        scheduler = ClockedMultistageScheduler(
            topology, {port: 1 for port in ports})
        result = scheduler.run(requesters)
        assert len(result.allocated) <= best

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_clocked_close_to_optimal_on_free_network(self, data):
        """With settled status and backtracking, the distributed search
        comes within one allocation of the exhaustive optimum on small
        instances (it is not globally optimal: committed circuits are
        never rearranged)."""
        size = 8
        requesters = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                        min_size=1, max_size=3))
        ports = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                   min_size=1, max_size=3))
        topology = OmegaTopology(size)
        best, _mapping = max_conflict_free(topology, requesters, ports)
        scheduler = ClockedMultistageScheduler(
            topology, {port: 1 for port in ports})
        result = scheduler.run(requesters)
        assert len(result.allocated) >= best - 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fabric_greedy_never_exceeds_optimal(self, data):
        size = 8
        requesters = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                        min_size=1, max_size=4))
        ports = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                   min_size=1, max_size=4))
        topology = OmegaTopology(size)
        best, _mapping = max_conflict_free(topology, requesters, ports)
        fabric = MultistageFabric(topology)
        remaining = set(ports)
        allocated = 0
        for source in requesters:
            connection = fabric.connect(source, remaining)
            if connection is not None:
                remaining.discard(connection.output_port)
                allocated += 1
        assert allocated <= best

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_upper_bounds_every_scheduler(self, data):
        """No scheduler -- the distributed RSIN round, the settled-status
        greedy fabric or a random address mapping -- allocates more than
        the exhaustive optimum, on up to 6x6 requests."""
        size = 8
        requesters = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                        min_size=1, max_size=6))
        ports = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                   min_size=1, max_size=6))
        topology = OmegaTopology(size)
        best, _mapping = max_conflict_free(topology, requesters, ports)
        scheduler = ClockedMultistageScheduler(
            topology, {port: 1 for port in ports})
        assert len(scheduler.run(requesters).allocated) <= best
        fabric = MultistageFabric(topology)
        remaining = set(ports)
        for source in requesters:
            connection = fabric.connect(source, remaining)
            if connection is not None:
                remaining.discard(connection.output_port)
        assert len(ports) - len(remaining) <= best
        rng = RngStream(data.draw(st.integers(0, 2**32 - 1)))
        mapped = random_mapping_outcome(topology, requesters, ports, rng)
        assert len(mapped.routed) <= best


class TestWavefrontVersusClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_with_pre_latched_state(self, data):
        """The equivalence holds from *any* reachable switch state, not
        just the empty one: pre-latch random connections, then compare."""
        processors, buses = 6, 6
        switch = DistributedCrossbar(processors, buses)
        pre_rows = data.draw(st.lists(st.integers(0, processors - 1),
                                      unique=True, max_size=3))
        pre_columns = data.draw(st.lists(st.integers(0, buses - 1),
                                         unique=True, max_size=3))
        for row, column in zip(pre_rows, pre_columns):
            outcome = switch.request_cycle([row], [column])
            assert outcome.granted == {row: column}
        latched_rows = set(switch.connections())
        latched_columns = set(switch.connections().values())
        requesting = sorted(data.draw(st.sets(st.integers(0, processors - 1)))
                            - latched_rows)
        available = sorted(data.draw(st.sets(st.integers(0, buses - 1)))
                           - latched_columns)
        hardware = switch.request_cycle(requesting, available).granted
        assert hardware == priority_match(requesting, available)


class TestConservationAcrossEngines:
    def test_generated_equals_completed_plus_in_flight(self):
        from repro.config import SystemConfig
        from repro.core import RsinSystem
        from repro.workload import Workload
        system = RsinSystem(SystemConfig.parse("8/1x8x8 OMEGA/2"),
                            Workload(0.06, 1.0, 0.2), seed=5)
        result = system.run(horizon=5_000.0)
        queued = sum(len(processor.queue) for processor in system.processors)
        transmitting = sum(1 for processor in system.processors
                           if processor.transmitting is not None)
        serving = sum(port.busy_resources
                      for partition in system.ports for port in partition)
        assert (system.metrics.generated_tasks
                == result.completed_tasks + queued + transmitting + serving)
