"""Unit and property tests for the SBUS Markov chain structure (Fig. 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.markov import SbusChain


def make_chain(resources=3):
    return SbusChain(arrival_rate=1.0, transmission_rate=2.0,
                     service_rate=0.5, resources=resources)


class TestFeasibility:
    def test_transmitting_needs_free_resource(self):
        chain = make_chain(resources=3)
        assert chain.is_feasible((0, 1, 2))
        assert not chain.is_feasible((0, 1, 3))   # all resources busy

    def test_queueing_needs_busy_bus_or_full_pool(self):
        chain = make_chain(resources=3)
        assert chain.is_feasible((2, 1, 1))
        assert chain.is_feasible((2, 0, 3))
        assert not chain.is_feasible((2, 0, 1))   # idle bus + free resource

    def test_bounds(self):
        chain = make_chain(resources=3)
        assert not chain.is_feasible((-1, 0, 0))
        assert not chain.is_feasible((0, 2, 0))
        assert not chain.is_feasible((0, 0, 4))


class TestLevels:
    def test_level_counts_tasks(self):
        chain = make_chain()
        assert chain.level((2, 1, 1)) == 4
        assert chain.level((0, 0, 0)) == 0

    def test_states_at_small_levels(self):
        chain = make_chain(resources=3)
        assert chain.states_at_level(0) == [(0, 0, 0)]
        assert set(chain.states_at_level(1)) == {(0, 1, 0), (0, 0, 1)}

    def test_repeating_levels_have_r_plus_1_states(self):
        chain = make_chain(resources=3)
        for level in range(chain.repeating_level, chain.repeating_level + 4):
            states = chain.states_at_level(level)
            assert len(states) == 4
            assert states[-1][1] == 0          # idle-bus phase last
            assert states[-1][2] == 3

    def test_all_level_states_feasible(self):
        chain = make_chain(resources=4)
        for level in range(0, 12):
            for state in chain.states_at_level(level):
                assert chain.is_feasible(state)
                assert chain.level(state) == level


class TestTransitions:
    def test_transitions_preserve_feasibility(self):
        chain = make_chain(resources=3)
        for level in range(0, 10):
            for state in chain.states_at_level(level):
                for target, rate in chain.transitions(state):
                    assert rate > 0
                    assert chain.is_feasible(target), (state, target)

    def test_transitions_move_one_level(self):
        chain = make_chain(resources=3)
        for level in range(0, 10):
            for state in chain.states_at_level(level):
                for target, _rate in chain.transitions(state):
                    assert abs(chain.level(target) - level) <= 1

    def test_empty_state_only_arrival(self):
        chain = make_chain()
        moves = list(chain.transitions((0, 0, 0)))
        assert moves == [((0, 1, 0), chain.arrival_rate)]

    def test_bus_stall_boundary(self):
        # N^l_{1, r-1} -> N^l_{0, r} on transmission completion (paper).
        chain = make_chain(resources=3)
        targets = dict(chain.transitions((2, 1, 2)))
        assert (2, 0, 3) in targets
        assert targets[(2, 0, 3)] == chain.transmission_rate

    def test_queue_drain_boundary(self):
        # N^l_{0, r} -> N^{l-1}_{1, r-1} on service completion (paper).
        chain = make_chain(resources=3)
        targets = dict(chain.transitions((2, 0, 3)))
        assert (1, 1, 2) in targets
        assert targets[(1, 1, 2)] == 3 * chain.service_rate

    def test_total_service_rate_scales_with_busy(self):
        chain = make_chain(resources=3)
        targets = dict(chain.transitions((0, 1, 2)))
        assert targets[(0, 1, 1)] == 2 * chain.service_rate


class TestArrivalPredecessor:
    @given(level=st.integers(min_value=1, max_value=12))
    def test_predecessor_is_bijective_onto_lower_level(self, level):
        chain = make_chain(resources=3)
        lower = set(chain.states_at_level(level - 1))
        found = set()
        for state in chain.states_at_level(level):
            try:
                predecessor = chain.arrival_predecessor(state)
            except ValueError:
                continue
            # The predecessor's arrival transition must lead back here.
            arrivals = [t for t, r in chain.transitions(predecessor)
                        if r == chain.arrival_rate and chain.level(t) == level]
            assert state in arrivals
            assert predecessor not in found
            found.add(predecessor)
        assert found == lower

    def test_idle_states_have_no_predecessor(self):
        chain = make_chain(resources=3)
        for busy in range(1, 4):
            with pytest.raises(ValueError):
                chain.arrival_predecessor((0, 0, busy))


class TestQbdBlocks:
    def test_rows_sum_to_zero_in_homogeneous_part(self):
        import numpy as np
        chain = make_chain(resources=3)
        a0, a1, a2 = chain.qbd_blocks()
        assert np.allclose((a0 + a1 + a2).sum(axis=1), 0.0)

    def test_blocks_match_transition_function(self):
        chain = make_chain(resources=3)
        a0, a1, a2 = chain.qbd_blocks()
        level = chain.repeating_level + 2
        states = chain.states_at_level(level)
        below = chain.states_at_level(level - 1)
        above = chain.states_at_level(level + 1)
        for i, state in enumerate(states):
            for target, rate in chain.transitions(state):
                target_level = chain.level(target)
                if target_level == level + 1:
                    assert a0[i, above.index(target)] == pytest.approx(rate)
                elif target_level == level:
                    assert a1[i, states.index(target)] == pytest.approx(rate)
                else:
                    assert a2[i, below.index(target)] == pytest.approx(rate)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(arrival_rate=0.0, transmission_rate=1.0, service_rate=1.0, resources=1),
        dict(arrival_rate=1.0, transmission_rate=-1.0, service_rate=1.0, resources=1),
        dict(arrival_rate=1.0, transmission_rate=1.0, service_rate=0.0, resources=1),
        dict(arrival_rate=1.0, transmission_rate=1.0, service_rate=1.0, resources=0),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SbusChain(**kwargs)
