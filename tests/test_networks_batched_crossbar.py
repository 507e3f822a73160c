"""Tests for the batched (vectorized) crossbar matcher.

The batched matcher's contract is equivalence with the scalar gate-level
model: on arbitrary request patterns, :func:`match_pairs_batch` must grant
exactly what the scalar cell-by-cell wavefront of
:class:`DistributedCrossbar` latches and what the closed-form
:func:`priority_match` assigns, in the scalar broadcast's dispatch order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.networks import (
    DistributedCrossbar,
    match_pairs_batch,
    priority_match,
)


class TestBatchedMatching:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_match_agrees_with_priority_match_and_wavefront(self, data):
        processors = data.draw(st.integers(1, 6), label="p")
        buses = data.draw(st.integers(1, 6), label="m")
        replications = data.draw(st.integers(1, 6), label="R")
        requesting = np.array(
            [[data.draw(st.integers(0, 1)) for _ in range(processors)]
             for _ in range(replications)], dtype=np.uint8)
        available = np.array(
            [[data.draw(st.integers(0, 1)) for _ in range(buses)]
             for _ in range(replications)], dtype=np.uint8)
        reps, rows, cols = match_pairs_batch(requesting, available)
        by_replication = {}
        for k, row, column in zip(reps.tolist(), rows.tolist(),
                                  cols.tolist()):
            by_replication.setdefault(k, {})[row] = column
        for k in range(replications):
            requesting_rows = [int(r) for r in np.nonzero(requesting[k])[0]]
            columns = [int(c) for c in np.nonzero(available[k])[0]]
            got = by_replication.get(k, {})
            assert got == priority_match(requesting_rows, columns)
            wavefront = DistributedCrossbar(processors, buses).request_cycle(
                requesting_rows, columns)
            assert got == wavefront.granted

    def test_pairs_come_back_replication_major_row_ascending(self):
        requesting = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        available = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        reps, rows, cols = match_pairs_batch(requesting, available)
        assert reps.tolist() == [0, 0, 1]
        assert rows.tolist() == [1, 2, 0]
        assert cols.tolist() == [0, 1, 0]

    def test_lowest_requesting_row_wins_port_zero(self):
        """A shared bus is the one-column case: the lowest waiting
        processor wins when the bus can accept."""
        requesting = np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0]],
                              dtype=np.uint8)
        acceptable = np.array([[1], [0], [1]], dtype=np.uint8)
        reps, rows, cols = match_pairs_batch(requesting, acceptable)
        # Replication 1's busy bus and replication 2's idle processors
        # both refuse; replication 0 grants its lowest waiting row.
        assert reps.tolist() == [0]
        assert rows.tolist() == [1]
        assert cols.tolist() == [0]
