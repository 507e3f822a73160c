"""Tests for the batched (word) crossbar matcher.

The batched matcher's contract is equivalence with the scalar gate-level
model: on arbitrary request and status words, :func:`match_pairs_batch`
must grant exactly what the scalar cell-by-cell wavefront of
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


def _words(values):
    return np.array(values, dtype=np.uint64)


def _bits(word):
    return [bit for bit in range(64) if word >> bit & 1]


class TestBatchedMatching:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_match_agrees_with_priority_match_and_wavefront(self, data):
        processors = data.draw(st.integers(1, 64), label="p")
        ports = data.draw(st.integers(1, 64), label="m")
        count = data.draw(st.integers(1, 6), label="rows")
        requests = [data.draw(st.integers(0, 2 ** processors - 1),
                              label=f"requests{k}") for k in range(count)]
        status = [data.draw(st.integers(0, 2 ** ports - 1),
                            label=f"status{k}") for k in range(count)]
        rows, granted, taken = match_pairs_batch(_words(requests),
                                                 _words(status))
        pairs = list(zip(rows.tolist(), granted.tolist(), taken.tolist()))
        # Row-major, processor-ascending: the scalar dispatch order.
        assert pairs == sorted(pairs)
        by_row = {}
        for k, processor, port in pairs:
            by_row.setdefault(k, {})[processor] = port
        for k in range(count):
            waiting, acceptable = _bits(requests[k]), _bits(status[k])
            got = by_row.get(k, {})
            assert got == priority_match(waiting, acceptable)
            wavefront = DistributedCrossbar(processors, ports).request_cycle(
                waiting, acceptable)
            assert got == wavefront.granted

    def test_pairs_come_back_replication_major_row_ascending(self):
        requests = _words([0b110, 0b101])
        status = _words([0b11, 0b01])
        rows, processors, ports = match_pairs_batch(requests, status)
        assert rows.tolist() == [0, 0, 1]
        assert processors.tolist() == [1, 2, 0]
        assert ports.tolist() == [0, 1, 0]
        # The caller's words are not consumed.
        assert requests.tolist() == [0b110, 0b101]
        assert status.tolist() == [0b11, 0b01]

    def test_lowest_requesting_row_wins_port_zero(self):
        """A shared bus is the one-column case: the lowest waiting
        processor wins when the bus can accept."""
        requests = _words([0b110, 0b101, 0b000])
        status = _words([1, 0, 1])
        rows, processors, ports = match_pairs_batch(requests, status)
        # Row 1's busy bus and row 2's idle processors both refuse; row
        # 0 grants its lowest waiting processor.
        assert rows.tolist() == [0]
        assert processors.tolist() == [1]
        assert ports.tolist() == [0]

    def test_top_bits_pair(self):
        """Bit 63 is a processor and a port like any other."""
        top = 1 << 63
        rows, processors, ports = match_pairs_batch(
            _words([top, top | 1]), _words([top, top]))
        assert rows.tolist() == [0, 1]
        assert processors.tolist() == [63, 0]
        assert ports.tolist() == [63, 63]
