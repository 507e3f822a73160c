"""Lockstep tests for the batched multistage router.

The batched router's single contract is equivalence with the scalar
fabric it replaces: :class:`BatchedMultistageRouter` must grant, route,
and release exactly like :class:`MultistageFabric` on every wiring the
grammar admits.  The hypothesis tests below advance one router whose
rows mix wirings and partition counts, next to one scalar fabric per
(row, partition), through long random broadcast/release interleavings
and compare every grant and output port along the way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SchedulingError
from repro.networks.batched_omega import BatchedMultistageRouter
from repro.networks.omega import MultistageFabric
from repro.networks.topology import make_topology

KINDS = ("OMEGA", "CUBE", "BASELINE")


def _word(bits, offset=0):
    """The word with bit ``offset + i`` set for every true ``bits[i]``."""
    return sum(1 << (offset + i) for i, bit in enumerate(bits) if bit)


def _broadcast(router, reps, requests, status):
    """Every grant of one broadcast, in wave order:
    ``{position: [(input link, output link), ...]}``."""
    grants = {}
    for positions, inputs, outputs in router.route_broadcast(
            np.asarray(reps, dtype=np.int64),
            np.array(requests, dtype=np.uint64),
            np.array(status, dtype=np.uint64)):
        assert len(set(positions.tolist())) == positions.shape[0], (
            "two grants to one row in one wave")
        for position, q, port in zip(positions.tolist(), inputs.tolist(),
                                     outputs.tolist()):
            grants.setdefault(position, []).append((q, port))
    return grants


def _broadcast_rows(data, router, fabrics, held, step):
    """One status broadcast in a random partition of a random subset of
    rows, against the scalar ascending retry loop."""
    reps, parts, requests, masks = [], [], [], []
    for k, row in enumerate(fabrics):
        if not data.draw(st.booleans(), label=f"try{step}-{k}"):
            continue
        g = data.draw(st.integers(0, len(row) - 1), label=f"g{step}-{k}")
        size = row[g].topology.size
        # The scalar fabric forbids double connects, so an input
        # holding a circuit does not wait.
        request = [int(q not in held[k][g]
                       and data.draw(st.booleans(),
                                     label=f"req{step}-{k}-{q}"))
                   for q in range(size)]
        mask = [data.draw(st.integers(0, 1), label=f"acc{step}-{k}-{port}")
                for port in range(size)]
        reps.append(k)
        parts.append(g)
        requests.append(request)
        masks.append(mask)
    if not reps:
        return
    # Partition g of a row with s-link partitions owns bits g*s .. g*s+s-1.
    grants = _broadcast(
        router, reps,
        [_word(request, g * len(request))
         for g, request in zip(parts, requests)],
        [_word(mask, g * len(mask)) for g, mask in zip(parts, masks)])
    for position, (k, g) in enumerate(zip(reps, parts)):
        fabric = fabrics[k][g]
        offset = g * fabric.topology.size
        candidates = [port for port, ok in enumerate(masks[position]) if ok]
        expected = []
        for q, waiting in enumerate(requests[position]):
            if not waiting or not candidates:
                continue
            connection = fabric.connect(q, candidates)
            if connection is not None:
                held[k][g][q] = connection
                candidates.remove(connection.output_port)
                expected.append((offset + q,
                                 offset + connection.output_port))
        assert grants.get(position, []) == expected, (
            f"row {k} partition {g} diverged at step {step}")


def _release_rows(data, router, fabrics, held, step):
    """Release one held circuit per row, for a random subset of rows."""
    reps, inputs = [], []
    for k, row in enumerate(held):
        holding = [g for g, circuits in enumerate(row) if circuits]
        if not holding or not data.draw(st.booleans(),
                                        label=f"rel{step}-{k}"):
            continue
        g = data.draw(st.sampled_from(holding), label=f"relg{step}-{k}")
        q = data.draw(st.sampled_from(sorted(row[g])),
                      label=f"relq{step}-{k}")
        fabrics[k][g].release(row[g].pop(q))
        reps.append(k)
        inputs.append(g * fabrics[k][g].topology.size + q)
    if reps:
        router.release_batch(np.array(reps, dtype=np.int64),
                             np.array(inputs, dtype=np.int64))


def _connect(router, rep, partition, q, acceptable):
    """One connect attempt from input ``q`` of a partition as wide as
    ``acceptable``: the partition-local output port or None."""
    offset = partition * len(acceptable)
    grants = _broadcast(router, [rep], [1 << (offset + q)],
                        [_word(acceptable, offset)])
    return grants[0][0][1] - offset if grants else None


class TestBatchedMultistageRouter:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_interleavings_match_scalar_fabric(self, data):
        """Random broadcast/release walks: every grant equals the scalar
        fabric's, on rows of different wirings and partition counts,
        with per-row divergent occupancy."""
        links = data.draw(st.sampled_from([4, 8, 16]), label="links")
        rows = data.draw(st.integers(1, 4), label="rows")
        wirings = []
        for k in range(rows):
            kind = data.draw(st.sampled_from(KINDS), label=f"kind{k}")
            size = data.draw(st.sampled_from(
                [size for size in (2, 4, 8, 16) if size <= links]),
                label=f"size{k}")
            wirings.append((kind, size, links // size))
        router = BatchedMultistageRouter(
            [(make_topology(kind, size), partitions)
             for kind, size, partitions in wirings])
        fabrics = [[MultistageFabric(make_topology(kind, size))
                    for _ in range(partitions)]
                   for kind, size, partitions in wirings]
        held = [[dict() for _ in row] for row in fabrics]
        steps = data.draw(st.integers(4, 20), label="steps")
        for step in range(steps):
            _release_rows(data, router, fabrics, held, step)
            _broadcast_rows(data, router, fabrics, held, step)
        # Drain everything: the planes must return to an empty fabric.
        for k, row in enumerate(held):
            for g, circuits in enumerate(row):
                for q, connection in sorted(circuits.items()):
                    fabrics[k][g].release(connection)
                    size = fabrics[k][g].topology.size
                    router.release_batch(
                        np.array([k], dtype=np.int64),
                        np.array([g * size + q], dtype=np.int64))
        assert not router._busy.any()
        assert not router._lower.any()

    def test_partitions_are_independent(self):
        """A circuit in one partition never blocks another partition."""
        topology = make_topology("OMEGA", 4)
        router = BatchedMultistageRouter([(topology, 2)] * 2)
        everything = [1] * 4
        first = [_connect(router, k, 0, 0, everything) for k in (0, 1)]
        second = [_connect(router, k, 1, 0, everything) for k in (0, 1)]
        assert None not in first and None not in second
        assert first == second
        router.release_batch(np.array([0, 1], dtype=np.int64),
                             np.zeros(2, dtype=np.int64))
        # Partition 1's links are 4..7 of each row's link plane.
        assert router._busy[:, :, :4].sum() == 0
        assert router._busy[:, :, 4:].sum() == 2 * (topology.stages + 1)

    def test_upper_output_preferred_like_the_box_hardware(self):
        """On an empty fabric the route mirrors the scalar preference for
        the upper interchange output (port 0 reaches output 0)."""
        for kind in KINDS:
            router = BatchedMultistageRouter([(make_topology(kind, 8), 1)])
            fabric = MultistageFabric(make_topology(kind, 8))
            port = _connect(router, 0, 0, 0, [1] * 8)
            connection = fabric.connect(0, range(8))
            assert port is not None and port == connection.output_port

    def test_shallow_wirings_pass_through_padding(self):
        """A 2x2-partitioned row beside a 16x16 row crosses the padded
        stages on the link it arrived on, and lands on its own port."""
        router = BatchedMultistageRouter([(make_topology("OMEGA", 16), 1),
                                          (make_topology("OMEGA", 2), 8)])
        assert router._busy.shape == (5, 2, 16)
        port = _connect(router, 1, 5, 1, [0, 1])
        assert port == 1
        # Input 1 of partition 5 is link 11; the one real stage keeps it
        # on link 11, and so does every padded stage after it.
        assert router._busy[:, 1].sum() == 5
        assert router._busy[:, 1, 11].all()
        assert not router._busy[:, 0].any()

    def test_rows_must_share_a_link_count(self):
        with pytest.raises(ConfigurationError, match="link count"):
            BatchedMultistageRouter([(make_topology("OMEGA", 4), 1),
                                     (make_topology("OMEGA", 4), 2)])

    def test_release_of_missing_circuit_is_a_router_bug(self):
        router = BatchedMultistageRouter([(make_topology("OMEGA", 4), 1)])
        with pytest.raises(SchedulingError):
            router.release_batch(np.zeros(1, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64))
