"""Lockstep tests for the batched multistage router.

The batched router's single contract is equivalence with the scalar
fabric it replaces: :class:`BatchedMultistageRouter` must grant, route,
and release exactly like :class:`MultistageFabric` on every wiring the
grammar admits.  The hypothesis tests below advance K scalar fabrics
and one K-row router through long random connect/release interleavings
and compare every grant and output port along the way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.networks.batched_omega import BatchedMultistageRouter
from repro.networks.omega import MultistageFabric
from repro.networks.topology import make_topology

KINDS = ("OMEGA", "CUBE", "BASELINE")


def _connect_rows(data, router, fabrics, held, q, step):
    """One connect attempt from input ``q`` on a random subset of rows."""
    size = router.topology.size
    reps, masks = [], []
    for k in range(len(fabrics)):
        if q in held[k]:
            continue  # the scalar fabric forbids double connects
        if not data.draw(st.booleans(), label=f"try{step}-{k}"):
            continue
        mask = np.array([data.draw(st.integers(0, 1),
                                   label=f"acc{step}-{k}-{port}")
                         for port in range(size)], dtype=np.uint8)
        reps.append(k)
        masks.append(mask)
    if not reps:
        return
    reps_array = np.array(reps, dtype=np.int64)
    granted, out_ports = router.connect_batch(reps_array, 0, q,
                                              np.stack(masks))
    cursor = 0
    for position, k in enumerate(reps):
        candidates = [port for port in range(size) if masks[position][port]]
        connection = fabrics[k].connect(q, candidates)
        if connection is None:
            assert not granted[position], f"row {k} over-granted at {q}"
        else:
            assert granted[position], f"row {k} under-granted at {q}"
            assert int(out_ports[cursor]) == connection.output_port
            held[k][q] = connection
        cursor += granted[position]


def _release_rows(data, router, fabrics, held, step):
    """Release one held circuit per row, for a random subset of rows."""
    reps, inputs = [], []
    for k in range(len(fabrics)):
        if not held[k] or not data.draw(st.booleans(),
                                        label=f"rel{step}-{k}"):
            continue
        q = data.draw(st.sampled_from(sorted(held[k])),
                      label=f"relq{step}-{k}")
        fabrics[k].release(held[k].pop(q))
        reps.append(k)
        inputs.append(q)
    if reps:
        zeros = np.zeros(len(reps), dtype=np.int64)
        router.release_batch(np.array(reps, dtype=np.int64), zeros,
                             np.array(inputs, dtype=np.int64))


class TestBatchedMultistageRouter:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_interleavings_match_scalar_fabric(self, data):
        """Random connect/release walks: every grant equals the scalar
        fabric's, on every wiring, with per-row divergent occupancy."""
        kind = data.draw(st.sampled_from(KINDS), label="kind")
        size = data.draw(st.sampled_from([2, 4, 8]), label="size")
        rows = data.draw(st.integers(1, 4), label="rows")
        router = BatchedMultistageRouter(make_topology(kind, size),
                                         rows=rows)
        fabrics = [MultistageFabric(make_topology(kind, size))
                   for _ in range(rows)]
        held = [dict() for _ in range(rows)]
        steps = data.draw(st.integers(4, 20), label="steps")
        for step in range(steps):
            _release_rows(data, router, fabrics, held, step)
            q = data.draw(st.integers(0, size - 1), label=f"q{step}")
            _connect_rows(data, router, fabrics, held, q, step)
        # Drain everything: the planes must return to an empty fabric.
        for k, circuits in enumerate(held):
            for q, connection in sorted(circuits.items()):
                fabrics[k].release(connection)
                router.release_batch(np.array([k], dtype=np.int64),
                                     np.zeros(1, dtype=np.int64),
                                     np.array([q], dtype=np.int64))
        assert router._busy.sum() == 0
        assert router._engaged.sum() == 0
        assert router._taken.sum() == 0
        assert (router._path_out == -1).all()

    def test_partitions_are_independent(self):
        """A circuit in one partition never blocks another partition."""
        topology = make_topology("OMEGA", 4)
        router = BatchedMultistageRouter(topology, rows=2, partitions=2)
        reps = np.array([0, 1], dtype=np.int64)
        everything = np.ones((2, 4), dtype=np.uint8)
        granted, first = router.connect_batch(reps, 0, 0, everything)
        assert granted.all()
        granted, second = router.connect_batch(reps, 1, 0, everything)
        assert granted.all()
        assert first.tolist() == second.tolist()
        router.release_batch(reps, np.zeros(2, dtype=np.int64),
                             np.zeros(2, dtype=np.int64))
        assert router._busy[:, 0].sum() == 0
        assert router._busy[:, 1].sum() == 2 * (topology.stages + 1)

    def test_upper_output_preferred_like_the_box_hardware(self):
        """On an empty fabric the route mirrors the scalar preference for
        the upper interchange output (port 0 reaches output 0)."""
        for kind in KINDS:
            router = BatchedMultistageRouter(make_topology(kind, 8), rows=1)
            fabric = MultistageFabric(make_topology(kind, 8))
            granted, ports = router.connect_batch(
                np.array([0], dtype=np.int64), 0, 0,
                np.ones((1, 8), dtype=np.uint8))
            connection = fabric.connect(0, range(8))
            assert granted[0] and int(ports[0]) == connection.output_port

    def test_release_of_missing_circuit_is_a_router_bug(self):
        router = BatchedMultistageRouter(make_topology("OMEGA", 4), rows=1)
        with pytest.raises(SchedulingError):
            router.release_batch(np.zeros(1, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64))
