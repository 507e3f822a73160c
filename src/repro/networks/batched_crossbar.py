"""Batched crossbar dispatch: priority matching on request and status words.

The scalar :class:`~repro.networks.cells.DistributedCrossbar` settles each
request cycle with one Python call per cell — ``O(p * m)`` interpreter
round-trips per cycle, per replication.  The lockstep replication engine
(:mod:`repro.sim.batched`) needs only the cycle's *grants*, and keeps the
two bit vectors Wah's crossbar schedules from as one 64-bit word each per
row: the processors' request lines and the ports' status lines.  The
lowest requesting processor takes the lowest acceptable port, so the
matcher pairs each row's lowest set bits, clears them and repeats.  It
mirrors the scalar :func:`~repro.networks.cells.priority_match` duality —
the wavefront is the hardware model, the word matcher the cheap hot path
— and a property test pins :func:`match_pairs_batch` to both on
randomized words.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.typing import NDArray

_Words = NDArray[np.uint64]

#: Processors or ports a request or status word holds.
WORD_BITS = 64

_ONE = np.uint64(1)


def _bit_index(bits: _Words) -> np.ndarray:
    """``i`` for each word ``2**i``: ``frexp`` gives ``0.5 * 2**(i + 1)``
    (a power of two converts to ``float64`` exactly)."""
    return np.frexp(bits.astype(np.float64))[1].astype(np.int64) - 1


def match_pairs_batch(requests: _Words, status: _Words
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Priority matching of one request word and one status word per row.

    The closed form of :func:`repro.networks.cells.priority_match` for
    every row at once: within each row the k-th set bit of ``requests``
    (a waiting processor, ascending) takes the k-th set bit of ``status``
    (an acceptable port), for ``k < min(#requests, #ports)`` — exactly
    what the wavefront computes when no latch blocks the Y edge.  Each
    round pairs the lowest set bits of the rows that still have both; a
    settled partition that one event disturbed has one pair at most, so
    the lockstep engine's calls finish in one round.  Returns the matched
    ``(rows, processors, ports)`` index triples, row-major and
    processor-ascending within each row — the order the scalar broadcast
    dispatches in.
    """
    rows = np.nonzero((requests != 0) & (status != 0))[0]
    requests, status = requests[rows], status[rows]
    rounds: List[Tuple[np.ndarray, _Words, _Words]] = []
    while True:
        # ``w & (~w + 1)`` keeps each word's lowest set bit.
        low_requests = requests & (~requests + _ONE)
        low_status = status & (~status + _ONE)
        rounds.append((rows, low_requests, low_status))
        requests, status = requests ^ low_requests, status ^ low_status
        again = (requests != 0) & (status != 0)
        if not again.any():
            break
        rows, requests, status = rows[again], requests[again], status[again]
    if len(rounds) > 1:
        # Round r takes each row's r-th pair, so a stable sort by row
        # leaves every row's pairs processor-ascending.
        rows, low_requests, low_status = (
            np.concatenate(column) for column in zip(*rounds))
        order = np.argsort(rows, kind="stable")
        rows, low_requests, low_status = (
            rows[order], low_requests[order], low_status[order])
    return rows, _bit_index(low_requests), _bit_index(low_status)
