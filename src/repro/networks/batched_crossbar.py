"""Batched crossbar dispatch: priority matching over many replications.

The scalar :class:`~repro.networks.cells.DistributedCrossbar` settles each
request cycle with one Python call per cell — ``O(p * m)`` interpreter
round-trips per cycle, per replication.  The lockstep replication engine
(:mod:`repro.sim.batched`) needs only the cycle's *grants*, so this module
computes them in closed form for a whole batch at once: the lowest
requesting row takes the lowest available column not claimed by a smaller
row, vectorized by rank pairing.  It mirrors the scalar
:func:`~repro.networks.cells.priority_match` duality — the wavefront is
the hardware model, the ranked matcher the cheap hot path — and a
property test pins :func:`match_pairs_batch` to both on randomized
batches.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import SchedulingError


def match_pairs_batch(requesting: np.ndarray, available: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-paired priority matching over a ``(R, p)`` / ``(R, m)`` batch.

    The vectorized closed form of :func:`repro.networks.cells.priority_match`
    for every replication at once: within each replication the k-th
    requesting row (in ascending index order) takes the k-th available
    column, for ``k < min(#requests, #available)`` — exactly what the
    wavefront computes when no latch blocks the Y edge.  Returns the
    matched ``(replications, rows, columns)`` index triples,
    replication-major and row-ascending within each replication — the
    order the scalar broadcast dispatches in, and the layout the lockstep
    engine consumes directly (no dense grant cube in its hot path).
    """
    row_rank = requesting.cumsum(axis=1, dtype=np.int64)
    col_rank = available.cumsum(axis=1, dtype=np.int64)
    matched = np.minimum(row_rank[:, -1:], col_rank[:, -1:])
    row_take = (requesting != 0) & (row_rank <= matched)
    col_take = (available != 0) & (col_rank <= matched)
    rep_rows, rows = np.nonzero(row_take)
    rep_cols, cols = np.nonzero(col_take)
    # nonzero is row-major: entries come back replication-major and
    # ascending within a replication, so the k-th taken row and the k-th
    # taken column of each replication line up positionally.
    if rep_rows.shape != rep_cols.shape or (rep_rows != rep_cols).any():
        raise SchedulingError("rank pairing desynchronized (kernel bug)")
    return rep_rows, rows, cols
