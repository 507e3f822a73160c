"""Gate-level model of the distributed-scheduling crossbar cell (Section IV).

Each cell ``C(i, j)`` couples processor row ``i`` with bus column ``j`` and
contains one control latch plus combinational logic (eleven gates in the
paper's realization).  Signals:

* ``X`` — travels left-to-right along a row.  Request mode: "processor i is
  still searching for a free resource".  Reset mode: "processor i is
  relinquishing its resource(s)".
* ``Y`` — travels top-to-bottom along a column.  "Bus j is free and a free
  resource hangs on bus j; a new request can be accepted."
* ``S`` / ``R`` — set/reset the cell's latch.  A set latch connects row i to
  column j and blocks the Y signal for lower rows.

Truth table (Table I of the paper; the ``X=0, Y=1`` request-mode row passes
``Y`` only when the latch is off — a processor that connected earlier must
not look like an available bus to the rows below it)::

    MODE     X  Y  |  X'  Y'          S  R
    request  0  0  |  0   0           0  0
    request  0  1  |  0   not latch   0  0
    request  1  0  |  1   0           0  0
    request  1  1  |  0   0           1  0
    reset    0  0  |  0   0           0  0
    reset    0  1  |  0   1           0  0
    reset    1  0  |  1   0           0  1
    reset    1  1  |  1   1           0  1

Signals settle in a 45-degree wavefront from the top-left cell to the
bottom-right one, so a request cycle takes at most ``4 (p + m)`` gate
delays (4 gate levels per cell) and a reset cycle at most ``p + m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, SchedulingError

#: Gate levels a signal crosses inside one cell, per mode (paper's design).
REQUEST_GATE_DELAY = 4
RESET_GATE_DELAY = 1

MODE_REQUEST = "request"
MODE_RESET = "reset"


def cell_logic(mode: str, x: int, y: int,
               latch: bool) -> Tuple[int, int, int, int]:
    """Combinational function of one cell: ``(x_next, y_next, set, reset)``."""
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError(f"signals must be 0/1, got X={x} Y={y}")
    if mode == MODE_REQUEST:
        if x and y:
            return 0, 0, 1, 0
        if x:
            return 1, 0, 0, 0
        if y:
            return 0, 0 if latch else 1, 0, 0
        return 0, 0, 0, 0
    if mode == MODE_RESET:
        return x, y, 0, x
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one request or reset cycle."""

    granted: Dict[int, int]          # processor row -> bus column newly latched
    unsatisfied: Set[int]            # rows whose X fell off the right edge
    unallocated: Set[int]            # columns whose Y fell off the bottom edge
    gate_delays: int                 # settle time of the wavefront


class DistributedCrossbar:
    """A ``p x m`` crossbar whose cells schedule resources themselves.

    The switch alternates between *request* and *reset* cycles (a single
    MODE line selects which).  The model evaluates the combinational
    wavefront exactly and tracks worst-path gate delays, reproducing the
    paper's ``4 (p + m)`` / ``(p + m)`` cycle-length bounds.
    """

    def __init__(self, processors: int, buses: int):
        if processors < 1 or buses < 1:
            raise ConfigurationError(
                f"crossbar needs positive dimensions, got {processors}x{buses}")
        self.processors = processors
        self.buses = buses
        self._latch = [[False] * buses for _ in range(processors)]

    # -- state inspection ----------------------------------------------------
    def latch(self, row: int, column: int) -> bool:
        """Whether cell ``(row, column)`` currently connects row to column."""
        return self._latch[row][column]

    def connections(self) -> Dict[int, int]:
        """Current row -> column latched connections."""
        found: Dict[int, int] = {}
        for row in range(self.processors):
            for column in range(self.buses):
                if self._latch[row][column]:
                    if row in found:
                        raise SchedulingError(
                            f"row {row} latched to two columns (hardware bug)")
                    found[row] = column
        return found

    # -- cycles ------------------------------------------------------------
    def request_cycle(self, requesting_rows: Sequence[int],
                      available_columns: Sequence[int]) -> CycleResult:
        """Run one request cycle.

        ``requesting_rows`` raise ``X = 1`` at the left edge;
        ``available_columns`` raise ``Y = 1`` at the top edge (bus free and
        a free resource attached).  Returns the newly latched pairs, the
        rows whose request came out unsatisfied at ``X(i, m)``, and the
        columns whose availability survived to ``Y(p, j)``.
        """
        self._validate_rows(requesting_rows)
        self._validate_columns(available_columns)
        x = [[0] * (self.buses + 1) for _ in range(self.processors)]
        y = [[0] * self.buses for _ in range(self.processors + 1)]
        x_time = [[0] * (self.buses + 1) for _ in range(self.processors)]
        y_time = [[0] * self.buses for _ in range(self.processors + 1)]
        for row in requesting_rows:
            x[row][0] = 1
        for column in available_columns:
            y[0][column] = 1
        granted: Dict[int, int] = {}
        for row in range(self.processors):
            for column in range(self.buses):
                x_next, y_next, set_latch, _reset = cell_logic(
                    MODE_REQUEST, x[row][column], y[row][column],
                    self._latch[row][column])
                x[row][column + 1] = x_next
                y[row + 1][column] = y_next
                settle = max(x_time[row][column], y_time[row][column]) + REQUEST_GATE_DELAY
                x_time[row][column + 1] = settle
                y_time[row + 1][column] = settle
                if set_latch:
                    if self._latch[row][column]:
                        raise SchedulingError(
                            f"cell ({row}, {column}) set while already latched")
                    self._latch[row][column] = True
                    granted[row] = column
        unsatisfied = {row for row in range(self.processors) if x[row][self.buses]}
        unallocated = {column for column in range(self.buses)
                       if y[self.processors][column]}
        worst = max(
            max(x_time[row][self.buses] for row in range(self.processors)),
            max(y_time[self.processors][column] for column in range(self.buses)),
        )
        return CycleResult(granted=granted, unsatisfied=unsatisfied,
                           unallocated=unallocated, gate_delays=worst)

    def reset_cycle(self, resetting_rows: Sequence[int]) -> CycleResult:
        """Run one reset cycle: every latch on a resetting row is cleared."""
        self._validate_rows(resetting_rows)
        released: Dict[int, int] = {}
        for row in resetting_rows:
            for column in range(self.buses):
                if self._latch[row][column]:
                    self._latch[row][column] = False
                    released[row] = column
        # The reset wavefront is a single gate level per cell.
        worst = RESET_GATE_DELAY * (self.processors + self.buses)
        return CycleResult(granted=released, unsatisfied=set(),
                           unallocated=set(), gate_delays=worst)

    # -- validation ------------------------------------------------------------
    def _validate_rows(self, rows: Sequence[int]) -> None:
        for row in rows:
            if not 0 <= row < self.processors:
                raise SchedulingError(f"row {row} out of range")

    def _validate_columns(self, columns: Sequence[int]) -> None:
        for column in columns:
            if not 0 <= column < self.buses:
                raise SchedulingError(f"column {column} out of range")


def priority_match(requesting_rows: Sequence[int],
                   available_columns: Sequence[int],
                   occupied_columns: Optional[Set[int]] = None) -> Dict[int, int]:
    """Closed form of the hardware's asymmetric allocation.

    Rows are served lowest-index first; each takes the lowest-index
    available column that no smaller row claimed.  This is exactly what the
    wavefront computes (a unit test asserts the equivalence), and what makes
    the design favour processors "located closer to the resources".
    """
    taken: Set[int] = set(occupied_columns or ())
    assignment: Dict[int, int] = {}
    columns = sorted(set(available_columns) - taken)
    for row in sorted(set(requesting_rows)):
        if not columns:
            break
        assignment[row] = columns.pop(0)
    return assignment
