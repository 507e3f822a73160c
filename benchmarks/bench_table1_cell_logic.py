"""E8 — Table I: the distributed-scheduling crossbar cell.

Regenerates the truth table of Table I by driving the gate-level cell
through every input combination in both modes, and verifies the cycle
timing bounds of Section IV: a request cycle settles within ``4 (p + m)``
gate delays and a reset cycle within ``p + m``.
"""

import itertools

from repro.networks import (
    MODE_REQUEST,
    MODE_RESET,
    REQUEST_GATE_DELAY,
    RESET_GATE_DELAY,
    DistributedCrossbar,
    cell_logic,
    priority_match,
)

#: Table I verbatim: (mode, X, Y) -> (X', Y', S, R); the request-mode
#: X=0,Y=1 row depends on the latch (paper's L term), so it is listed per
#: latch state.
TABLE_I = {
    (MODE_REQUEST, 0, 0, False): (0, 0, 0, 0),
    (MODE_REQUEST, 0, 1, False): (0, 1, 0, 0),
    (MODE_REQUEST, 0, 1, True): (0, 0, 0, 0),
    (MODE_REQUEST, 1, 0, False): (1, 0, 0, 0),
    (MODE_REQUEST, 1, 1, False): (0, 0, 1, 0),
    (MODE_RESET, 0, 0, False): (0, 0, 0, 0),
    (MODE_RESET, 0, 1, False): (0, 1, 0, 0),
    (MODE_RESET, 1, 0, False): (1, 0, 0, 1),
    (MODE_RESET, 1, 1, False): (1, 1, 0, 1),
}


def full_truth_table():
    rows = {}
    for mode, x, y, latch in itertools.product(
            (MODE_REQUEST, MODE_RESET), (0, 1), (0, 1), (False, True)):
        rows[(mode, x, y, latch)] = cell_logic(mode, x, y, latch)
    return rows


def test_table1_truth_table(once):
    rows = once(full_truth_table)
    print()
    print("  MODE     X Y latch | X' Y' S R")
    for (mode, x, y, latch), outputs in sorted(rows.items()):
        print(f"  {mode:<8} {x} {y} {int(latch)}     | "
              f"{outputs[0]}  {outputs[1]}  {outputs[2]} {outputs[3]}")
    for key, expected in TABLE_I.items():
        assert rows[key] == expected, key


def test_table1_request_cycle_timing(once):
    """Max request-cycle length is 4 (p + m) gate delays."""
    def worst_case_settle(p, m):
        switch = DistributedCrossbar(p, m)
        return switch.request_cycle(list(range(p)), list(range(m))).gate_delays

    settle = once(worst_case_settle, 16, 32)
    assert settle <= REQUEST_GATE_DELAY * (16 + 32)
    assert settle >= REQUEST_GATE_DELAY * 16  # the wavefront crosses p rows


def test_table1_reset_cycle_timing(once):
    def reset_settle(p, m):
        switch = DistributedCrossbar(p, m)
        switch.request_cycle(list(range(p)), list(range(m)))
        return switch.reset_cycle(list(range(p))).gate_delays

    settle = once(reset_settle, 16, 32)
    assert settle == RESET_GATE_DELAY * (16 + 32)


def test_table1_wavefront_equals_closed_form(once):
    """The hardware allocation equals the asymmetric greedy matching on a
    batch of mixed requests/availabilities."""
    def both(p, m):
        switch = DistributedCrossbar(p, m)
        requests = [0, 2, 3, 7, 9, 12]
        available = [1, 4, 5, 10]
        hardware = switch.request_cycle(requests, available).granted
        return hardware, priority_match(requests, available)

    hardware, closed_form = once(both, 16, 16)
    assert hardware == closed_form
