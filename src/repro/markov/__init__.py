"""Markov-chain substrate: generic CTMC, QBD tools, and the SBUS chain."""

from repro.markov.ctmc import FiniteCTMC
from repro.markov.qbd import drift_condition, geometric_tail_sums, solve_rate_matrix
from repro.markov.sbus_chain import SbusChain, SbusState
from repro.markov.solvers import (
    SbusSolution,
    check_stability,
    solve_matrix_geometric,
    solve_sbus,
    solve_stage_recursion,
    solve_truncated_direct,
)
from repro.markov.multibus_chain import (
    MultibusChain,
    MultibusSolution,
    solve_multibus,
)

__all__ = [
    "FiniteCTMC",
    "SbusChain",
    "SbusState",
    "SbusSolution",
    "check_stability",
    "solve_sbus",
    "solve_matrix_geometric",
    "solve_truncated_direct",
    "solve_stage_recursion",
    "solve_rate_matrix",
    "drift_condition",
    "geometric_tail_sums",
    "MultibusChain",
    "MultibusSolution",
    "solve_multibus",
]
