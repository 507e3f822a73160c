"""Three stationary solvers for the single-shared-bus Markov chain.

1. :func:`solve_matrix_geometric` — exact (no truncation): exploits the QBD
   structure of the chain; the tail is ``pi_{k+1} = pi_k R``.
2. :func:`solve_truncated_direct` — the paper's "(r+1)(q+1) balance
   equations solved simultaneously" reference method: truncate at a level
   and solve the global-balance system directly, growing the truncation
   until the delay converges.
3. :func:`solve_stage_recursion` — the paper's production method: choose
   elementary states at a high stage ``q + 1``, express lower stages in
   terms of higher ones by back-substitution of the balance equations
   (eq. (2)), normalize, and grow ``q`` until the delay stops increasing.

The paper reports its two methods agree to four digits; the test suite
checks all three against each other and against the M/M/1 and M/M/r
degenerate cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import AnalysisError, UnstableSystemError
from repro.markov.ctmc import FiniteCTMC
from repro.markov.qbd import drift_condition, solve_rate_matrix
from repro.markov.sbus_chain import SbusChain, SbusState


@dataclass(frozen=True)
class SbusSolution:
    """Stationary results for a single-shared-bus system."""

    chain: SbusChain
    method: str
    mean_queue_length: float
    mean_delay: float
    bus_utilization: float
    mean_busy_resources: float
    levels_used: int

    @property
    def normalized_delay(self) -> float:
        """Delay in units of the mean service time (``mu_s * d``)."""
        return self.mean_delay * self.chain.service_rate

    @property
    def resource_utilization(self) -> float:
        """Mean fraction of resources busy."""
        return self.mean_busy_resources / self.chain.resources


def check_stability(chain: SbusChain) -> float:
    """Return the mean drift of the repeating levels; raise if unstable.

    A small relative margin treats loads at (or numerically at) capacity as
    unstable: the rate-matrix iteration converges like ``sp(R)^k``, so a
    drift of -1e-16 would otherwise stall it rather than fail it.
    """
    drift = drift_condition(*chain.qbd_blocks())
    if drift >= -1e-9 * chain.arrival_rate:
        capacity = chain.arrival_rate - drift
        utilization = chain.arrival_rate / capacity if capacity > 0 else math.inf
        raise UnstableSystemError(utilization)
    return drift


# ---------------------------------------------------------------------------
# 1. Matrix-geometric (exact)
# ---------------------------------------------------------------------------

def solve_matrix_geometric(chain: SbusChain) -> SbusSolution:
    """Exact stationary solution via the QBD rate matrix R."""
    check_stability(chain)
    a0, a1, a2 = chain.qbd_blocks()
    rate_matrix = solve_rate_matrix(a0, a1, a2)

    boundary_top = chain.repeating_level  # levels 0 .. boundary_top are unknowns
    level_states: List[List[SbusState]] = [
        chain.states_at_level(k) for k in range(boundary_top + 1)
    ]
    index: Dict[SbusState, int] = {}
    for states in level_states:
        for state in states:
            index[state] = len(index)
    total = len(index)

    matrix = np.zeros((total, total))
    # Balance equations over the boundary states.
    for states in level_states:
        for state in states:
            column = index[state]
            outflow = 0.0
            for target, rate in chain.transitions(state):
                outflow += rate
                if target in index:
                    matrix[index[target], column] += rate
            matrix[column, column] -= outflow
    # Inflows from level boundary_top + 1, expressed through R.
    above_states = chain.states_at_level(boundary_top + 1)
    top_states = level_states[boundary_top]
    for above_phase, above in enumerate(above_states):
        for target, rate in chain.transitions(above):
            if target in index:
                for top_phase, top in enumerate(top_states):
                    matrix[index[target], index[top]] += (
                        rate_matrix[top_phase, above_phase] * rate
                    )
    # Replace the last equation with normalization including the tail mass.
    # Solve (I - R) against the needed right-hand sides rather than forming
    # the explicit inverse: tail_column_weights = (I - R)^{-1} 1.
    identity = np.eye(rate_matrix.shape[0])
    matrix[-1, :] = 0.0
    for states in level_states[:-1]:
        for state in states:
            matrix[-1, index[state]] = 1.0
    tail_column_weights = np.linalg.solve(identity - rate_matrix,
                                          np.ones(rate_matrix.shape[0]))
    for top_phase, top in enumerate(top_states):
        matrix[-1, index[top]] = tail_column_weights[top_phase]
    rhs = np.zeros(total)
    rhs[-1] = 1.0
    solution = np.linalg.solve(matrix, rhs)
    if solution.min() < -1e-9:
        raise AnalysisError(
            f"matrix-geometric boundary solve went negative: {solution.min():.3e}"
        )
    solution = np.clip(solution, 0.0, None)

    # Moments: boundary part.
    mean_queue = 0.0
    bus_busy_probability = 0.0
    mean_busy = 0.0
    for states in level_states:
        for state in states:
            probability = solution[index[state]]
            mean_queue += chain.queued_tasks(state) * probability
            bus_busy_probability += probability if chain.bus_busy(state) else 0.0
            mean_busy += chain.busy_resources(state) * probability
    # Moments: geometric tail (levels boundary_top + 1 and beyond).
    pi_top = np.array([solution[index[state]] for state in top_states])
    queued_top = np.array([float(chain.queued_tasks(s)) for s in top_states])
    busy_vector = np.array([float(chain.busy_resources(s)) for s in top_states])
    transmitting_vector = np.array([1.0 if chain.bus_busy(s) else 0.0
                                    for s in top_states])
    # tail_mass_vector = pi_top R (I - R)^{-1} = row weights of sum_{j>=1} R^j.
    tail_mass_vector = np.linalg.solve((identity - rate_matrix).T,
                                       rate_matrix.T @ pi_top)
    # At level boundary_top + j the queue lengths are queued_top + j.
    mean_queue += float(tail_mass_vector @ queued_top)
    # pi_top R (I - R)^{-2} 1 via the two solved vectors.
    mean_queue += float(tail_mass_vector @ tail_column_weights)
    bus_busy_probability += float(tail_mass_vector @ transmitting_vector)
    mean_busy += float(tail_mass_vector @ busy_vector)

    return SbusSolution(
        chain=chain,
        method="matrix-geometric",
        mean_queue_length=mean_queue,
        mean_delay=mean_queue / chain.arrival_rate,
        bus_utilization=bus_busy_probability,
        mean_busy_resources=mean_busy,
        levels_used=boundary_top + 1,
    )


# ---------------------------------------------------------------------------
# 2. Truncated direct global-balance solve
# ---------------------------------------------------------------------------

def solve_truncated_direct(chain: SbusChain, max_level: Optional[int] = None,
                           tolerance: float = 1e-10,
                           hard_limit: int = 200_000) -> SbusSolution:
    """Truncate the chain at a level and solve all balance equations at once.

    When ``max_level`` is omitted, the truncation grows geometrically until
    the delay changes by less than ``tolerance`` (relative).
    """
    check_stability(chain)
    if max_level is not None:
        return _solve_truncated_at(chain, max_level)
    level = max(4 * chain.resources + 16, 32)
    previous: Optional[SbusSolution] = None
    while level <= hard_limit:
        current = _solve_truncated_at(chain, level)
        if previous is not None:
            reference = max(abs(previous.mean_delay), 1e-30)
            if abs(current.mean_delay - previous.mean_delay) <= tolerance * reference:
                return current
        previous = current
        level *= 2
    raise AnalysisError(
        f"truncated solve did not converge below level {hard_limit}; "
        "the system is too close to saturation — use solve_matrix_geometric"
    )


def _solve_truncated_at(chain: SbusChain, max_level: int) -> SbusSolution:
    ctmc = FiniteCTMC(
        chain.transitions,
        initial_states=[(0, 0, 0)],
        state_filter=lambda state: chain.level(state) <= max_level,
    )
    distribution = ctmc.stationary_distribution()
    mean_queue = ctmc.expected_value(
        lambda s: float(chain.queued_tasks(s)), distribution)
    bus_utilization = ctmc.probability(chain.bus_busy, distribution)
    mean_busy = ctmc.expected_value(
        lambda s: float(chain.busy_resources(s)), distribution)
    return SbusSolution(
        chain=chain,
        method="truncated-direct",
        mean_queue_length=mean_queue,
        mean_delay=mean_queue / chain.arrival_rate,
        bus_utilization=bus_utilization,
        mean_busy_resources=mean_busy,
        levels_used=max_level,
    )


# ---------------------------------------------------------------------------
# 3. The paper's stage recursion
# ---------------------------------------------------------------------------

def solve_stage_recursion(chain: SbusChain, initial_stage: Optional[int] = None,
                          tolerance: float = 1e-12,
                          hard_limit: int = 200_000) -> SbusSolution:
    """The paper's iterative procedure (Section III).

    The states on stage ``q + 1`` are the *elementary states*: their
    probabilities are unknowns, and the probabilities above stage ``q + 1``
    are taken to be zero.  The balance equations of eq. (2) express every
    lower-stage probability as a linear combination of the elementary
    values; the remaining boundary balance equations (at the idle states
    ``(0, 0, s)``, which have no arrival predecessor) plus the
    all-probabilities-sum-to-one condition then pin the elementary values.

    ``q`` grows until the delay stops increasing — the paper's stopping
    rule.  With exact arithmetic ``d`` rises monotonically toward the true
    value as the neglected tail shrinks; the downward recursion amplifies
    round-off exponentially, so past a certain ``q`` precision is lost and
    ``d`` moves the other way.  At that point the previous answer is the
    best attainable (the paper reports 4-digit agreement with the direct
    solve; the test suite checks the same).
    """
    check_stability(chain)
    stage = initial_stage if initial_stage is not None else max(chain.resources + 2, 4)
    if stage < chain.resources + 1:
        raise AnalysisError(
            "initial stage must be at least r + 1 so that the elementary "
            "stage has the full complement of states")
    best: Optional[SbusSolution] = None
    best_error = math.inf
    previous: Optional[SbusSolution] = None
    while stage <= hard_limit:
        try:
            current = _stage_recursion_once(chain, stage)
        except AnalysisError:
            # The downward recursion overflowed: precision was exhausted
            # before the change-based rules fired.  The best-conserved
            # solution seen so far is the attainable answer.
            if best is not None and best_error < 1e-3:
                return best
            raise
        error = _conservation_error(current)
        # Flow conservation (bus throughput = resource throughput = Lambda)
        # holds exactly in the stationary solution; the round-off regime
        # that the paper detects as "d starts to decrease" violates it, so
        # it discriminates the truncation-limited answers from the
        # precision-collapsed ones.
        if error < best_error:
            best_error = error
            best = current
        elif best_error < 1e-3 and error > 1e3 * best_error:
            return best
        if previous is not None and error <= 1e-9:
            reference = max(abs(previous.mean_delay), 1e-30)
            if abs(current.mean_delay - previous.mean_delay) / reference <= tolerance:
                return current
        previous = current
        stage += 1  # the paper's procedure grows q one stage at a time
    raise AnalysisError(
        f"stage recursion did not converge below stage {hard_limit}; "
        "the system is too close to saturation — use solve_matrix_geometric"
    )


def _conservation_error(solution: SbusSolution) -> float:
    """Relative violation of the two throughput-conservation laws."""
    chain = solution.chain
    arrival = chain.arrival_rate
    bus_throughput = solution.bus_utilization * chain.transmission_rate
    resource_throughput = solution.mean_busy_resources * chain.service_rate
    return (abs(bus_throughput - arrival) + abs(resource_throughput - arrival)) / arrival


def _stage_recursion_once(chain: SbusChain, top_stage: int) -> SbusSolution:
    """One pass of the paper's method with elementary stage ``top_stage + 1``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _stage_recursion_pass(chain, top_stage)


def _stage_recursion_pass(chain: SbusChain, top_stage: int) -> SbusSolution:
    arrival_rate = chain.arrival_rate
    elementary_states = chain.states_at_level(top_stage + 1)
    basis_size = len(elementary_states)
    # Each state's probability is a linear form in the elementary values.
    coefficients: Dict[SbusState, np.ndarray] = {
        state: _unit_vector(basis_size, phase)
        for phase, state in enumerate(elementary_states)
    }
    zero = np.zeros(basis_size)

    for level in range(top_stage + 1, 0, -1):
        states_here = chain.states_at_level(level)
        states_above = chain.states_at_level(level + 1)
        inflow: Dict[SbusState, np.ndarray] = {}
        for source in states_here + states_above:
            weight = coefficients.get(source)
            if weight is None:
                continue  # above the elementary stage: taken as zero
            for target, rate in chain.transitions(source):
                if chain.level(target) in (level,) and target != source:
                    if target in inflow:
                        inflow[target] = inflow[target] + rate * weight
                    else:
                        inflow[target] = rate * weight
        for state in states_here:
            try:
                predecessor = chain.arrival_predecessor(state)
            except ValueError:
                continue  # (0, 0, k): boundary equation kept for the final solve
            outflow = sum(rate for _, rate in chain.transitions(state))
            value = (outflow * coefficients.get(state, zero)
                     - inflow.get(state, zero)) / arrival_rate
            coefficients[predecessor] = value

    # Boundary conditions: balance at every (0, 0, s) state plus
    # normalization.  One balance row is redundant; least squares absorbs it.
    rows = []
    targets = []
    for busy in range(chain.resources + 1):
        state = (0, 0, busy)
        outflow = sum(rate for _, rate in chain.transitions(state))
        row = outflow * coefficients[state]
        for source, weight in coefficients.items():
            if source == state:
                continue
            for target, rate in chain.transitions(source):
                if target == state:
                    row = row - rate * weight
        rows.append(row)
        targets.append(0.0)
    normalization = np.zeros(basis_size)
    for weight in coefficients.values():
        normalization = normalization + weight
    rows.append(normalization)
    targets.append(1.0)
    matrix = np.vstack(rows)
    if not np.all(np.isfinite(matrix)):
        raise AnalysisError(
            f"stage recursion overflowed at stage {top_stage}; "
            "reduce the stage or use solve_matrix_geometric")
    elementary, *_ = np.linalg.lstsq(matrix, np.asarray(targets), rcond=None)

    probabilities = {state: float(weight @ elementary)
                     for state, weight in coefficients.items()}
    total = sum(probabilities.values())
    if total <= 0 or not math.isfinite(total):
        raise AnalysisError("stage recursion produced a degenerate solution")
    mean_queue = 0.0
    bus_busy_probability = 0.0
    mean_busy = 0.0
    for state, weight in probabilities.items():
        probability = max(weight, 0.0) / total
        mean_queue += chain.queued_tasks(state) * probability
        bus_busy_probability += probability if chain.bus_busy(state) else 0.0
        mean_busy += chain.busy_resources(state) * probability
    return SbusSolution(
        chain=chain,
        method="stage-recursion",
        mean_queue_length=mean_queue,
        mean_delay=mean_queue / arrival_rate,
        bus_utilization=bus_busy_probability,
        mean_busy_resources=mean_busy,
        levels_used=top_stage + 1,
    )


def _unit_vector(size: int, position: int) -> np.ndarray:
    vector = np.zeros(size)
    vector[position] = 1.0
    return vector


# ---------------------------------------------------------------------------
# Convenience front-end
# ---------------------------------------------------------------------------

_METHODS = {
    "matrix-geometric": solve_matrix_geometric,
    "truncated-direct": solve_truncated_direct,
    "stage-recursion": solve_stage_recursion,
}


def solve_sbus(arrival_rate: float, transmission_rate: float, service_rate: float,
               resources: int, method: str = "matrix-geometric") -> SbusSolution:
    """Solve a single-shared-bus system with the chosen method.

    ``arrival_rate`` is the aggregate rate on the bus (``p * lambda``).
    """
    solver = _METHODS.get(method)
    if solver is None:
        raise AnalysisError(
            f"unknown method {method!r}; expected one of {sorted(_METHODS)}")
    chain = SbusChain(
        arrival_rate=arrival_rate,
        transmission_rate=transmission_rate,
        service_rate=service_rate,
        resources=resources,
    )
    return solver(chain)
