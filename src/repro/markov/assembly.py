"""Sweep-aware parametric CTMC assembly: the ``Q(lam) = A + lam*B`` fast path.

Every delay figure in the paper sweeps arrival intensity over a chain whose
*structure* is fixed: the reachable states, the generator sparsity, and the
per-state metrics depend only on the chain shape (``mu_n``, ``mu_s`` and
the resource counts), while the arrival rate ``lam`` merely scales a fixed
set of transition entries.  The reference solvers rebuild and re-explore
everything per point; this module assembles the structure **once per chain
shape** and caches it:

* the reachable (truncated) state space and its index,
* the transposed generator split as ``Q(lam)^T = A^T + lam * B^T`` on one
  shared sparsity pattern — a sweep point is a single vectorized data
  update, not a Python re-exploration, and
* per-state metric vectors (queued / busy / transmitting), so moments are
  dot products instead of per-state Python loops.

Per-point solves are **warm-started**: the previous point's stationary
vector is the initial guess for an LU-preconditioned Richardson refinement
whose factorization is reused across nearby sweep points; when refinement
does not converge (the first point, or a large jump in ``lam``) the solver
falls back to a fresh sparse factorization on the same CSR pattern —
:func:`scipy.sparse.linalg.splu`, the workhorse behind ``spsolve``.  Both
acceptance paths satisfy the same residual bound, so the fast path is
numerically interchangeable with the dense reference solve; the test suite
pins agreement to 1e-10 across a (p, m, r, mu) grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.markov.multibus_chain import MultibusChain, MultibusSolution, MultibusState
from repro.markov.sbus_chain import SbusChain, SbusState
from repro.markov.solvers import SbusSolution, check_stability, solve_matrix_geometric

State = Hashable
TransitionFn = Callable[[State], Iterable[Tuple[State, float]]]


class ParametricAssembly:
    """``Q(lam) = A + lam * B`` over a fixed (truncated) state space.

    ``base_fn`` supplies the arrival-independent transitions (completions),
    ``arrival_fn`` the per-unit-``lam`` coefficients (a chain instantiated
    with ``arrival_rate=1`` yields exactly those).  The reachable space is
    explored once over the *union* graph — reachability does not depend on
    the positive value of ``lam`` — and the transposed generator is stored
    as two aligned data arrays on one shared sparsity pattern.

    The balance system ``Q(lam)^T pi = 0`` is normalized by *pinning* the
    probability of state 0 (the BFS seed — the empty system, which carries
    non-negligible mass for every stable load) instead of replacing a
    balance row with the dense all-ones normalization row: with
    ``pi_0 = 1`` fixed, the remaining probabilities solve the reduced
    sparse system ``M(lam) x = rhs(lam)`` where ``M`` is ``Q^T`` with row
    and column 0 removed and ``rhs = -Q^T[1:, 0]``.  Dropping the dense
    row preserves the chain's banded QBD structure, which keeps sparse LU
    fill-in (and hence factorization time) linear in the state count; the
    final distribution is ``[1, x]`` renormalized.
    """

    def __init__(self, states: List[State], index: Dict[State, int],
                 indptr: np.ndarray, indices: np.ndarray,
                 a_data: np.ndarray, b_data: np.ndarray,
                 rhs_a: np.ndarray, rhs_b: np.ndarray):
        self.states = states
        self.index = index
        self._indptr = indptr
        self._indices = indices
        self._a_data = a_data
        self._b_data = b_data
        self._rhs_a = rhs_a
        self._rhs_b = rhs_b
        from scipy import sparse

        size = len(states) - 1
        # Persistent matrices on the shared pattern: a sweep point only
        # rewrites ``data`` in place, never re-runs the sparse constructors.
        self._csr = sparse.csr_matrix(
            (a_data.copy(), indices, indptr), shape=(size, size))
        csc_a = sparse.csr_matrix(
            (a_data, indices, indptr), shape=(size, size)).tocsc()
        csc_b = sparse.csr_matrix(
            (b_data, indices, indptr), shape=(size, size)).tocsc()
        self._csc_a_data = csc_a.data
        self._csc_b_data = csc_b.data
        self._csc = csc_a.copy()
        self._rhs = np.empty(size)

    @property
    def num_states(self) -> int:
        """Size of the reachable (possibly truncated) state space."""
        return len(self.states)

    @property
    def nnz(self) -> int:
        """Stored entries of the shared (reduced-system) sparsity pattern."""
        return len(self._indices)

    @classmethod
    def explore(cls, base_fn: TransitionFn, arrival_fn: TransitionFn,
                initial_states: Iterable[State],
                state_filter: Optional[Callable[[State], bool]] = None,
                ) -> "ParametricAssembly":
        """Breadth-first assembly of the split generator from seed states."""
        states: List[State] = []
        index: Dict[State, int] = {}
        queue: deque[State] = deque()
        for state in initial_states:
            if state not in index:
                index[state] = len(states)
                states.append(state)
                queue.append(state)
        if not states:
            raise AnalysisError("empty state space")
        # (row, col) of the *transposed* generator -> [base, arrival] values.
        entries: Dict[Tuple[int, int], List[float]] = {}
        while queue:
            state = queue.popleft()
            source = index[state]
            diagonal = entries.setdefault((source, source), [0.0, 0.0])
            for part, transition_fn in ((0, base_fn), (1, arrival_fn)):
                for target, rate in transition_fn(state):
                    if rate < 0:
                        raise AnalysisError(
                            f"negative rate {rate} from state {state!r}")
                    if rate == 0 or target == state:
                        continue
                    if state_filter is not None and not state_filter(target):
                        continue
                    if target not in index:
                        index[target] = len(states)
                        states.append(target)
                        queue.append(target)
                    entry = entries.setdefault((index[target], source),
                                               [0.0, 0.0])
                    entry[part] += float(rate)
                    diagonal[part] -= float(rate)
        total = len(states)
        if total == 1:
            empty = np.zeros(0)
            return cls(states, index, np.zeros(1, dtype=np.int32),
                       np.zeros(0, dtype=np.int32), empty, empty.copy(),
                       empty.copy(), empty.copy())
        # Pin pi_0 = 1: drop balance row 0, move column 0 to the right-hand
        # side, and keep the (sparse, band-structured) remainder.
        rhs_a = np.zeros(total - 1)
        rhs_b = np.zeros(total - 1)
        reduced: List[Tuple[Tuple[int, int], List[float]]] = []
        for (row, column), value in entries.items():
            if row == 0:
                continue
            if column == 0:
                rhs_a[row - 1] = -value[0]
                rhs_b[row - 1] = -value[1]
            else:
                reduced.append(((row - 1, column - 1), value))
        reduced.sort()
        rows = np.fromiter((key[0] for key, _value in reduced),
                           dtype=np.int64, count=len(reduced))
        indices = np.fromiter((key[1] for key, _value in reduced),
                              dtype=np.int32, count=len(reduced))
        a_data = np.fromiter((value[0] for _key, value in reduced),
                             dtype=np.float64, count=len(reduced))
        b_data = np.fromiter((value[1] for _key, value in reduced),
                             dtype=np.float64, count=len(reduced))
        counts = np.bincount(rows, minlength=total - 1)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        return cls(states, index, indptr, indices, a_data, b_data,
                   rhs_a, rhs_b)

    def reduced_system(self, arrival_rate: float) -> Tuple[Any, np.ndarray]:
        """``(M(lam), rhs(lam))`` of the pinned balance system.

        Returns a persistent CSR matrix and vector whose storage is
        overwritten in place — callers must not hold them across calls
        with different rates.
        """
        if arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive: {arrival_rate}")
        data = self._csr.data
        np.multiply(self._b_data, arrival_rate, out=data)
        data += self._a_data
        np.multiply(self._rhs_b, arrival_rate, out=self._rhs)
        self._rhs += self._rhs_a
        return self._csr, self._rhs

    def reduced_system_csc(self, arrival_rate: float) -> Any:
        """``M(lam)`` in CSC form, for factorization (same in-place rule)."""
        if arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive: {arrival_rate}")
        data = self._csc.data
        np.multiply(self._csc_b_data, arrival_rate, out=data)
        data += self._csc_a_data
        return self._csc

    def value_vector(self, value_fn: Callable[[State], float]) -> np.ndarray:
        """``[value_fn(state) for state in states]`` as a float vector."""
        return np.fromiter((float(value_fn(state)) for state in self.states),
                           dtype=np.float64, count=self.num_states)


@dataclass
class SolveStats:
    """How a sweep's per-point solves were satisfied (for benches/tests)."""

    points: int = 0
    warm_accepts: int = 0
    factorizations: int = 0
    refinement_iterations: int = 0


class StationarySweepSolver:
    """Warm-started stationary solves over one :class:`ParametricAssembly`.

    Warm-start policy: the previous point's reduced solution is the
    initial guess for Richardson refinement preconditioned by the last LU
    factorization (``x <- x + P^-1 (b - M x)`` with ``P = LU(M(lam0))``);
    an iterate is accepted only when the residual drops below
    ``residual_tol``, so accuracy never depends on how warm the start was.
    The factorization is refreshed adaptively: when the previous solve
    needed more than ``refactor_after`` refinement iterations (the
    contraction rate degrades as ``lam`` drifts from the factored point),
    or when ``lam`` jumped more than ``refactor_gap`` (relative), the next
    point refactors up front.  A fresh
    :func:`~scipy.sparse.linalg.splu` factorization on the reused CSC
    pattern is the fallback whenever refinement is unavailable or fails.
    """

    def __init__(self, assembly: ParametricAssembly,
                 residual_tol: float = 1e-13, max_refinements: int = 12,
                 refactor_after: int = 5, refactor_gap: float = 0.5):
        self.assembly = assembly
        self.residual_tol = residual_tol
        self.max_refinements = max_refinements
        self.refactor_after = refactor_after
        self.refactor_gap = refactor_gap
        self.stats = SolveStats()
        self._warm: Optional[np.ndarray] = None
        self._lu: Any = None
        self._lu_arrival_rate: Optional[float] = None
        self._last_iterations = 0

    @property
    def warm(self) -> Optional[np.ndarray]:
        """The most recent reduced solution (the next solve's guess)."""
        return self._warm

    def seed(self, warm: np.ndarray) -> None:
        """Install an initial guess for the reduced system (``pi[1:]/pi[0]``,
        e.g. mapped from a coarser truncation level)."""
        if len(warm) != self.assembly.num_states - 1:
            raise ConfigurationError(
                f"warm vector has {len(warm)} entries for "
                f"{self.assembly.num_states - 1} reduced unknowns")
        self._warm = np.asarray(warm, dtype=np.float64)

    def solve(self, arrival_rate: float) -> np.ndarray:
        """The stationary distribution of ``Q(arrival_rate)``."""
        size = self.assembly.num_states
        if size == 1:
            return np.array([1.0])
        matrix, rhs = self.assembly.reduced_system(arrival_rate)
        reduced = self._refine(matrix, arrival_rate, rhs)
        if reduced is None:
            from scipy.sparse.linalg import splu

            self._lu = splu(self.assembly.reduced_system_csc(arrival_rate))
            self._lu_arrival_rate = arrival_rate
            self._last_iterations = 0
            self.stats.factorizations += 1
            reduced = self._lu.solve(rhs)
        self._warm = reduced
        solution = np.empty(size)
        solution[0] = 1.0
        solution[1:] = reduced
        solution = self._validate(solution)
        self.stats.points += 1
        return solution

    def _refine(self, matrix: Any, arrival_rate: float,
                rhs: np.ndarray) -> Optional[np.ndarray]:
        if self._warm is None or self._lu is None \
                or self._lu_arrival_rate is None:
            return None
        if self._last_iterations > self.refactor_after:
            return None
        gap = abs(arrival_rate - self._lu_arrival_rate)
        if gap > self.refactor_gap * max(arrival_rate, self._lu_arrival_rate):
            return None
        iterate = self._warm
        for iteration in range(1, self.max_refinements + 1):
            residual = rhs - matrix @ iterate
            self.stats.refinement_iterations += 1
            if float(np.max(np.abs(residual))) <= self.residual_tol:
                self.stats.warm_accepts += 1
                self._last_iterations = iteration
                return iterate
            iterate = iterate + self._lu.solve(residual)
        return None

    @staticmethod
    def _validate(solution: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(solution)):
            raise AnalysisError("stationary solve produced non-finite values")
        if solution.min() < -1e-8:
            raise AnalysisError(
                "stationary solve produced negative probability "
                f"{solution.min():.3e}")
        solution = np.clip(solution, 0.0, None)
        total = solution.sum()
        if not np.isfinite(total) or total <= 0:
            raise AnalysisError("stationary distribution does not normalize")
        return solution / total


# ---------------------------------------------------------------------------
# SBUS sweep solver
# ---------------------------------------------------------------------------


@dataclass
class _SbusLevel:
    """Cached structure for one truncation level of an SBUS shape."""

    assembly: ParametricAssembly
    solver: StationarySweepSolver
    queued: np.ndarray
    transmitting: np.ndarray
    busy: np.ndarray


class SbusSweepSolver:
    """Sweep-reusable SBUS solver: fixed ``(mu_n, mu_s, r)``, varying Lambda.

    Mirrors :func:`repro.markov.solvers.solve_truncated_direct`'s growing
    truncation, but assembles each level's parametric structure once and
    warm-starts every per-point solve.  Points too close to saturation for
    the truncation budget fall back to the exact matrix-geometric solver
    instead of failing, so a sweep never dies on its last stable point.
    """

    def __init__(self, transmission_rate: float, service_rate: float,
                 resources: int, tolerance: float = 1e-10,
                 hard_limit: int = 200_000):
        self._template = SbusChain(arrival_rate=1.0,
                                   transmission_rate=transmission_rate,
                                   service_rate=service_rate,
                                   resources=resources)
        self.tolerance = tolerance
        self.hard_limit = hard_limit
        self._levels: Dict[int, _SbusLevel] = {}
        self._start_level = max(4 * resources + 16, 32)

    def _chain(self, arrival_rate: float) -> SbusChain:
        template = self._template
        return SbusChain(arrival_rate=arrival_rate,
                         transmission_rate=template.transmission_rate,
                         service_rate=template.service_rate,
                         resources=template.resources)

    def _level(self, max_level: int) -> _SbusLevel:
        context = self._levels.get(max_level)
        if context is None:
            template = self._template
            assembly = ParametricAssembly.explore(
                template.completion_transitions,
                template.arrival_transitions,
                [(0, 0, 0)],
                state_filter=lambda state: (
                    template.level(state) <= max_level),  # type: ignore[arg-type]
            )
            context = _SbusLevel(
                assembly=assembly,
                solver=StationarySweepSolver(assembly),
                queued=assembly.value_vector(
                    lambda state: float(template.queued_tasks(state))),  # type: ignore[arg-type]
                transmitting=assembly.value_vector(
                    lambda state: 1.0 if template.bus_busy(state) else 0.0),  # type: ignore[arg-type]
                busy=assembly.value_vector(
                    lambda state: float(template.busy_resources(state))),  # type: ignore[arg-type]
            )
            self._levels[max_level] = context
        return context

    def stats(self) -> Dict[int, SolveStats]:
        """Per-level solve statistics (levels created so far)."""
        return {level: context.solver.stats
                for level, context in sorted(self._levels.items())}

    def solve_at_level(self, arrival_rate: float,
                       max_level: int) -> SbusSolution:
        """One fast-path solve at a fixed truncation level.

        Solves exactly the linear system of
        ``solve_truncated_direct(chain, max_level=max_level)`` — the
        agreement tests and the fast-path benchmark compare the two
        point for point.
        """
        context = self._level(max_level)
        distribution = context.solver.solve(arrival_rate)
        mean_queue = float(context.queued @ distribution)
        return SbusSolution(
            chain=self._chain(arrival_rate),
            method="sweep-parametric",
            mean_queue_length=mean_queue,
            mean_delay=mean_queue / arrival_rate,
            bus_utilization=float(context.transmitting @ distribution),
            mean_busy_resources=float(context.busy @ distribution),
            levels_used=max_level,
        )

    def solve(self, arrival_rate: float) -> SbusSolution:
        """Stationary solution at ``arrival_rate`` (truncation grows).

        Replicates the level schedule of ``solve_truncated_direct`` exactly
        — start level, doubling, and stopping rule — so the accepted
        truncation (and hence the answer, to solver precision) is the same
        for every point; only the per-level solves go through the fast
        path.  Raises :class:`~repro.errors.UnstableSystemError` at or
        beyond saturation, exactly like the reference solvers.
        """
        chain = self._chain(arrival_rate)
        check_stability(chain)
        level = self._start_level
        previous: Optional[SbusSolution] = None
        while level <= self.hard_limit:
            current = self.solve_at_level(arrival_rate, level)
            if previous is not None:
                reference = max(abs(previous.mean_delay), 1e-30)
                if abs(current.mean_delay - previous.mean_delay) \
                        <= self.tolerance * reference:
                    return current
            previous = current
            level *= 2
        # Too close to saturation for the truncation budget: the exact
        # matrix-geometric solver needs no truncation at all.
        return solve_matrix_geometric(chain)


# ---------------------------------------------------------------------------
# Multibus sweep solver
# ---------------------------------------------------------------------------


@dataclass
class _MultibusLevel:
    """Cached structure for one truncation level of a multibus shape."""

    assembly: ParametricAssembly
    solver: StationarySweepSolver
    queued: np.ndarray
    busy_buses: np.ndarray
    busy_resources: np.ndarray


class MultibusSweepSolver:
    """Sweep-reusable exact solver for small ``m``-bus systems.

    The parametric analogue of
    :func:`repro.markov.multibus_chain.solve_multibus`: same growing
    truncation and stopping rule, with the per-level structure assembled
    once and the per-point solves warm-started.
    """

    def __init__(self, transmission_rate: float, service_rate: float,
                 buses: int, resources_per_bus: int,
                 tolerance: float = 1e-9, hard_limit: int = 4000):
        self._template = MultibusChain(arrival_rate=1.0,
                                       transmission_rate=transmission_rate,
                                       service_rate=service_rate,
                                       buses=buses,
                                       resources_per_bus=resources_per_bus)
        self.tolerance = tolerance
        self.hard_limit = hard_limit
        self._levels: Dict[int, _MultibusLevel] = {}
        self._start_level = max(8 * buses * resources_per_bus, 32)

    def _chain(self, arrival_rate: float) -> MultibusChain:
        template = self._template
        return MultibusChain(arrival_rate=arrival_rate,
                             transmission_rate=template.transmission_rate,
                             service_rate=template.service_rate,
                             buses=template.buses,
                             resources_per_bus=template.resources_per_bus)

    def _level(self, max_level: int) -> _MultibusLevel:
        context = self._levels.get(max_level)
        if context is None:
            template = self._template
            assembly = ParametricAssembly.explore(
                template.completion_transitions,
                template.arrival_transitions,
                [template.initial_state()],
                state_filter=lambda state: (
                    template.level(state) <= max_level),  # type: ignore[arg-type]
            )

            def queued_of(state: State) -> float:
                queued, _ports = state  # type: ignore[misc]
                return float(queued)

            def buses_of(state: State) -> float:
                _queued, ports = state  # type: ignore[misc]
                return float(sum(bus for bus, _busy in ports))

            def busy_of(state: State) -> float:
                _queued, ports = state  # type: ignore[misc]
                return float(sum(busy for _bus, busy in ports))

            context = _MultibusLevel(
                assembly=assembly,
                solver=StationarySweepSolver(assembly),
                queued=assembly.value_vector(queued_of),
                busy_buses=assembly.value_vector(buses_of),
                busy_resources=assembly.value_vector(busy_of),
            )
            self._levels[max_level] = context
        return context

    def solve_at_level(self, arrival_rate: float,
                       max_level: int) -> MultibusSolution:
        """One fast-path solve at a fixed truncation level."""
        context = self._level(max_level)
        distribution = context.solver.solve(arrival_rate)
        mean_queue = float(context.queued @ distribution)
        return MultibusSolution(
            chain=self._chain(arrival_rate),
            mean_queue_length=mean_queue,
            mean_delay=mean_queue / arrival_rate,
            mean_busy_buses=float(context.busy_buses @ distribution),
            mean_busy_resources=float(context.busy_resources @ distribution),
            levels_used=max_level,
        )

    def solve(self, arrival_rate: float) -> MultibusSolution:
        """Stationary solution at ``arrival_rate`` (truncation grows)."""
        level = self._start_level
        previous: Optional[MultibusSolution] = None
        while level <= self.hard_limit:
            current = self.solve_at_level(arrival_rate, level)
            if previous is not None:
                reference = max(abs(previous.mean_delay), 1e-30)
                if abs(current.mean_delay - previous.mean_delay) \
                        <= self.tolerance * reference:
                    return current
            previous = current
            level *= 2
        raise AnalysisError(
            f"multibus chain did not converge below level {self.hard_limit}; "
            "the system is too close to saturation")


# ---------------------------------------------------------------------------
# The sweep-scoped context threaded through analysis sweeps
# ---------------------------------------------------------------------------


class SolverContext:
    """Reusable solver state for one sweep, keyed by chain shape.

    A sweep varies only the arrival rate, so every configuration maps to a
    small number of chain shapes; the context hands back the same
    :class:`SbusSweepSolver` / :class:`MultibusSweepSolver` for a shape so
    assemblies, factorizations, and warm vectors amortize across points.
    """

    def __init__(self) -> None:
        self._sbus: Dict[Tuple[float, float, int], SbusSweepSolver] = {}
        self._multibus: Dict[Tuple[float, float, int, int],
                             MultibusSweepSolver] = {}

    def sbus_solver(self, transmission_rate: float, service_rate: float,
                    resources: int) -> SbusSweepSolver:
        """The cached SBUS sweep solver for one chain shape."""
        key = (transmission_rate, service_rate, resources)
        solver = self._sbus.get(key)
        if solver is None:
            solver = SbusSweepSolver(transmission_rate=transmission_rate,
                                     service_rate=service_rate,
                                     resources=resources)
            self._sbus[key] = solver
        return solver

    def multibus_solver(self, transmission_rate: float, service_rate: float,
                        buses: int,
                        resources_per_bus: int) -> MultibusSweepSolver:
        """The cached multibus sweep solver for one chain shape."""
        key = (transmission_rate, service_rate, buses, resources_per_bus)
        solver = self._multibus.get(key)
        if solver is None:
            solver = MultibusSweepSolver(transmission_rate=transmission_rate,
                                         service_rate=service_rate,
                                         buses=buses,
                                         resources_per_bus=resources_per_bus)
            self._multibus[key] = solver
        return solver
