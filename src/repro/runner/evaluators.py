"""The evaluator registry: what a work unit actually computes.

Evaluators are module-level functions of ``(seed, params)`` — the shape the
process pool requires (workers unpickle the function by qualified name, so
lambdas and closures cannot cross the boundary; lint rule SIM005 enforces
this for every pool call site).  Each evaluator re-derives its inputs from
the JSON-safe ``params`` mapping, runs one independent seeded computation,
and returns a picklable result.

Registered evaluators:

* ``megabatch-figure``   — the simulated points of one figure curve on
  either engine (``list[SweepPoint]``, intensity order); a single point
  is a one-point curve;
* ``analytic-point``     — one exact Markov-chain figure point (``SweepPoint``);
* ``replication-delay``  — one replication's mean queueing delay (``float``).
"""

from __future__ import annotations

import time  # lint: disable=SIM002 - wall time of workers, not simulated time
import traceback
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runner.chaos import resolve_chaos
from repro.runner.workunit import DEFAULT_BACKEND

Evaluator = Callable[..., Any]

#: Evaluator functions by id; workers resolve work units against this table.
EVALUATORS: Dict[str, Evaluator] = {}

#: Declared digest-material reads per evaluator id: exactly the ``params``
#: keys the evaluator consumes (``None`` when a registration declares
#: nothing).  Every key here is covered by the work-unit digest via
#: :data:`repro.runner.workunit.DIGEST_MATERIAL`; the static analyzer's
#: SIM007 rule cross-checks each evaluator body against its declaration,
#: so a new ``params[...]`` read that someone forgets to declare — digest
#: drift — fails lint instead of silently serving stale cache entries.
EVALUATOR_READS: Dict[str, Optional[Tuple[str, ...]]] = {}


def evaluator(evaluator_id: str,
              reads: Optional[Tuple[str, ...]] = None
              ) -> Callable[[Evaluator], Evaluator]:
    """Register a module-level function as the evaluator ``evaluator_id``.

    ``reads`` declares the ``params`` keys the evaluator consumes (its
    digest-material surface); the declaration is enforced statically by
    lint rule SIM007 and exposed at runtime via :data:`EVALUATOR_READS`.
    """

    def register(function: Evaluator) -> Evaluator:
        if evaluator_id in EVALUATORS:
            raise ConfigurationError(
                f"evaluator {evaluator_id!r} registered twice")
        EVALUATORS[evaluator_id] = function
        EVALUATOR_READS[evaluator_id] = reads
        return function

    return register


def get_evaluator(evaluator_id: str) -> Evaluator:
    """Look up an evaluator, with a helpful error for unknown ids."""
    function = EVALUATORS.get(evaluator_id)
    if function is None:
        raise ConfigurationError(
            f"unknown evaluator {evaluator_id!r}; "
            f"expected one of {sorted(EVALUATORS)}")
    return function


def execute_payload(
        payload: Tuple[str, int, dict, str, str],
        attempt: int = 0,
        chaos_spec: Optional[str] = None,
        in_worker: bool = True,
) -> Tuple[str, Any, Optional[str], float]:
    """Run one unit's payload: returns ``(digest, value, error, wall_time)``.

    This is the function the process pool ships to workers, so it lives at
    module level (workers unpickle it by qualified name; SIM005).  All
    exceptions — including evaluator-lookup failures and injected chaos —
    are marshalled as traceback text so one bad unit cannot poison the
    pool.  ``attempt`` salts the chaos draws: a unit that crashed on one
    attempt rolls fresh dice on the next, which is what makes retry an
    effective recovery under a constant injection rate.  ``chaos_spec``
    carries an explicit policy across the process boundary; when absent,
    ``REPRO_CHAOS`` (inherited by workers) applies.
    """
    evaluator_id, seed, params, backend, digest = payload
    start = time.perf_counter()
    try:
        chaos = resolve_chaos(spec=chaos_spec)
        if chaos.active:
            chaos.maybe_inject(digest, attempt, in_worker=in_worker)
        value = get_evaluator(evaluator_id)(seed, params, backend)
    except BaseException:
        return digest, None, traceback.format_exc(), time.perf_counter() - start
    return digest, value, None, time.perf_counter() - start


#: Per-process solver context for the ``sweep`` backend.  Workers are
#: long-lived, so chain structure assembled for one unit is reused by every
#: later unit the same process executes.
_WORKER_CONTEXT = None


def _worker_context():
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None:
        from repro.markov.assembly import SolverContext

        # Deliberate per-process memo: the context caches chain *structure*
        # keyed by configuration, never results, so reuse cannot change any
        # evaluator's output.
        _WORKER_CONTEXT = SolverContext()  # lint: disable=SIM008
    return _WORKER_CONTEXT


@evaluator("megabatch-figure", reads=("config", "mu_ratio", "intensities",
                                      "horizon", "warmup_fraction",
                                      "arbitration", "saturation_guard",
                                      "engine"))
def figure_curve(seed: int, params: Mapping[str, Any],
                 backend: str = DEFAULT_BACKEND) -> list:
    """Simulated points of one figure curve, in intensity order.

    ``seed`` is the figure's master seed and the point at intensity ``x``
    runs with ``spawn_seed(seed, config, x)``, so a point's value does not
    depend on which other intensities share the unit: a curve unit equals
    its one-point units bit for bit.  ``engine`` selects the scalar loop
    or the batched engine (see
    :func:`repro.analysis.sweep.simulated_points`).  The id is kept for
    the end-to-end benchmark, whose per-layer metrics are keyed on it.
    """
    from repro.analysis.sweep import simulated_points
    from repro.sim.rng import spawn_seed

    triplet = params["config"]
    intensities = list(params["intensities"])
    return simulated_points(
        triplet, params["mu_ratio"], intensities,
        [spawn_seed(seed, triplet, intensity) for intensity in intensities],
        horizon=params["horizon"],
        warmup_fraction=params.get("warmup_fraction", 0.1),
        arbitration=params.get("arbitration", "priority"),
        saturation_guard=params.get("saturation_guard", 0.98),
        engine=params["engine"])


@evaluator("analytic-point", reads=("config", "mu_ratio", "intensity"))
def analytic_point(seed: int, params: Mapping[str, Any],
                   backend: str = DEFAULT_BACKEND):
    """One exact SBUS delay point (the seed is irrelevant and ignored).

    ``backend="dense"`` is the per-point reference path; ``"sweep"`` routes
    the solve through a per-process parametric
    :class:`~repro.markov.assembly.SolverContext`.  The backend is digest
    material, so cached results never cross backends.
    """
    from repro.analysis.sweep import analytic_point as exact_point

    if backend not in ("dense", "sweep"):
        raise ConfigurationError(f"unknown solver backend: {backend!r}")
    context = _worker_context() if backend == "sweep" else None
    return exact_point(params["config"], params["mu_ratio"],
                       params["intensity"], context=context)


@evaluator("replication-delay", reads=("config", "arrival_rate",
                                       "transmission_rate",
                                       "service_rate", "horizon",
                                       "warmup", "arbitration"))
def replication_delay(seed: int, params: Mapping[str, Any],
                      backend: str = DEFAULT_BACKEND) -> float:
    """Mean queueing delay of one independent replication."""
    from repro.core.system import simulate
    from repro.workload.arrivals import Workload

    workload = Workload(arrival_rate=params["arrival_rate"],
                        transmission_rate=params["transmission_rate"],
                        service_rate=params["service_rate"])
    result = simulate(params["config"], workload, horizon=params["horizon"],
                      warmup=params["warmup"], seed=seed,
                      arbitration=params.get("arbitration", "priority"))
    return result.mean_queueing_delay
