"""The evaluator registry: what a work unit actually computes.

Evaluators are module-level functions of ``(members)`` — the shape the
process pool requires (workers unpickle the function by qualified name,
so lambdas and closures cannot cross the boundary; lint rule SIM005
enforces this for every pool call site).  ``members`` is a
list of ``(seed, params)`` pairs, one per work unit, and the evaluator
returns one picklable value per member, in order.  Each member is an
independent seeded computation that the evaluator re-derives from its
JSON-safe ``params`` mapping; a member's value never depends on the other
members of the call, so one call over many units equals one call per
unit, bit for bit.  A unit's payload is a one-member list; the serial
runner hands a run of consecutive pending units of one evaluator to a
single call, which lets ``megabatch-figure`` advance several curves in
one lockstep engine.

Registered evaluators:

* ``megabatch-figure``   — the simulated points of figure curves (one
  ``list[SweepPoint]`` per member, intensity order); a single point is a
  one-point curve;
* ``analytic-point``     — exact Markov-chain figure points (one
  ``SweepPoint`` per member).
"""

from __future__ import annotations

import time  # lint: disable=SIM002 - wall time of workers, not simulated time
import traceback
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.runner.chaos import resolve_chaos

#: The members of one evaluator call: ``(seed, params)`` per work unit.
Members = Sequence[Tuple[int, Mapping[str, Any]]]

Evaluator = Callable[[Members], List[Any]]

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
        payload: Tuple[str, List[Tuple[int, dict, str]]],
        attempt: int = 0,
        chaos_spec: Optional[str] = None,
        in_worker: bool = True,
) -> Tuple[Optional[List[Any]], Optional[str], float]:
    """Run a payload's members in one evaluator call.

    ``payload`` is ``(evaluator id, members)`` with one
    ``(seed, params, digest)`` member per work unit (see
    :func:`repro.runner.workunit.batch_payload`); the result is
    ``(values, error, wall_time)``, with one value per member, or
    ``values=None`` and the error text when anything failed.  This is the
    function the process pool ships to workers, so it lives at module
    level (workers unpickle it by qualified name; SIM005).  All exceptions
    — including evaluator-lookup failures and injected chaos — are
    marshalled as traceback text so one bad unit cannot poison the pool.
    Chaos rolls once per member before the call, so an injection aimed at
    any member fails the whole call.  ``attempt`` salts the chaos draws:
    a unit that crashed on one attempt rolls fresh dice on the next,
    which is what makes retry an effective recovery under a constant
    injection rate.  ``chaos_spec`` carries an explicit policy across the
    process boundary; when absent, ``REPRO_CHAOS`` (inherited by workers)
    applies.
    """
    evaluator_id, members = payload
    start = time.perf_counter()
    try:
        chaos = resolve_chaos(spec=chaos_spec)
        if chaos.active:
            for _seed, _params, digest in members:
                chaos.maybe_inject(digest, attempt, in_worker=in_worker)
        values = list(get_evaluator(evaluator_id)(
            [(seed, params) for seed, params, _digest in members]))
        if len(values) != len(members):
            raise ConfigurationError(
                f"evaluator {evaluator_id!r} returned {len(values)} "
                f"value(s) for {len(members)} member(s)")
    except BaseException:
        return None, traceback.format_exc(), time.perf_counter() - start
    return values, None, time.perf_counter() - start


@evaluator("megabatch-figure", reads=("config", "mu_ratio", "intensities",
                                      "horizon"))
def figure_curves(members: Members) -> List[list]:
    """Simulated points of each member's figure curve, in intensity order.

    A member's ``seed`` is the figure's master seed and the point at
    intensity ``x`` runs with ``spawn_seed(seed, config, x)``, so a
    point's value does not depend on which other intensities or curves
    share the call: a curve unit equals its one-point units bit for bit.
    The curves of one call share lockstep engines where
    :func:`repro.analysis.sweep.simulated_curves` can group them.  The
    id is kept for the end-to-end benchmark, whose per-layer metrics are
    keyed on it.
    """
    from repro.analysis.sweep import SimulatedCurve, simulated_curves
    from repro.sim.rng import spawn_seed

    curves = []
    for seed, params in members:
        triplet = params["config"]
        intensities = list(params["intensities"])
        curves.append(SimulatedCurve(
            triplet, params["mu_ratio"], intensities,
            [spawn_seed(seed, triplet, intensity)
             for intensity in intensities],
            params["horizon"]))
    return simulated_curves(curves)


@evaluator("analytic-point", reads=("config", "mu_ratio", "intensity"))
def analytic_points(members: Members) -> list:
    """Exact SBUS delay points, one per-point solve per member (the seeds
    are irrelevant and ignored)."""
    from repro.analysis.sweep import analytic_point as exact_point

    return [exact_point(params["config"], params["mu_ratio"],
                        params["intensity"])
            for _seed, params in members]
