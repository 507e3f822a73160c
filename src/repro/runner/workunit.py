"""Work units: the content-addressed quantum of sweep execution.

Every figure point, replication, and benchmark sample in this package is an
independent seeded computation, fully described by *which* evaluator runs,
*which* seed it draws from, and a JSON-safe parameter mapping.  A
:class:`WorkUnit` freezes that description and derives a stable content
digest over it (plus the code version), so that

* the process pool can ship units to workers as plain picklable data,
* the on-disk cache (:mod:`repro.runner.cache`) can address results by
  digest — identical work is never simulated twice, and
* any change to the configuration, workload, seed, or code version changes
  the digest and therefore invalidates the cached result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError

#: Bumped whenever evaluator semantics change in a way that must invalidate
#: previously cached results without a package version bump.
#: 2: solver backend became digest material (dense vs. sweep fast path).
#: 3: the simulation engine (scalar event loop vs. batched lockstep
#:    replications) entered sweep-point params — engine choice is digest
#:    material, so scalar and batched results never serve for each other.
#: 4: on-disk cache entries became checksummed envelopes (digest + payload
#:    sha256); pre-envelope pickles are unverifiable, so they must miss.
#: 5: the mega-batch engine arrived (whole-curve ``megabatch-figure``
#:    units; the batchability gate widened to deterministic service and
#:    static cell faults), so pre-megabatch entries must miss.
#: 6: the batchability gate widened to single-bus and multistage fabrics
#:    (batched SBUS grants, plane-based Omega/cube/baseline routing) and
#:    the ``auto`` engine arrived, so pre-fabric-gate entries must miss.
#: 7: the engines collapsed to ``scalar`` and ``batched`` under one
#:    figure-curve evaluator (a scalar point is a one-point curve), so
#:    entries of the retired per-point and per-engine evaluators miss.
#: 8: the solver backend left the digest (one SBUS solve path remains).
CACHE_SCHEMA_VERSION = 8

#: Everything the work-unit digest covers, in hash order — the *complete*
#: list of inputs an evaluator's result may depend on.  The whole-program
#: lint's SIM007 rule enforces the contrapositive: an evaluator that reads
#: anything outside this material (an undeclared ``params`` key relative
#: to its ``reads=(...)`` registration, ``os.environ``, mutable module
#: state) can change behavior without changing the digest, and the cache
#: would serve stale results for it.
DIGEST_MATERIAL = ("code_version", "evaluator_id", "seed", "params")


def code_version() -> str:
    """The code-version component of every work-unit digest."""
    from repro import __version__

    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


def canonical_params(params: Mapping[str, Any]) -> str:
    """Canonical JSON rendering of a parameter mapping (digest material).

    Keys are sorted and separators fixed, so two mappings with equal content
    always serialize to the same bytes.  Values must be JSON-safe
    (str/int/float/bool/None and nested lists/dicts); anything else is a
    configuration error — silent ``repr`` fallbacks would make the digest
    depend on memory addresses.
    """
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"),
                          allow_nan=True)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"work-unit params must be JSON-serializable: {error}") from error


def work_unit_digest(evaluator_id: str, seed: int,
                     params: Mapping[str, Any]) -> str:
    """SHA-256 content hash of one work unit (hex)."""
    material = "\n".join([
        code_version(),
        evaluator_id,
        str(int(seed)),
        canonical_params(params),
    ])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkUnit:
    """One independent, content-addressed unit of sweep work.

    ``params`` is stored behind a read-only mapping proxy: the digest is
    computed once at construction, so mutating the mapping afterwards would
    silently desynchronize identity and content.
    """

    evaluator_id: str
    seed: int
    params: Mapping[str, Any]
    config_digest: str = field(default="")

    def __post_init__(self) -> None:
        if not self.evaluator_id:
            raise ConfigurationError("work unit needs a non-empty evaluator id")
        digest = work_unit_digest(self.evaluator_id, self.seed, self.params)
        if self.config_digest and self.config_digest != digest:
            raise ConfigurationError(
                f"work-unit digest mismatch: declared {self.config_digest!r} "
                f"but content hashes to {digest!r}")
        object.__setattr__(self, "config_digest", digest)
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def payload(self) -> tuple:
        """The picklable form shipped to pool workers: a one-member
        :func:`batch_payload`."""
        return batch_payload([self])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WorkUnit({self.evaluator_id!r}, seed={self.seed}, "
                f"digest={self.config_digest[:12]})")


def batch_payload(units: Sequence[WorkUnit]) -> tuple:
    """One evaluator call over ``units``, in picklable form.

    Returns ``(evaluator id, members)`` with one ``(seed, params,
    digest)`` member per unit; every unit must share the evaluator id
    (see :func:`repro.runner.evaluators.execute_payload`).
    """
    return (units[0].evaluator_id,
            [(unit.seed, dict(unit.params), unit.config_digest)
             for unit in units])
