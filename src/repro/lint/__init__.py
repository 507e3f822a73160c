"""Project-specific static analysis: the determinism sanitizer's static half.

``repro lint`` analyzes the source tree in **two passes**.  Pass 1 walks
each file with a small AST engine (:mod:`repro.lint.engine`) running the
per-file rules (:mod:`repro.lint.rules`) and extracting a
:class:`~repro.lint.project.ModuleInfo` summary; pass 2 assembles the
summaries into a :class:`~repro.lint.project.ProjectIndex` — symbol
tables, the import graph, stream-derivation literals, evaluator
digest-material declarations — and runs the cross-module rules
(:mod:`repro.lint.project`) over it.  Together they encode what
bit-for-bit reproducibility demands of this codebase:

* **SIM001** — no ``random`` / ``numpy.random`` import outside
  ``sim/rng.py``; randomness must flow through injected
  :class:`~repro.sim.rng.RngStream` objects so every draw is seeded.
* **SIM002** — no wall-clock reads (``time.time``, ``datetime.now``, …)
  inside ``sim/``, ``core/`` or ``networks/``; simulated time is the only
  clock the kernel may observe.
* **SIM003** — event callbacks must not reach into the kernel's private
  state (``env._queue`` and friends); mutation goes through the
  :class:`~repro.sim.environment.Environment` API.
* **SIM004** — ``*Config`` dataclasses must define ``__post_init__`` so
  units and ranges are validated at construction, not discovered mid-run.
* **SIM005** — callables handed to ``<pool>.submit`` / ``<pool>.map``
  must be module-level functions; lambdas and closures cannot be pickled
  across the process boundary and only fail at runtime inside the pool.
* **SIM006** — no two call sites may derive the same named stream from
  the same parent seed path (``spawn_seed`` literal-key collisions across
  modules correlate streams silently).
* **SIM007** — evaluator behavior must be a function of digest material:
  ``params`` reads outside the declared ``reads=(...)`` tuple and
  ``os.environ`` reads can change results without changing the work-unit
  digest, poisoning the cache.
* **SIM008** — no module-level mutable global may be written inside a
  pool-worker/evaluator call path (traced through the import graph);
  per-process state diverges across workers.
* **SIM009** — no set iteration feeding an accumulation or event
  emission in the ``sim/``/``networks/``/``markov/`` hot paths; set order
  is not deterministic, so iterate ``sorted(...)``.
* **SIM010** — persistent cache/journal writes go through the sanctioned
  atomic-write helpers (temp file + ``os.replace``), never a bare
  ``open(path, "w")`` that a kill can tear.

Findings carry ``file:line:column`` positions and can be suppressed per
line with ``# lint: disable=SIM001`` (comma-separated lists allowed) or
per file with ``# lint: disable-file=SIM00x`` in the first comment block
(for generated or vendored modules).  :func:`lint_paths` runs both passes
serially, parsing each file once; reports are emitted as text or JSON
(``--format json``).

Multiprocessing entry points are intentionally exempt from extra policing:
a module that spawns a process pool must guard its executable statements
behind ``if __name__ == "__main__":`` (or only spawn pools from inside
functions, as :mod:`repro.runner.pool` does) so the ``spawn`` start method
can re-import it without side effects.  The lint engine parses files
without importing them, so guarded ``__main__`` blocks are analysed like
any other code and need no suppression comments.
"""

from repro.lint.engine import (
    Finding,
    LintRule,
    collect_suppressions,
    format_json,
    format_text,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.project import (
    PROJECT_RULES,
    PROJECT_RULES_BY_CODE,
    ModuleInfo,
    ProjectIndex,
    ProjectRule,
    extract_module,
    run_project_rules,
)
from repro.lint.rules import DEFAULT_RULES, RULES_BY_CODE

#: Every rule in the catalogue, per-file then cross-module, by code.
ALL_RULES = list(DEFAULT_RULES) + list(PROJECT_RULES)

__all__ = [
    "ALL_RULES",
    "DEFAULT_RULES",
    "Finding",
    "LintRule",
    "ModuleInfo",
    "PROJECT_RULES",
    "PROJECT_RULES_BY_CODE",
    "ProjectIndex",
    "ProjectRule",
    "RULES_BY_CODE",
    "collect_suppressions",
    "extract_module",
    "format_json",
    "format_text",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "run_project_rules",
]
