"""The per-file determinism lint rules (SIM001-SIM005).

Each rule encodes one invariant the fault-injection replay guarantee
(PR 1) leans on: zero-rate fault configurations must reproduce healthy
runs bit for bit, which is only auditable when every source of
nondeterminism is confined to seeded, injected streams and the simulated
clock.  The cross-module rules (SIM006-SIM010) live in
:mod:`repro.lint.project`; see :mod:`repro.lint` for the full rule
catalogue and suppression syntax.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint.engine import LintRule, path_parts

#: Module names whose import anywhere outside ``sim/rng.py`` is SIM001.
_RANDOM_MODULES = ("random", "numpy.random")

#: ``(base name, attribute)`` pairs that read the wall clock (SIM002).
_WALL_CLOCK_ATTRIBUTES = frozenset({
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
})

#: Names ``from time import <name>`` that smuggle in a wall clock (SIM002).
_WALL_CLOCK_TIME_NAMES = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
})

#: Names an event callback may hold the environment under (SIM003).
_ENVIRONMENT_NAMES = ("env", "environment")


def _is_random_module(module: str) -> bool:
    return (module in _RANDOM_MODULES
            or module.startswith("random.")
            or module.startswith("numpy.random."))


class NoUnseededRandom(LintRule):
    """SIM001: randomness must come from injected ``RngStream`` objects.

    Flags ``import random``, ``from random import ...``, any form of
    ``numpy.random`` (including ``np.random.<fn>`` attribute access), and
    ``from numpy import random``.  ``sim/rng.py`` is the single sanctioned
    import site; everything else takes a seeded stream as a parameter.
    """

    code = "SIM001"
    summary = ("no random/numpy.random import outside sim/rng.py "
               "(inject a repro.sim.rng.RngStream)")

    def applies_to(self, path: str) -> bool:
        return not path.endswith("sim/rng.py")

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_random_module(alias.name):
                        yield node, (
                            f"import of {alias.name!r}: thread a seeded "
                            "repro.sim.rng.RngStream through the caller instead")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and _is_random_module(module):
                    yield node, (
                        f"import from {module!r}: thread a seeded "
                        "repro.sim.rng.RngStream through the caller instead")
                elif node.level == 0 and module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            yield node, (
                                "import of numpy.random: thread a seeded "
                                "repro.sim.rng.RngStream through the caller instead")
            elif (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("numpy", "np")):
                yield node, (
                    f"use of {node.value.id}.random: thread a seeded "
                    "repro.sim.rng.RngStream through the caller instead")


class NoWallClock(LintRule):
    """SIM002: the simulation core observes only simulated time.

    Flags wall-clock reads (``time.time()``, ``datetime.now()``,
    ``time.perf_counter()``, …) in modules under ``sim/``, ``core/`` or
    ``networks/`` — a wall-clock read there makes a run unreproducible and
    couples metric digests to host speed.  Benchmarks and CLI layers may
    time themselves freely.
    """

    code = "SIM002"
    summary = "no wall-clock reads (time.time, datetime.now, ...) in sim/core/networks"

    _SCOPED_DIRS = frozenset({"sim", "core", "networks"})

    def applies_to(self, path: str) -> bool:
        return any(part in self._SCOPED_DIRS for part in path_parts(path))

    @staticmethod
    def _base_tail(node: ast.AST) -> str:
        """The final component of the attribute base, however deep.

        ``time.time()`` has a ``Name`` base, but ``datetime.datetime.now()``
        (and any longer ``a.b.attr`` chain) has an ``Attribute`` base whose
        own ``attr`` is the component that matters — matching only
        ``ast.Name`` bases let dotted wall-clock reads escape.
        """
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and (self._base_tail(node.value), node.attr)
                    in _WALL_CLOCK_ATTRIBUTES):
                yield node, (
                    f"wall-clock read {self._base_tail(node.value)}."
                    f"{node.attr}: use the environment clock (env.now) so "
                    "runs replay exactly")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_NAMES:
                            yield node, (
                                f"import of time.{alias.name}: use the "
                                "environment clock (env.now) so runs replay exactly")


class KernelEncapsulation(LintRule):
    """SIM003: callbacks mutate the environment only through the kernel API.

    Flags any access to an underscore-private attribute of a name bound to
    the environment (``env._queue``, ``self.env._now``, …) outside the
    ``sim/`` kernel itself.  Model code that pokes the heap or the clock
    directly bypasses the FIFO tie-break, so its event ordering is
    unauditable.
    """

    code = "SIM003"
    summary = "no env._* access outside the sim kernel (use the Environment API)"

    def applies_to(self, path: str) -> bool:
        return "sim" not in path_parts(path)

    @staticmethod
    def _is_environment_base(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _ENVIRONMENT_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in _ENVIRONMENT_NAMES
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and self._is_environment_base(node.value)):
                yield node, (
                    f"access to private kernel state .{node.attr}: go through "
                    "the Environment API (schedule/timeout/step) so event "
                    "ordering stays auditable")


class ConfigValidation(LintRule):
    """SIM004: config dataclasses validate their units and ranges.

    A class named ``*Config`` and decorated ``@dataclass`` must define
    ``__post_init__``: configuration errors must surface at construction
    (as :class:`~repro.errors.ConfigurationError`), not as NaNs or livelocks
    a thousand simulated seconds into a run.
    """

    code = "SIM004"
    summary = "dataclasses named *Config must define __post_init__ validation"

    @staticmethod
    def _is_dataclass_decorator(node: ast.AST) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        if isinstance(target, ast.Name):
            return target.id == "dataclass"
        if isinstance(target, ast.Attribute):
            return target.attr == "dataclass"
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Config"):
                continue
            if not any(self._is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            has_post_init = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__post_init__"
                for item in node.body)
            if not has_post_init:
                yield node, (
                    f"config dataclass {node.name} has no __post_init__: "
                    "validate units/ranges at construction time")


class PicklableWorkers(LintRule):
    """SIM005: functions submitted to a process pool must be picklable.

    A ``ProcessPoolExecutor`` ships the submitted callable to workers by
    *qualified name*: lambdas and functions defined inside another function
    cannot be pickled and fail only at runtime, inside the pool, with an
    opaque error.  This rule flags ``<pool>.submit(fn, ...)`` and
    ``<pool>.map(fn, ...)`` calls — where the receiver's name mentions
    ``pool`` or ``executor`` — whose callable argument is a lambda or a
    nested function.  Workers belong at module level (see
    ``repro.runner.evaluators.execute_payload``).
    """

    code = "SIM005"
    summary = ("pool.submit/map workers must be module-level functions "
               "(no lambdas or closures; they cannot be pickled)")

    _POOL_METHODS = frozenset({"submit", "map"})
    _POOL_HINTS = ("pool", "executor")

    @classmethod
    def _is_pool_receiver(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return False
        lowered = name.lower()
        return any(hint in lowered for hint in cls._POOL_HINTS)

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> frozenset:
        """Names of functions defined inside another function."""
        nested = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(inner.name)
        return frozenset(nested)

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple[ast.AST, str]]:
        nested = self._nested_function_names(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._POOL_METHODS
                    and self._is_pool_receiver(node.func.value)
                    and node.args):
                continue
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                yield node, (
                    f"lambda submitted to {node.func.attr}(): pool workers "
                    "are pickled by qualified name — define a module-level "
                    "function instead")
            elif isinstance(worker, ast.Name) and worker.id in nested:
                yield node, (
                    f"nested function {worker.id!r} submitted to "
                    f"{node.func.attr}(): closures cannot be pickled — "
                    "move the worker to module level")


#: Rule instances applied by default, in reporting order.
DEFAULT_RULES: List[LintRule] = [
    NoUnseededRandom(),
    NoWallClock(),
    KernelEncapsulation(),
    ConfigValidation(),
    PicklableWorkers(),
]

#: Lookup by ``SIMxxx`` code, for the CLI's rule listing.
RULES_BY_CODE: Dict[str, LintRule] = {rule.code: rule for rule in DEFAULT_RULES}
