"""Whole-program analysis: the project index and cross-module rules.

The per-file rules (:mod:`repro.lint.rules`) can say *this line imports
``random``*; they cannot say *these two modules derive the same named
stream from the same parent seed* — the class of regression that actually
breaks bit-identical replay once many strategy modules feed the same
caches and streams.  This module is the lint engine's second pass:

* **Pass 1** (:func:`extract_module`) summarizes each module into a
  :class:`ModuleInfo` — symbol table, import aliases, stream-derivation
  literals, module-level mutable globals, per-function call/write facts,
  evaluator registrations with their declared digest-material reads, and
  the suppression pragmas project findings must honor.  The summary is
  built from the same tree the per-file rules walk, so each file is
  parsed once.
* **Pass 2** (:class:`ProjectRule` subclasses) runs over the assembled
  :class:`ProjectIndex` and yields findings that depend on more than one
  file: SIM006 stream-name collisions, SIM007 digest drift, SIM008 worker
  impurity traced through the import graph, SIM009 unordered reductions in
  hot paths, SIM010 non-atomic persistent writes.

Everything here is deliberately an *approximation with documented bias
toward precision*: dynamic stream keys (f-strings, ``*args``) are exempt
from SIM006 because the dynamic part is what disambiguates them, and the
SIM008 call graph resolves names through explicit imports only — a rule
that cries wolf gets suppressed wholesale and protects nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import Finding, path_parts

#: Call names the analyzer treats as stream derivations.  Kept equal to
#: :data:`repro.sim.rng.DERIVATION_CALLS` (a regression test pins the two
#: together) so the lint vocabulary cannot drift from the runtime's.
DERIVATION_CALLS = frozenset({"stream", "spawn", "spawn_seed"})

#: Method names whose call mutates the receiver (SIM008 write detection).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "appendleft", "push",
})

#: Loop-body calls that accumulate or emit in iteration order (SIM009).
_ACCUMULATOR_METHODS = frozenset({
    "append", "extend", "add", "insert", "put", "push", "emit",
    "schedule", "record", "appendleft",
})

#: Set-returning methods (their result has no deterministic order).
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: ``mode=`` characters that make an ``open`` a write (SIM010).
_WRITE_MODE_CHARS = frozenset("wax+")


def _literal_key(node: ast.AST) -> Optional[object]:
    """The JSON-safe literal value of a derivation key, or None if dynamic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, int)):
        return node.value
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)):
        return -node.operand.value
    return None


def _call_name(node: ast.expr) -> Optional[str]:
    """A call target as ``name`` or ``base.attr`` (one dotted level)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            return f"{node.value.id}.{node.attr}"
        return f"*.{node.attr}"
    return None


def _binds_params(node: ast.AST) -> bool:
    """Whether ``node``'s body binds the name ``params`` (a loop target,
    an assignment, a comprehension variable)."""
    return any(isinstance(child, ast.Name) and child.id == "params"
               and isinstance(child.ctx, ast.Store)
               for child in ast.walk(node))


def module_name_for(path: Path) -> str:
    """The dotted module name of ``path``, walking up ``__init__.py`` roots.

    ``src/repro/sim/rng.py`` → ``repro.sim.rng`` because ``src`` has no
    ``__init__.py`` while every package directory below it does.  Files
    outside any package resolve to their bare stem, which keeps synthetic
    single-file fixtures addressable.
    """
    resolved = path.resolve()
    parts = [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        grandparent = parent.parent
        if grandparent == parent:
            break
        parent = grandparent
    if parts[-1] == "__init__" and len(parts) > 1:
        parts.pop(0)
    dotted = ".".join(reversed(parts))
    return dotted[:-len(".__init__")] if dotted.endswith(".__init__") else dotted


@dataclass
class FunctionFacts:
    """Per-function facts pass 2 reasons over."""

    qualname: str
    line: int
    col: int
    calls: List[str] = field(default_factory=list)
    global_writes: List[Tuple[str, int, int]] = field(default_factory=list)
    environ_reads: List[Tuple[int, int]] = field(default_factory=list)
    param_reads: List[Tuple[str, int, int]] = field(default_factory=list)
    dynamic_param_reads: List[Tuple[int, int]] = field(default_factory=list)
    evaluator_id: Optional[str] = None
    declared_reads: Optional[List[str]] = None
    calls_os_replace: bool = False


@dataclass
class ModuleInfo:
    """One module's whole-program-relevant summary (pass-1 output)."""

    path: str
    module: str
    import_modules: List[str] = field(default_factory=list)
    import_aliases: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    mutable_globals: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    pool_workers: List[str] = field(default_factory=list)
    stream_calls: List[Dict[str, Any]] = field(default_factory=list)
    unordered_iters: List[Dict[str, Any]] = field(default_factory=list)
    write_opens: List[Dict[str, Any]] = field(default_factory=list)
    suppressed_lines: Dict[int, List[str]] = field(default_factory=dict)
    disabled_file_codes: List[str] = field(default_factory=list)

    def suppresses(self, code: str, line: int) -> bool:
        """Whether a pragma silences ``code`` at ``line`` in this module."""
        if code in self.disabled_file_codes \
                or "ALL" in self.disabled_file_codes:
            return True
        codes = self.suppressed_lines.get(line, ())
        return code in codes or "ALL" in codes


class _ModuleExtractor(ast.NodeVisitor):
    """Single-pass AST visitor filling a :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo):
        self.info = info
        self._scope: List[str] = []          # enclosing class/function names
        self._function: Optional[FunctionFacts] = None
        self._function_globals: Set[str] = set()
        self._params_name: Optional[str] = None
        self._setish_names: Set[str] = set()

    # -- scope bookkeeping ------------------------------------------------

    def _qualname(self, name: str) -> str:
        return ".".join(self._scope + [name])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def _visit_function(self, node) -> None:
        qualname = self._qualname(node.name)
        facts = FunctionFacts(qualname=qualname, line=node.lineno,
                              col=node.col_offset)
        self._read_decorators(node, facts)
        arg_names = [arg.arg for arg in (node.args.posonlyargs
                                         + node.args.args
                                         + node.args.kwonlyargs)]
        outer = (self._function, self._function_globals,
                 self._params_name, self._setish_names)
        self._function = facts
        self._function_globals = set()
        # The params mapping is an argument, or — for a list-protocol
        # evaluator — a name its body binds per member.
        self._params_name = (
            "params" if "params" in arg_names
            or (facts.evaluator_id is not None and _binds_params(node))
            else None)
        self._setish_names = set()
        self._scope.append(node.name)
        for statement in node.body:
            self.visit(statement)
        self._scope.pop()
        # Keep the outer function's facts for nested definitions: a closure's
        # writes are attributed to the closure, not its parent.
        self.info.functions[qualname] = facts
        (self._function, self._function_globals,
         self._params_name, self._setish_names) = outer

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _read_decorators(self, node, facts: FunctionFacts) -> None:
        """Record ``@evaluator("id", reads=(...))`` registrations."""
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            target = decorator.func
            name = (target.id if isinstance(target, ast.Name)
                    else target.attr if isinstance(target, ast.Attribute)
                    else None)
            if name in self.info.from_imports:
                # `from ... import evaluator as ev` — resolve the alias to
                # the imported symbol's real name before matching.
                name = self.info.from_imports[name][1]
            if name != "evaluator" or not decorator.args:
                continue
            head = decorator.args[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                facts.evaluator_id = head.value
            for keyword in decorator.keywords:
                if keyword.arg != "reads":
                    continue
                if isinstance(keyword.value, (ast.Tuple, ast.List)):
                    reads = [element.value for element in keyword.value.elts
                             if isinstance(element, ast.Constant)
                             and isinstance(element.value, str)]
                    facts.declared_reads = reads

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.import_modules.append(alias.name)
            self.info.import_aliases[alias.asname or
                                     alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            base = self.info.module.split(".")
            # `from . import x` in pkg/mod.py: one level strips the module
            # name itself; further levels strip packages.
            base = base[:len(base) - node.level]
            module = ".".join(base + ([module] if module else []))
        if module:
            self.info.import_modules.append(module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.info.from_imports[alias.asname or alias.name] = (
                    module, alias.name)

    # -- module-level state -----------------------------------------------

    @staticmethod
    def _is_mutable_value(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node.func) or ""
            tail = name.split(".")[-1]
            return tail in {"list", "dict", "set", "defaultdict", "deque",
                            "OrderedDict", "Counter"}
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._function is None and not self._scope:
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and self._is_mutable_value(node.value):
                    self.info.mutable_globals.append(target.id)
        self._track_assignment(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (self._function is None and not self._scope
                and isinstance(node.target, ast.Name)
                and node.value is not None
                and self._is_mutable_value(node.value)):
            self.info.mutable_globals.append(node.target.id)
        self._track_assignment(node)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        if self._function is not None:
            self._function_globals.update(node.names)
            # A name a function rebinds via `global` is mutable state by
            # construction, whatever its module-level initializer was.
            for name in node.names:
                if name not in self.info.mutable_globals:
                    self.info.mutable_globals.append(name)

    # -- function-body facts ----------------------------------------------

    def _track_assignment(self, node) -> None:
        facts = self._function
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if facts is not None and isinstance(target, ast.Name):
                if target.id in self._function_globals:
                    facts.global_writes.append(
                        (target.id, node.lineno, node.col_offset))
                value = getattr(node, "value", None)
                if value is not None and self._is_setish(value):
                    self._setish_names.add(target.id)
            elif (facts is not None
                  and isinstance(target, (ast.Subscript, ast.Attribute))
                  and isinstance(target.value, ast.Name)
                  and target.value.id in self.info.mutable_globals):
                facts.global_writes.append(
                    (target.value.id, node.lineno, node.col_offset))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        facts = self._function
        if facts is not None:
            if isinstance(node.target, ast.Name) \
                    and node.target.id in self._function_globals:
                facts.global_writes.append(
                    (node.target.id, node.lineno, node.col_offset))
            elif (isinstance(node.target, ast.Subscript)
                  and isinstance(node.target.value, ast.Name)
                  and node.target.value.id in self.info.mutable_globals):
                facts.global_writes.append(
                    (node.target.value.id, node.lineno, node.col_offset))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self._function is not None and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            self._function.environ_reads.append(
                (node.lineno, node.col_offset))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        facts = self._function
        if (facts is not None and self._params_name is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == self._params_name
                and isinstance(node.ctx, ast.Load)):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                facts.param_reads.append(
                    (key.value, node.lineno, node.col_offset))
            else:
                facts.dynamic_param_reads.append(
                    (node.lineno, node.col_offset))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        facts = self._function
        name = _call_name(node.func)
        if facts is not None and name is not None:
            facts.calls.append(name)
            if name == "os.replace" or name.endswith(".replace") \
                    and name.startswith("os."):
                facts.calls_os_replace = True
            if name in ("os.getenv", "getenv"):
                facts.environ_reads.append((node.lineno, node.col_offset))
        self._record_param_get(node)
        self._record_mutator_call(node)
        self._record_stream_call(node, name)
        self._record_pool_submission(node)
        self._record_write_open(node, name)
        self.generic_visit(node)

    def _record_param_get(self, node: ast.Call) -> None:
        facts = self._function
        if (facts is None or self._params_name is None
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr != "get"
                or not isinstance(node.func.value, ast.Name)
                or node.func.value.id != self._params_name
                or not node.args):
            return
        key = node.args[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            facts.param_reads.append((key.value, node.lineno, node.col_offset))
        else:
            facts.dynamic_param_reads.append((node.lineno, node.col_offset))

    def _record_mutator_call(self, node: ast.Call) -> None:
        facts = self._function
        if (facts is not None and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in self.info.mutable_globals):
            facts.global_writes.append(
                (node.func.value.id, node.lineno, node.col_offset))

    def _record_stream_call(self, node: ast.Call,
                            name: Optional[str]) -> None:
        tail = (name or "").split(".")[-1]
        if tail not in DERIVATION_CALLS:
            return
        if tail == "spawn_seed":
            raw_keys = node.args[1:]
            kind = "spawn_seed"
        elif tail == "stream" and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Call):
            ctor = _call_name(node.func.value.func) or ""
            if ctor.split(".")[-1] not in ("RandomStreams", "BatchedStreams"):
                return
            raw_keys = node.args[:1]
            kind = "family-stream"
        else:
            return
        if not raw_keys or any(isinstance(arg, ast.Starred)
                               for arg in node.args):
            keys: Optional[List[object]] = None
        else:
            literals = [_literal_key(arg) for arg in raw_keys]
            keys = None if any(k is None for k in literals) else literals
        self.info.stream_calls.append({
            "kind": kind,
            "keys": keys,
            "line": node.lineno,
            "col": node.col_offset,
            "func": self._function.qualname if self._function else "<module>",
        })

    def _record_pool_submission(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args and isinstance(node.args[0], ast.Name)):
            return
        receiver = node.func.value
        receiver_name = (receiver.id if isinstance(receiver, ast.Name)
                         else receiver.attr
                         if isinstance(receiver, ast.Attribute) else "")
        lowered = receiver_name.lower()
        if "pool" in lowered or "executor" in lowered:
            self.info.pool_workers.append(node.args[0].id)

    def _record_write_open(self, node: ast.Call,
                           name: Optional[str]) -> None:
        mode: Optional[str] = None
        if name == "open" or (name or "").endswith(".open"):
            mode_node: Optional[ast.AST] = None
            offset = 1 if name == "open" else 0
            if len(node.args) > offset:
                mode_node = node.args[offset]
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode_node = keyword.value
            if mode_node is None:
                return  # default mode "r": a read
            if not (isinstance(mode_node, ast.Constant)
                    and isinstance(mode_node.value, str)):
                return
            mode = mode_node.value
            if not set(mode) & _WRITE_MODE_CHARS:
                return
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("write_bytes", "write_text"):
            mode = node.func.attr
        else:
            return
        self.info.write_opens.append({
            "line": node.lineno,
            "col": node.col_offset,
            "mode": mode,
            "func": self._function.qualname if self._function else "<module>",
        })

    # -- SIM009 facts ------------------------------------------------------

    def _is_setish(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node.func) or ""
            tail = name.split(".")[-1]
            if name in ("set", "frozenset"):
                return True
            if tail in _SET_METHODS and isinstance(node.func, ast.Attribute):
                return True
        if isinstance(node, ast.Name) and node.id in self._setish_names:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.Sub)):
            return self._is_setish(node.left) or self._is_setish(node.right)
        return False

    @staticmethod
    def _accumulates(body: Sequence[ast.stmt]) -> bool:
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.AugAssign):
                    return True
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _ACCUMULATOR_METHODS):
                    return True
                if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Subscript)
                        for target in node.targets):
                    return True
        return False

    def visit_For(self, node: ast.For) -> None:
        if self._is_setish(node.iter) and self._accumulates(node.body):
            self.info.unordered_iters.append({
                "line": node.lineno,
                "col": node.col_offset,
                "func": (self._function.qualname
                         if self._function else "<module>"),
            })
        self.generic_visit(node)


def extract_module(tree: Optional[ast.Module], path: str,
                   suppressed_lines: Optional[Dict[int, List[str]]] = None,
                   disabled_file_codes: Sequence[str] = ()) -> ModuleInfo:
    """Pass 1 for one module: summarize its parsed ``tree``.

    ``tree`` is ``None`` for a file that does not parse; its summary then
    holds only the path, module name and pragma tables.
    """
    info = ModuleInfo(path=PurePosixPath(path).as_posix(),
                      module=module_name_for(Path(path)),
                      suppressed_lines=dict(suppressed_lines or {}),
                      disabled_file_codes=list(disabled_file_codes))
    if tree is not None:
        _ModuleExtractor(info).visit(tree)
    return info


class ProjectIndex:
    """Pass-1 summaries assembled into a queryable whole-program view."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_module: Dict[str, ModuleInfo] = {}
        for info in modules:
            self.modules[info.path] = info
            self.by_module[info.module] = info

    # -- import graph ------------------------------------------------------

    def import_graph(self) -> Dict[str, List[str]]:
        """Module → imported project modules (external imports dropped)."""
        graph: Dict[str, List[str]] = {}
        for info in self.by_module.values():
            edges = sorted({imported for imported in info.import_modules
                            if imported in self.by_module})
            graph[info.module] = edges
        return graph

    # -- call-graph resolution (SIM008) ------------------------------------

    def resolve_call(self, info: ModuleInfo,
                     call: str) -> List[Tuple[str, str]]:
        """Possible ``(module, qualname)`` targets of ``call`` from ``info``.

        Resolution follows explicit bindings only: same-module functions,
        ``from m import f`` names, and one-level attribute calls through
        ``import m`` aliases or ``self``.  Unresolvable calls (builtins,
        third-party, computed) resolve to nothing — the trace stays inside
        the project.
        """
        targets: List[Tuple[str, str]] = []
        if "." in call:
            # `import pkg.helpers; pkg.helpers.f()` — the dotted prefix
            # names a project module directly.
            prefix, tail = call.rsplit(".", 1)
            dotted = self.by_module.get(prefix)
            if dotted is not None:
                targets.extend((dotted.module, qualname)
                               for qualname in dotted.functions
                               if qualname == tail
                               or qualname.endswith(f".{tail}"))
            base, attr = call.split(".", 1)
            if base in ("self", "cls"):
                targets.extend((info.module, qualname)
                               for qualname in info.functions
                               if qualname.endswith(f".{attr}"))
            elif base in info.import_aliases:
                imported = self.by_module.get(info.import_aliases[base])
                if imported is not None:
                    targets.extend((imported.module, qualname)
                                   for qualname in imported.functions
                                   if qualname == attr
                                   or qualname.endswith(f".{attr}"))
            elif base in info.from_imports:
                module, original = info.from_imports[base]
                imported = self.by_module.get(module)
                if imported is not None:
                    targets.extend(
                        (imported.module, qualname)
                        for qualname in imported.functions
                        if qualname == f"{original}.{attr}"
                        or qualname.endswith(f".{attr}"))
        else:
            if call in info.from_imports:
                module, original = info.from_imports[call]
                imported = self.by_module.get(module)
                if imported is not None and original in imported.functions:
                    targets.append((imported.module, original))
            if call in info.functions:
                targets.append((info.module, call))
            else:
                targets.extend((info.module, qualname)
                               for qualname in info.functions
                               if qualname.endswith(f".{call}"))
        return targets

    def worker_entry_points(self) -> List[Tuple[str, str]]:
        """Seed ``(module, qualname)`` pairs for the worker call path.

        Registered evaluators plus every function a call site hands to a
        process pool's ``submit``/``map`` (the SIM005 receiver heuristic).
        """
        seeds: List[Tuple[str, str]] = []
        for info in self.by_module.values():
            for qualname, facts in info.functions.items():
                if facts.evaluator_id is not None:
                    seeds.append((info.module, qualname))
            for worker in info.pool_workers:
                for target in self.resolve_call(info, worker):
                    seeds.append(target)
        return sorted(set(seeds))

    def reachable_from(self, seeds: Sequence[Tuple[str, str]]
                       ) -> Dict[Tuple[str, str], Tuple[str, str]]:
        """BFS over the call graph; maps reached function → its seed."""
        reached: Dict[Tuple[str, str], Tuple[str, str]] = {}
        queue: List[Tuple[Tuple[str, str], Tuple[str, str]]] = [
            (seed, seed) for seed in seeds]
        while queue:
            (module, qualname), seed = queue.pop(0)
            if (module, qualname) in reached:
                continue
            reached[(module, qualname)] = seed
            info = self.by_module.get(module)
            if info is None:
                continue
            facts = info.functions.get(qualname)
            if facts is None:
                continue
            for call in facts.calls:
                for target in self.resolve_call(info, call):
                    if target not in reached:
                        queue.append((target, seed))
        return reached


class ProjectRule:
    """Base class for cross-module rules (the analyzer's second pass).

    Like :class:`~repro.lint.engine.LintRule` but ``check_project`` sees the
    whole :class:`ProjectIndex` at once and yields complete
    :class:`~repro.lint.engine.Finding` objects (it knows paths and
    positions from the recorded facts).  Suppression pragmas are honored by
    the engine using the per-module pragma tables, so cross-module findings
    obey the same ``# lint: disable=`` / ``disable-file=`` contract as
    per-file ones.
    """

    code: str = ""
    summary: str = ""

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError


def _finding(info: ModuleInfo, line: int, col: int, code: str,
             message: str) -> Finding:
    return Finding(path=info.path, line=line, column=col + 1, code=code,
                   message=message)


class StreamNameCollision(ProjectRule):
    """SIM006: no two call sites may derive the same stream independently.

    ``spawn_seed(seed, "arrivals", 0)`` in two modules yields the *same*
    child seed — two components consuming one stream, which correlates
    their draws and couples their consumption order (the exact bug class
    the named-stream design exists to prevent).  Grouping is by the full
    literal key tuple; call sites with any dynamic key (f-strings,
    variables, ``*args``) are exempt because the dynamic component is what
    disambiguates them.  ``RandomStreams(seed).stream("name")`` chains are
    grouped by name the same way.
    """

    code = "SIM006"
    summary = ("stream-name collision: two call sites derive the same "
               "named stream from the same parent seed path")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        groups: Dict[Tuple[str, Tuple[object, ...]],
                     List[Tuple[ModuleInfo, dict]]] = {}
        for info in index.modules.values():
            for call in info.stream_calls:
                if call["keys"] is None:
                    continue
                key = (call["kind"], tuple(call["keys"]))
                groups.setdefault(key, []).append((info, call))
        for (kind, keys), sites in sorted(
                groups.items(), key=lambda item: repr(item[0])):
            positions = {(info.path, call["line"]) for info, call in sites}
            if len(positions) < 2:
                continue
            modules = sorted({info.module for info, _call in sites})
            rendered = ", ".join(repr(key) for key in keys)
            for info, call in sites:
                others = [m for m in modules if m != info.module] or modules
                yield _finding(
                    info, call["line"], call["col"], self.code,
                    f"stream derivation {kind}({rendered}) collides with "
                    f"an identical derivation in {', '.join(others)}: "
                    "identical keys yield the same stream — add a "
                    "distinguishing key component")


class DigestDrift(ProjectRule):
    """SIM007: evaluator behavior must be a function of digest material.

    The work-unit digest covers ``(code version, evaluator id, seed,
    params)`` — nothing else (see
    :data:`repro.runner.workunit.DIGEST_MATERIAL`).  An evaluator that
    reads ``os.environ``, or a ``params`` key outside its declared
    ``reads=(...)`` tuple, can change results without changing the digest,
    so the cache would serve stale values.  Dynamic (non-literal) param
    keys are flagged for the same reason: they cannot be audited against
    the declaration.
    """

    code = "SIM007"
    summary = ("digest drift: evaluator input outside declared "
               "digest material (params reads / os.environ)")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.modules.values():
            for facts in info.functions.values():
                if facts.evaluator_id is None:
                    continue
                for line, col in facts.environ_reads:
                    yield _finding(
                        info, line, col, self.code,
                        f"evaluator {facts.evaluator_id!r} reads the "
                        "process environment: environment state is not "
                        "digest material, so cached results would go stale "
                        "silently")
                if facts.declared_reads is None:
                    continue
                declared = set(facts.declared_reads)
                for key, line, col in facts.param_reads:
                    if key not in declared:
                        yield _finding(
                            info, line, col, self.code,
                            f"evaluator {facts.evaluator_id!r} reads "
                            f"params[{key!r}] which is absent from its "
                            "declared reads=(...) digest material")
                for line, col in facts.dynamic_param_reads:
                    yield _finding(
                        info, line, col, self.code,
                        f"evaluator {facts.evaluator_id!r} reads a params "
                        "key computed at runtime: dynamic keys cannot be "
                        "audited against the declared digest material")


class WorkerImpurity(ProjectRule):
    """SIM008: the worker call path must not write module-level state.

    Pool workers run the same function in many processes; a module-level
    mutable global written anywhere in the call path of an evaluator or a
    pool-submitted worker diverges per process, making results depend on
    which worker (and in what order) executed a unit.  The call path is
    traced from every registered evaluator and pool-submission site
    through explicit imports (the project import graph); writes include
    ``global`` rebinding, subscript/attribute stores, and mutator-method
    calls on module globals.
    """

    code = "SIM008"
    summary = ("worker impurity: module-level mutable global written "
               "inside a pool-worker/evaluator call path")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        reached = index.reachable_from(index.worker_entry_points())
        for (module, qualname), seed in sorted(reached.items()):
            info = index.by_module.get(module)
            if info is None:
                continue
            facts = info.functions.get(qualname)
            if facts is None:
                continue
            seen: Set[Tuple[str, int]] = set()
            for name, line, col in facts.global_writes:
                if name not in info.mutable_globals \
                        or (name, line) in seen:
                    continue
                seen.add((name, line))
                origin = ("" if seed == (module, qualname)
                          else f" (reached from {seed[0]}.{seed[1]})")
                yield _finding(
                    info, line, col, self.code,
                    f"worker-path function {qualname!r} writes module "
                    f"global {name!r}{origin}: per-process state diverges "
                    "across pool workers — pass state explicitly or return "
                    "it")


class UnorderedReduction(ProjectRule):
    """SIM009: hot-path reductions must not iterate sets directly.

    Set iteration order depends on insertion history and hash seeds; an
    accumulation (``+=``, ``.append``, event emission) folded over it can
    differ between runs even with identical seeds — float addition is not
    associative and event order is semantics.  Scoped to the ``sim/``,
    ``networks/`` and ``markov/`` hot paths; iterate ``sorted(...)``
    instead (the pattern ``networks/cells.py`` already uses).
    """

    code = "SIM009"
    summary = ("unordered reduction: set/dict iteration feeding an "
               "accumulation in sim/networks/markov hot paths")

    _SCOPED_DIRS = frozenset({"sim", "networks", "markov"})

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.modules.values():
            if not any(part in self._SCOPED_DIRS
                       for part in path_parts(info.path)):
                continue
            for fact in info.unordered_iters:
                yield _finding(
                    info, fact["line"], fact["col"], self.code,
                    f"{fact['func']} iterates a set into an accumulation: "
                    "set order is not deterministic across runs — iterate "
                    "sorted(...) so replay stays bit-identical")


class NonAtomicPersistentWrite(ProjectRule):
    """SIM010: persistent stores are written only through atomic helpers.

    The cache and journal survive kill -9 because every entry write goes
    temp-file + ``os.replace`` (cache) or append-only JSONL with torn-tail
    healing (journal).  A plain ``open(path, "w")`` in the runner layer
    can leave a truncated file that later reads as corruption.  The rule
    flags write-mode opens (and ``write_bytes``/``write_text``) in
    ``runner/`` and ``lint/`` modules whose enclosing function never calls
    ``os.replace``; the sanctioned non-atomic appenders carry an explicit
    ``# lint: disable=SIM010`` with their rationale.
    """

    code = "SIM010"
    summary = ("non-atomic persistent write: open-for-write in runner/lint "
               "persistence layers outside the atomic-write helpers")

    _SCOPED_DIRS = frozenset({"runner", "lint"})

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.modules.values():
            if not any(part in self._SCOPED_DIRS
                       for part in path_parts(info.path)):
                continue
            for fact in info.write_opens:
                facts = info.functions.get(fact["func"])
                if facts is not None and facts.calls_os_replace:
                    continue
                yield _finding(
                    info, fact["line"], fact["col"], self.code,
                    f"{fact['func']} opens a file for writing "
                    f"(mode {fact['mode']!r}) without an os.replace commit: "
                    "a killed run leaves a torn file — write to a temp path "
                    "and os.replace it into place")


#: Project-rule instances applied by default, in reporting order.
PROJECT_RULES: List[ProjectRule] = [
    StreamNameCollision(),
    DigestDrift(),
    WorkerImpurity(),
    UnorderedReduction(),
    NonAtomicPersistentWrite(),
]

#: Lookup by code for the CLI's rule listing.
PROJECT_RULES_BY_CODE: Dict[str, ProjectRule] = {
    rule.code: rule for rule in PROJECT_RULES}


def run_project_rules(index: ProjectIndex,
                      rules: Optional[Sequence[ProjectRule]] = None
                      ) -> List[Finding]:
    """Pass 2: run ``rules`` over ``index``, honoring suppression pragmas."""
    findings: List[Finding] = []
    for rule in (PROJECT_RULES if rules is None else rules):
        for finding in rule.check_project(index):
            info = index.modules.get(finding.path)
            if info is not None and info.suppresses(finding.code,
                                                    finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return findings
