"""AST lint engine: file walking, suppression, the two passes, and output.

The engine is rule-agnostic: a rule is anything implementing
:class:`LintRule` — a code, a one-line summary, a path predicate, and a
``check`` generator yielding ``(node, message)`` pairs over a parsed
module.  The engine owns everything else: discovering files, parsing,
applying ``# lint: disable=...`` suppressions, ordering findings, and
rendering them as text or JSON.

:func:`lint_paths` is the one entry point that lints a tree.  Pass 1
reads, pragma-scans and parses each file once; the one tree feeds both
the per-file rules and the :class:`~repro.lint.project.ModuleInfo`
summary.  Pass 2 assembles the summaries into a
:class:`~repro.lint.project.ProjectIndex` and runs the cross-module
rules over it.  :func:`lint_source` runs the per-file rules alone on one
source text.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Pseudo-rule code attached to files the engine cannot parse.
PARSE_ERROR_CODE = "SIM000"

#: Directories never descended into below a lint target (the target
#: itself may sit under one and is still linted).
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache", "build", "dist"}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

_SUPPRESS_FILE_RE = re.compile(r"#\s*lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source position."""

    path: str
    line: int
    column: int
    code: str
    message: str

    def format(self) -> str:
        """The classic ``file:line:col: CODE message`` single-line form."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serializable form for ``--format json`` CI output."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
        }


class LintRule:
    """Base class for per-file lint rules.

    Subclasses set :attr:`code` (``SIMxxx``) and :attr:`summary`, optionally
    narrow :meth:`applies_to`, and implement :meth:`check` as a generator of
    ``(node, message)`` pairs.  Rules see POSIX-normalized paths so path
    predicates are platform-independent.  Rules that need to see across
    module boundaries subclass :class:`repro.lint.project.ProjectRule`
    instead.
    """

    code: str = ""
    summary: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (POSIX-normalized)."""
        return True

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple[ast.AST, str]]:
        """Yield ``(node, message)`` for each violation in ``tree``."""
        raise NotImplementedError


def path_parts(path: str) -> Tuple[str, ...]:
    """The components of a POSIX-normalized path (helper for rules)."""
    return PurePosixPath(path).parts


def _suppressed_codes(line: str) -> frozenset:
    """Lint codes disabled by a ``# lint: disable=...`` comment on ``line``."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return frozenset()
    return frozenset(code.strip().upper()
                     for code in match.group(1).split(",") if code.strip())


def collect_suppressions(source: str
                         ) -> Tuple[Dict[int, List[str]], List[str]]:
    """Pragma tables for one module: per-line codes and file-level codes.

    Per-line: ``# lint: disable=SIM001,SIM002`` silences those codes on its
    own line.  File-level: ``# lint: disable-file=SIM00x`` (or ``ALL``) in
    the *first comment block* — the contiguous run of comment/blank lines
    at the top of the file, before any statement — silences the codes for
    the whole module, which is how a generated or vendored file opts out
    without a pragma on every offending line.
    """
    per_line: Dict[int, List[str]] = {}
    file_codes: List[str] = []
    in_header = True
    for number, text in enumerate(source.splitlines(), start=1):
        stripped = text.strip()
        codes = _suppressed_codes(text)
        if codes:
            per_line[number] = sorted(codes)
        if in_header:
            if stripped and not stripped.startswith("#"):
                in_header = False
            else:
                match = _SUPPRESS_FILE_RE.search(text)
                if match is not None:
                    file_codes.extend(
                        code.strip().upper()
                        for code in match.group(1).split(",") if code.strip())
    return per_line, sorted(set(file_codes))


def _check_module(source: str, norm: str, rules: Sequence[LintRule],
                  per_line: Dict[int, List[str]], file_codes: Sequence[str]
                  ) -> Tuple[Optional[ast.Module], List[Finding]]:
    """Parse one module and run the per-file ``rules`` over its tree.

    Returns the tree (``None`` when the source does not parse, which is
    reported as a SIM000 finding) and the findings in position order.
    """
    disabled = frozenset(file_codes)
    try:
        tree = ast.parse(source, filename=norm)
    except SyntaxError as error:
        if PARSE_ERROR_CODE in disabled or "ALL" in disabled:
            return None, []
        return None, [Finding(path=norm, line=error.lineno or 1,
                              column=(error.offset or 1),
                              code=PARSE_ERROR_CODE,
                              message=f"syntax error: {error.msg}")]
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(norm):
            continue
        if rule.code in disabled or "ALL" in disabled:
            continue
        for node, message in rule.check(tree, norm):
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0) + 1
            suppressed = per_line.get(line, ())
            if rule.code in suppressed or "ALL" in suppressed:
                continue
            findings.append(Finding(path=norm, line=line, column=column,
                                    code=rule.code, message=message))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return tree, findings


def lint_source(source: str, path: str,
                rules: Optional[Sequence[LintRule]] = None) -> List[Finding]:
    """Lint one module's source text with the per-file rules only.

    ``path`` is used for scoping and reporting; it need not exist.
    """
    if rules is None:
        from repro.lint.rules import DEFAULT_RULES
        rules = DEFAULT_RULES
    per_line, file_codes = collect_suppressions(source)
    norm = PurePosixPath(path).as_posix()
    return _check_module(source, norm, rules, per_line, file_codes)[1]


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, deduplicated by resolved path.

    Files listed explicitly are taken as-is.  Below a directory target,
    dot-directories and :data:`_SKIP_DIRS` are skipped; the target's own
    path is not checked, so ``../tests`` or a tree under ``build/`` lints
    like any other.  Overlapping targets (``repro lint src
    src/repro/sim``) and alternative spellings of the same file yield each
    file exactly once — under its first spelling — so finding counts are
    stable however the targets are phrased.
    """
    seen: set = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            identity = root.resolve()
            if identity not in seen:
                seen.add(identity)
                yield root
            continue
        if not root.is_dir():
            raise FileNotFoundError(f"lint target does not exist: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS or part.startswith(".")
                   for part in candidate.relative_to(root).parts):
                continue
            identity = candidate.resolve()
            if identity in seen:
                continue
            seen.add(identity)
            yield candidate


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every Python file under ``paths`` with SIM001–SIM010.

    Pass 1 reads, pragma-scans and parses each file once, runs the
    per-file rules over the tree and summarizes the same tree into a
    :class:`~repro.lint.project.ModuleInfo`.  Pass 2 runs the
    cross-module rules over the :class:`~repro.lint.project.ProjectIndex`
    of every summary.  Findings come back sorted by position.
    """
    from repro.lint.project import (
        ModuleInfo,
        ProjectIndex,
        extract_module,
        run_project_rules,
    )
    from repro.lint.rules import DEFAULT_RULES

    findings: List[Finding] = []
    modules: List[ModuleInfo] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        norm = file_path.as_posix()
        per_line, file_codes = collect_suppressions(source)
        tree, file_findings = _check_module(source, norm, DEFAULT_RULES,
                                            per_line, file_codes)
        findings.extend(file_findings)
        modules.append(extract_module(tree, norm, per_line, file_codes))
    findings.extend(run_project_rules(ProjectIndex(modules)))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return findings


def format_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a tally."""
    if not findings:
        return "repro lint: clean"
    lines = [finding.format() for finding in findings]
    lines.append(f"repro lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report for CI consumption."""
    payload = {
        "tool": "repro-lint",
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
