"""The ``repro-check`` analysis engine.

Walks a set of Python files, parses each with :mod:`ast`, runs every
registered :class:`~repro.analysis.rules.Rule` against them, honours
inline suppressions, and renders the violations.  Whole-program rules
(:mod:`repro.analysis.passes`) additionally receive a
:class:`~repro.analysis.graph.ProjectGraph` assembled from every file
in the run.

The engine is deliberately dependency-free (stdlib only) so it can be
imported from anywhere in the codebase — including ``conftest.py`` and the
tier-1 lint-gate tests — without dragging in the domain packages it
checks.

Suppression syntax (documented in ``docs/static_analysis.md``):

* ``# repro-check: disable=R2`` on a line suppresses the named rule(s)
  for that line (comma-separated ids, e.g. ``disable=R1,R4``).
* ``# repro-check: disable-next-line=R2`` suppresses the rule(s) on the
  following line — for when the flagged line has no room for a pragma.
* ``# repro-check: disable-file=R2`` anywhere in the first ten lines of a
  file suppresses the rule(s) for the whole file.
* ``disable=all`` / ``disable-file=all`` suppress every rule.

Parallelism: ``check_paths(..., jobs=N)`` fans file loading, per-file
rules, and fact extraction out to worker processes; the whole-program
passes then run in the parent over the gathered facts.  Findings are
sorted on ``(path, line, rule)`` last, so the output is byte-identical
to a serial run.
"""

from __future__ import annotations

import ast
import json
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .graph import ModuleFacts

#: Lines scanned for ``disable-file`` pragmas.
_FILE_PRAGMA_WINDOW = 10

_PRAGMA_RE = re.compile(
    r"#\s*repro-check:\s*(?P<kind>disable(?:-file|-next-line)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding: a rule fired at a source location."""

    rule_id: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id}: {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(slots=True)
class Suppressions:
    """Parsed ``# repro-check:`` pragmas for one file."""

    #: rule ids disabled for the whole file ("all" disables everything)
    file_level: frozenset[str] = frozenset()
    #: line number -> rule ids disabled on that line
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if "all" in self.file_level or rule_id in self.file_level:
            return True
        on_line = self.by_line.get(line)
        if on_line is None:
            return False
        return "all" in on_line or rule_id in on_line

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        # Normalise newlines first: CRLF (and bare-CR) files must parse
        # `disable=R1,R2` identically to LF files — a trailing `\r` on
        # the last token previously defeated the id match.
        normalized = source.replace("\r\n", "\n").replace("\r", "\n")
        file_level: set[str] = set()
        by_line: dict[int, frozenset[str]] = {}

        def add_line(lineno: int, rules: frozenset[str]) -> None:
            existing = by_line.get(lineno, frozenset())
            by_line[lineno] = existing | rules

        for lineno, text in enumerate(normalized.split("\n"), start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            rules = frozenset(
                token.strip().upper() if token.strip().lower() != "all" else "all"
                for token in match.group("rules").split(",")
                if token.strip()
            )
            kind = match.group("kind")
            if kind == "disable-file":
                if lineno <= _FILE_PRAGMA_WINDOW:
                    file_level.update(rules)
            elif kind == "disable-next-line":
                add_line(lineno + 1, rules)
            else:
                add_line(lineno, rules)
        return cls(file_level=frozenset(file_level), by_line=by_line)


@dataclass(slots=True)
class SourceFile:
    """A parsed source file handed to every rule."""

    path: Path
    #: path relative to the analysis root, POSIX-style — what rules match
    #: their applicability scopes against and what reports print.
    rel_path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @property
    def is_test(self) -> bool:
        """A ``test_*``/``conftest`` file, or any file under a ``tests``
        directory — decided from the file's own path, so the verdict does
        not change with the analysis root."""
        return self.path.name.startswith(("test_", "conftest")) or (
            "tests" in self.path.parent.parts
        )

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        """Read and parse ``path``; a ``SyntaxError`` propagates (the
        analyzer reports it as a hard error)."""
        source = path.read_text(encoding="utf-8")
        rel = _rel_path(path, root)
        return cls(
            path=path,
            rel_path=rel,
            source=source,
            tree=ast.parse(source, filename=rel),
            suppressions=Suppressions.parse(source),
        )


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


_SKIP_DIR_NAMES = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "build",
    "dist",
}


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, skipping
    caches, VCS internals, and packaging artefacts (``*.egg-info``)."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py" and path not in seen:
                seen.add(path)
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIR_NAMES:
                continue
            if any(part.endswith(".egg-info") for part in candidate.parts):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


class AnalysisError(Exception):
    """Raised when a target cannot be analysed at all (missing path,
    syntax error) — distinct from rule violations."""


@dataclass(slots=True)
class AnalysisReport:
    """The outcome of one analyzer run."""

    violations: list[Violation]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render_text(self) -> str:
        lines = [violation.render() for violation in self.violations]
        lines.append(
            f"repro-check: {len(self.violations)} violation(s) in "
            f"{self.files_checked} file(s) [{', '.join(self.rules_run)}]"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        payload: dict[str, object] = {
            "violations": [v.as_dict() for v in self.violations],
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2)


def _worker_check(
    payload: tuple[str, str, tuple[str, ...], bool],
) -> tuple[str, list[Violation], "ModuleFacts | None", Suppressions]:
    """Process-pool worker: load one file, run the per-file rules, and
    (when whole-program rules are active) extract its module facts.  The
    file's suppressions come back too, for the project findings.

    Everything returned is picklable; ASTs never cross the process
    boundary.  Runs in a fresh interpreter, so rules are re-selected
    from their ids.
    """
    from .graph import extract_module
    from .rules import select_rules

    path_str, root_str, rule_ids, need_facts = payload
    path = Path(path_str)
    try:
        source = SourceFile.load(path, Path(root_str))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    violations: list[Violation] = []
    if rule_ids:
        for rule in select_rules(rule_ids):
            if not rule.applies_to(source):
                continue
            for violation in rule.check(source):
                if source.suppressions.is_suppressed(violation.rule_id, violation.line):
                    continue
                violations.append(violation)
    facts = extract_module(source) if need_facts else None
    return source.rel_path, violations, facts, source.suppressions


class Analyzer:
    """Runs a set of rules — per-file and whole-program — over files."""

    def __init__(self, rules: Sequence["RuleProtocol"]) -> None:
        if not rules:
            raise ValueError("at least one rule is required")
        self.rules = list(rules)
        self.file_rules = [
            rule for rule in self.rules if not getattr(rule, "is_project_rule", False)
        ]
        self.project_rules = [
            rule for rule in self.rules if getattr(rule, "is_project_rule", False)
        ]

    def check_paths(
        self,
        paths: Sequence[Path],
        root: Path | None = None,
        jobs: int = 1,
    ) -> AnalysisReport:
        """Analyse files/directories rooted at ``root`` (defaults to the
        common parent used for relative-path reporting).  ``jobs > 1``
        fans per-file work out to that many worker processes."""
        resolved = [Path(p) for p in paths]
        for path in resolved:
            if not path.exists():
                raise AnalysisError(f"no such file or directory: {path}")
        base = root if root is not None else _common_root(resolved)
        file_paths = list(iter_python_files(resolved))
        if jobs > 1:
            return self._check_parallel(file_paths, base, jobs)
        files: list[SourceFile] = []
        for file_path in file_paths:
            try:
                files.append(SourceFile.load(file_path, base))
            except SyntaxError as exc:
                raise AnalysisError(f"cannot parse {file_path}: {exc}") from exc
        return self.check_files(files)

    def _check_parallel(
        self, file_paths: Sequence[Path], base: Path, jobs: int
    ) -> AnalysisReport:
        need_facts = bool(self.project_rules)
        rule_ids = tuple(rule.rule_id for rule in self.file_rules)
        payloads = [
            (str(path), str(base), rule_ids, need_facts) for path in file_paths
        ]
        violations: list[Violation] = []
        facts: list["ModuleFacts"] = []
        suppression_map: dict[str, Suppressions] = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for rel_path, file_violations, module_facts, suppressions in pool.map(
                _worker_check, payloads
            ):
                violations.extend(file_violations)
                suppression_map[rel_path] = suppressions
                if module_facts is not None:
                    facts.append(module_facts)
        if self.project_rules:
            violations.extend(self._run_project_rules(facts, suppression_map))
        violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
        return AnalysisReport(
            violations=violations,
            files_checked=len(file_paths),
            rules_run=tuple(rule.rule_id for rule in self.rules),
        )

    def check_files(self, files: Sequence[SourceFile]) -> AnalysisReport:
        from .graph import extract_module

        violations: list[Violation] = []
        for source in files:
            for rule in self.file_rules:
                if not rule.applies_to(source):
                    continue
                for violation in rule.check(source):
                    if source.suppressions.is_suppressed(violation.rule_id, violation.line):
                        continue
                    violations.append(violation)
        if self.project_rules:
            facts = [extract_module(source) for source in files]
            suppression_map = {
                source.rel_path: source.suppressions for source in files
            }
            violations.extend(self._run_project_rules(facts, suppression_map))
        violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
        return AnalysisReport(
            violations=violations,
            files_checked=len(files),
            rules_run=tuple(rule.rule_id for rule in self.rules),
        )

    def _run_project_rules(
        self,
        facts: Sequence["ModuleFacts"],
        suppressions: Mapping[str, Suppressions],
    ) -> list[Violation]:
        from .graph import build_graph

        graph = build_graph(facts)
        violations: list[Violation] = []
        for rule in self.project_rules:
            for violation in rule.check_project(graph):
                per_file = suppressions.get(violation.path)
                if per_file is not None and per_file.is_suppressed(
                    violation.rule_id, violation.line
                ):
                    continue
                violations.append(violation)
        return violations

    def check_source(self, source: str, rel_path: str = "<snippet>.py") -> list[Violation]:
        """Analyse an in-memory snippet — the fixture-test entry point."""
        return self.check_snippets({rel_path: source})

    def check_snippets(self, snippets: Mapping[str, str]) -> list[Violation]:
        """Analyse a set of in-memory files as one project — the
        multi-file fixture entry point for whole-program rules."""
        files = []
        for rel_path, source in snippets.items():
            tree = ast.parse(source)
            files.append(
                SourceFile(
                    path=Path(rel_path),
                    rel_path=rel_path,
                    source=source,
                    tree=tree,
                    suppressions=Suppressions.parse(source),
                )
            )
        report = self.check_files(files)
        return report.violations


def _common_root(paths: Iterable[Path]) -> Path:
    resolved = [p.resolve() for p in paths]
    if not resolved:
        return Path.cwd()
    common = resolved[0] if resolved[0].is_dir() else resolved[0].parent
    for path in resolved[1:]:
        candidate = path if path.is_dir() else path.parent
        while common not in (candidate, *candidate.parents):
            if common.parent == common:
                break
            common = common.parent
    return common


class RuleProtocol:
    """Structural interface every rule implements (kept as a plain base
    class so the engine has zero typing-time dependencies)."""

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, source: SourceFile) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def check(self, source: SourceFile) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError
