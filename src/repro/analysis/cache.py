"""Content-hash memoisation for parse + extraction.

``repro-check`` parses every file, extracts its
:class:`~repro.analysis.graph.ModuleFacts`, and parses its suppression
pragmas.  All three depend only on the file's *content* (plus its
analysis-relative path, which is baked into the facts), so repeated
checks of an unchanged file — watch loops, the test suite's many
``check_source`` calls, the serial half of a ``--jobs`` run — can reuse
the previous result.

The cache is in-process and keyed by ``(rel_path,
blake2s(content))``; a worker process under ``--jobs`` gets its own
(initially cold) cache.  Entries are never invalidated by time — a
content change simply hashes to a new key, and the bounded LRU keeps
the footprint predictable.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..lru import LRU

if TYPE_CHECKING:
    from .engine import Suppressions
    from .graph import ModuleFacts

_MAX_ENTRIES = 4096


@dataclass(slots=True)
class _Entry:
    tree: ast.Module
    suppressions: "Suppressions"
    facts: "ModuleFacts | None" = None


@dataclass(slots=True)
class CacheStatsSnapshot:
    """Observable cache behaviour, for tests and the ``--jobs`` driver."""

    hits: int = 0
    misses: int = 0
    facts_hits: int = 0
    facts_misses: int = 0


@dataclass(slots=True)
class ExtractionCache:
    """Memoises parse trees, suppressions, and extracted module facts."""

    _entries: "LRU[tuple[str, str], _Entry]" = field(
        default_factory=lambda: LRU(_MAX_ENTRIES)
    )
    stats: CacheStatsSnapshot = field(default_factory=CacheStatsSnapshot)

    @staticmethod
    def content_key(rel_path: str, source: str) -> tuple[str, str]:
        digest = hashlib.blake2s(source.encode("utf-8", "surrogatepass")).hexdigest()
        return (rel_path, digest)

    def entry_for(self, rel_path: str, source: str) -> "tuple[ast.Module, Suppressions]":
        """Parse tree + suppressions for content, memoised."""
        from .engine import Suppressions

        key = self.content_key(rel_path, source)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry.tree, entry.suppressions
        self.stats.misses += 1
        tree = ast.parse(source, filename=rel_path)
        entry = _Entry(tree=tree, suppressions=Suppressions.parse(source))
        self._entries.put(key, entry)
        return entry.tree, entry.suppressions

    def facts_for(self, source_file: "object") -> "ModuleFacts":
        """Extracted facts for an already-loaded SourceFile, memoised."""
        from .engine import SourceFile
        from .graph import extract_module

        assert isinstance(source_file, SourceFile)
        key = self.content_key(source_file.rel_path, source_file.source)
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(tree=source_file.tree, suppressions=source_file.suppressions)
            self._entries.put(key, entry)
        if entry.facts is None:
            self.stats.facts_misses += 1
            entry.facts = extract_module(source_file)
        else:
            self.stats.facts_hits += 1
        return entry.facts

    def clear(self) -> None:
        self._entries.clear()
        self.stats = CacheStatsSnapshot()


#: Process-wide cache used by the engine; tests may ``clear()`` it.
GLOBAL_CACHE = ExtractionCache()
