"""R14 — layer conformance.

The documented architecture (``docs/architecture.md``) is a DAG::

    apps (experiments/simulation/trajectories/io/ui)
      └─ server
           └─ resilience
                └─ durability
                     └─ core
                          └─ chargers / estimation
                               └─ network
                                    └─ foundations (intervals, spatial, lru,
                                       observability, analysis)

This pass assigns every ``repro.*`` package a layer rank and flags any
**module-scope runtime import** of a higher-ranked package — the
"upward or skip import" that would silently invert the architecture.
Two escape hatches are sanctioned and therefore exempt:

* imports inside ``if TYPE_CHECKING:`` (annotations only, no runtime
  edge), and
* imports deferred into a function body (the documented late-binding
  pattern, e.g. ``resilience.gateway`` resolving its server-side
  estimator lazily);

plus one shared kernel: :mod:`repro.resilience.errors` is a leaf
exception-contract module importable from any layer (core and
durability raise the upstream taxonomy without depending on the
resilience machinery).
"""

from __future__ import annotations

from ..engine import Violation
from ..graph import ModuleFacts, ProjectGraph
from . import ProjectRule

#: package -> layer rank; imports must flow toward smaller ranks.
LAYER_RANKS: dict[str, int] = {
    # foundations: leaf utilities with no domain dependencies
    "analysis": 0,
    "observability": 0,
    "interval_array": 0,
    "intervals": 0,
    "lru": 0,
    "spatial": 0,
    "validation": 0,
    # the road network and its engines
    "network": 1,
    # domain data + estimation over the network
    "chargers": 2,
    "estimation": 2,
    # ranking core
    "core": 3,
    # durable state over the core
    "durability": 4,
    # upstream-failure machinery over durable serving state
    "resilience": 5,
    # the serving facade
    "server": 6,
    # applications and harnesses
    "experiments": 7,
    "simulation": 7,
    "trajectories": 7,
    "io": 7,
    "ui": 7,
    "__main__": 7,
    "<root>": 7,
}

#: leaf modules importable from anywhere (documented shared kernels).
SHARED_MODULES: frozenset[str] = frozenset({"repro.resilience.errors"})


def _target_package(target: str) -> str | None:
    parts = target.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return None  # bare `import repro` pins no package
    return parts[1]


def _is_shared(target: str, names: tuple[str, ...]) -> bool:
    if target in SHARED_MODULES:
        return True
    return any(f"{target}.{name}" in SHARED_MODULES for name in names)


class LayerConformanceRule(ProjectRule):
    """R14: module-scope imports must follow the architecture DAG."""

    rule_id = "R14"
    name = "layer-conformance"
    description = (
        "module-scope imports follow the layer DAG (server>resilience>"
        "durability>core>estimation>network>foundations); no upward imports"
    )

    def check_project(self, graph: ProjectGraph) -> list[Violation]:
        violations: list[Violation] = []
        for module in graph.modules.values():
            if module.is_test:
                continue
            source_rank = LAYER_RANKS.get(module.package)
            if source_rank is None:
                continue
            for fact in module.imports:
                if fact.scope != "toplevel":
                    continue  # TYPE_CHECKING / deferred: sanctioned
                target_package = _target_package(fact.target)
                if target_package is None:
                    continue
                target_rank = LAYER_RANKS.get(target_package)
                if target_rank is None or target_rank <= source_rank:
                    continue
                if _is_shared(fact.target, fact.names):
                    continue
                violations.append(
                    Violation(
                        rule_id=self.rule_id,
                        path=module.rel_path,
                        line=fact.line,
                        message=(
                            f"layer violation: '{module.module_name}' "
                            f"(layer '{module.package}', rank {source_rank}) "
                            f"imports '{fact.target}' (layer "
                            f"'{target_package}', rank {target_rank}); "
                            "depend downward only, or defer the import to "
                            "function scope / TYPE_CHECKING"
                        ),
                    )
                )
        return violations


__all__ = ["LayerConformanceRule", "LAYER_RANKS", "SHARED_MODULES"]
