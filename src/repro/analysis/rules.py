"""The seventeen domain rules enforced by ``repro-check``.

Each rule encodes one invariant from the paper that Python's type system
cannot express on its own (see ``docs/static_analysis.md`` for the
paper-section mapping):

========  ======================  =====================================================
Rule id   Name                    Invariant
========  ======================  =====================================================
R1        interval-comparison     Interval endpoints are ranked via the Eq. 4-6
                                  comparators, never by raw ``.lo``/``.hi`` floats
R2        metric-consistency      Haversine and planar metrics never mix in one module
                                  without an explicit :class:`LocalProjection` bridge
R3        dataclass-slots         Hot-path dataclasses declare ``slots=True``
R4        mutable-default         No mutable default arguments
R5        cache-expiry            Cache writes always carry an expiry/validity signal
R6        exception-hygiene       No bare/silently-swallowed exceptions in serving and
                                  experiment code
R7        resilience-bypass       Server-tier code reaches external APIs only through
                                  the resilience gateway, never directly
R8        engine-bypass           Ranking hot loops (``core/``, ``estimation/``) run
                                  shortest paths only through the shared
                                  :class:`DistanceEngine`, never raw ``dijkstra*``
R9        journal-bypass          Server-tier code mutates durable session state only
                                  through :class:`SessionManager` transactions, never
                                  by touching caches or run lists directly
R10       clock-bypass            Time is read only through the injected
                                  :class:`~repro.observability.clock.Clock`; raw
                                  ``time.time()``/``perf_counter()`` calls live only
                                  inside ``observability/``
R11       determinism-taint       Values derived from clocks, unseeded RNGs, ``id()``,
                                  or set-iteration order never reach journals,
                                  snapshots, trace ids, or Offering Tables
                                  (whole-program taint, `passes/determinism.py`)
R12       interval-escape         Raw ``.lo``/``.hi`` floats never cross a public
                                  function boundary out of ``intervals``/``core``
                                  (whole-program, `passes/interval_escape.py`)
R13       shared-state-mutation   Shared caches/registries mutate only through their
                                  owning module's transactional APIs
                                  (whole-program, `passes/shared_state.py`)
R14       layer-conformance       Module-scope imports follow the architecture layer
                                  DAG — no upward imports
                                  (whole-program, `passes/layering.py`)
R15       backpressure-bypass     The serving tier admits load only through bounded
                                  queues and never blocks without a timeout
R16       epoch-bypass            Engine and dynamic-cache reads in ``core/`` and
                                  ``server/`` flow through the epoch-fenced API —
                                  no reach-ins past ``_observe_epoch`` or the
                                  fenced ``DynamicCache.lookup``
R17       label-cardinality-bypass  Metric labels outside ``observability/`` are
                                  bounded enumerations or registry-guarded — no
                                  user-derived/interpolated label values
========  ======================  =====================================================

R1-R10 and R15-R17 are per-file AST rules defined below; R11-R14 are
whole-program passes over the project graph, defined in
:mod:`repro.analysis.passes` and registered here so selection,
suppression, listing, and docs treat all seventeen uniformly.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from .engine import RuleProtocol, SourceFile, Violation

# --------------------------------------------------------------------------
# R1 — interval endpoint comparisons
# --------------------------------------------------------------------------

#: Files allowed to compare endpoints directly: the interval
#: implementations themselves (they *define* the comparators) — the
#: scalar dataclass and its structure-of-arrays mirror.
_R1_ALLOWED_SUFFIXES = ("intervals.py", "interval_array.py")

_RELATIONAL_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_endpoint(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("lo", "hi")


class IntervalComparisonRule(RuleProtocol):
    """R1: no raw relational comparison against ``Interval.lo`` / ``.hi``.

    The paper's ranking semantics (Eq. 4-6) are defined on whole
    intervals; ad-hoc endpoint comparisons are where dominance bugs creep
    in during refactors.  Code must use the named comparators
    (``certainly_less_than``, ``intersects``, ``within_bounds``,
    ``is_strictly_positive``, ...) which live next to their proofs in
    ``intervals.py``.
    """

    rule_id = "R1"
    name = "interval-comparison"
    description = "raw float comparison against Interval.lo/.hi endpoints"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        return not source.rel_path.endswith(_R1_ALLOWED_SUFFIXES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if not any(_is_endpoint(op) for op in operands):
                continue
            if not any(isinstance(op, _RELATIONAL_OPS) for op in node.ops):
                continue
            endpoint = next(op for op in operands if _is_endpoint(op))
            yield Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    f"relational comparison against interval endpoint "
                    f"'.{endpoint.attr}' — use the Interval comparators "
                    f"(certainly_less_than / intersects / within_bounds / "
                    f"is_strictly_positive) instead"
                ),
            )


# --------------------------------------------------------------------------
# R2 — metric consistency
# --------------------------------------------------------------------------

#: Calls that unambiguously operate in geographic (lat/lon) space.
_GEO_MARKERS = {"haversine_km", "GeoPoint"}
#: Calls that unambiguously operate in the planar km system.
_PLANAR_MARKERS = {
    "squared_distance_to",
    "manhattan_distance_to",
    "chebyshev_distance_to",
    "distance_to_point",
    "polyline_length",
    "hypot",
}
#: The sanctioned conversion layer: a module that projects explicitly may
#: hold both coordinate systems.
_BRIDGE_MARKERS = {"LocalProjection", "to_plane", "to_geo"}

#: The module that defines both metrics (and the bridge).
_R2_ALLOWED_SUFFIXES = ("spatial/geometry.py",)


def _call_names(tree: ast.AST) -> Iterator[tuple[str, int]]:
    """(name, line) of every called function/method/constructor."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            yield func.id, node.lineno
        elif isinstance(func, ast.Attribute):
            yield func.attr, node.lineno


class MetricConsistencyRule(RuleProtocol):
    """R2: haversine and planar distance calls must not mix in a module.

    A module works either in the planar km system of the synthetic
    networks or in geographic lat/lon — mixing them silently (e.g. feeding
    degrees into a planar index) is the classic units bug of spatial
    stacks.  Crossing between the systems is allowed only through the
    explicit :class:`LocalProjection` bridge.
    """

    rule_id = "R2"
    name = "metric-consistency"
    description = "haversine and planar metrics mixed without a projection bridge"

    def applies_to(self, source: SourceFile) -> bool:
        return not source.rel_path.endswith(_R2_ALLOWED_SUFFIXES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        geo: list[tuple[str, int]] = []
        planar: list[tuple[str, int]] = []
        bridged = False
        for name, line in _call_names(source.tree):
            if name in _GEO_MARKERS:
                geo.append((name, line))
            elif name in _PLANAR_MARKERS:
                planar.append((name, line))
            if name in _BRIDGE_MARKERS:
                bridged = True
        if geo and planar and not bridged:
            geo_name, geo_line = geo[0]
            planar_name, planar_line = planar[0]
            yield Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=min(geo_line, planar_line),
                message=(
                    f"module mixes geographic metric ({geo_name}, line {geo_line}) "
                    f"with planar metric ({planar_name}, line {planar_line}) "
                    f"without a LocalProjection bridge"
                ),
            )


# --------------------------------------------------------------------------
# R3 — dataclass slots in hot-path packages
# --------------------------------------------------------------------------

#: Packages whose dataclasses sit on the per-segment hot path — millions
#: of Interval / OfferingEntry / candidate instances per experiment run.
_R3_PACKAGES = ("core/", "spatial/", "estimation/")


def _dataclass_decorator(cls: ast.ClassDef) -> ast.expr | None:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _has_true_keyword(call: ast.expr, keyword: str) -> bool:
    if not isinstance(call, ast.Call):
        return False
    for kw in call.keywords:
        if kw.arg == keyword and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


class DataclassSlotsRule(RuleProtocol):
    """R3: every ``@dataclass`` in ``core/``, ``spatial/``,
    ``estimation/`` declares ``slots=True``.

    These packages allocate candidate/score objects per charger per
    segment; ``__dict__``-backed instances cost ~3x the memory and a dict
    lookup per attribute access on the scoring hot path.
    """

    rule_id = "R3"
    name = "dataclass-slots"
    description = "hot-path dataclass missing slots=True"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        return any(f"/{pkg}" in f"/{source.rel_path}" for pkg in _R3_PACKAGES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if _has_true_keyword(decorator, "slots"):
                continue
            yield Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    f"dataclass '{node.name}' in a hot-path package must declare "
                    f"slots=True"
                ),
            )


# --------------------------------------------------------------------------
# R4 — mutable default arguments
# --------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


class MutableDefaultRule(RuleProtocol):
    """R4: no mutable default arguments, anywhere.

    A shared-by-all-calls default list/dict is state leaking across
    queries — in a server that means across *users*.
    """

    rule_id = "R4"
    name = "mutable-default"
    description = "mutable default argument"

    def applies_to(self, source: SourceFile) -> bool:
        return True

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in (*args.defaults, *args.kw_defaults):
                if default is not None and _is_mutable_default(default):
                    label = getattr(node, "name", "<lambda>")
                    yield Violation(
                        rule_id=self.rule_id,
                        path=source.rel_path,
                        line=default.lineno,
                        message=(
                            f"mutable default argument in '{label}' — use None or "
                            f"field(default_factory=...)"
                        ),
                    )


# --------------------------------------------------------------------------
# R5 — cache writes must carry validity
# --------------------------------------------------------------------------

#: The cache modules of Section IV-C (client solution cache + server EIS
#: response cache), plus anything that looks like a new cache module.
_R5_SUFFIXES = ("core/caching.py", "server/cache.py")
_R5_BASENAMES = ("cache.py", "caching.py")

_WRITE_METHOD_NAMES = {"store", "put", "set", "add", "insert"}
_TEMPORAL_NAMES = {
    "now_h",
    "ttl_h",
    "time_h",
    "timestamp_h",
    "generated_at_h",
    "expires_at_h",
    "valid_until_h",
    "validity_h",
    "expiry_h",
}
_TTL_ATTR_FRAGMENTS = ("ttl", "expiry", "valid")


def _annotation_name(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation, e.g. "CachedSolution"
        return node.value.split(".")[-1].split("|")[0].strip()
    return None


def _temporal_dataclasses(tree: ast.Module) -> set[str]:
    """Names of module-level classes that carry a temporal field — a value
    annotated with one of those classes brings its own validity."""
    names: set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in _TEMPORAL_NAMES
            ):
                names.add(node.name)
                break
    return names


class CacheExpiryRule(RuleProtocol):
    """R5: cache-write sites must pass an expiry/validity argument.

    Section IV-C makes reuse conditional on range ``Q`` *and* temporal
    validity ``t`` — an entry written without a validity signal can never
    expire, which under production traffic is an unbounded-staleness (and
    unbounded-memory) bug.  A write method satisfies the rule when it
    takes a temporal parameter (``now_h``, ``ttl_h``, ...) or a value
    whose class carries a temporal field (e.g. ``CachedSolution`` with its
    ``generated_at_h``), and its cache class binds a TTL in ``__init__``.
    """

    rule_id = "R5"
    name = "cache-expiry"
    description = "cache write without expiry/validity argument"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        return source.rel_path.endswith(_R5_SUFFIXES) or source.path.name in _R5_BASENAMES

    def check(self, source: SourceFile) -> Iterator[Violation]:
        temporal_classes = _temporal_dataclasses(source.tree)
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef) or "Cache" not in node.name:
                continue
            yield from self._check_cache_class(source, node, temporal_classes)

    def _check_cache_class(
        self, source: SourceFile, cls: ast.ClassDef, temporal_classes: set[str]
    ) -> Iterator[Violation]:
        write_methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _WRITE_METHOD_NAMES
        ]
        if not write_methods:
            return
        if not self._binds_ttl(cls):
            yield Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=cls.lineno,
                message=(
                    f"cache class '{cls.name}' has write methods but never binds a "
                    f"TTL/validity attribute in __init__"
                ),
            )
        for method in write_methods:
            if self._method_carries_validity(method, temporal_classes):
                continue
            yield Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=method.lineno,
                message=(
                    f"cache write '{cls.name}.{method.name}' takes no "
                    f"expiry/validity argument (expected one of "
                    f"{sorted(_TEMPORAL_NAMES)[:3]}... or a value type with a "
                    f"temporal field)"
                ),
            )

    @staticmethod
    def _binds_ttl(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == "__init__":
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and any(frag in node.attr.lower() for frag in _TTL_ATTR_FRAGMENTS)
                    ):
                        return True
        return False

    @staticmethod
    def _method_carries_validity(
        method: ast.FunctionDef | ast.AsyncFunctionDef, temporal_classes: set[str]
    ) -> bool:
        params = [*method.args.posonlyargs, *method.args.args, *method.args.kwonlyargs]
        for param in params:
            if param.arg == "self":
                continue
            if param.arg in _TEMPORAL_NAMES:
                return True
            annotated = _annotation_name(param.annotation)
            if annotated is not None and annotated in temporal_classes:
                return True
        return False


# --------------------------------------------------------------------------
# R6 — exception hygiene in serving and experiment code
# --------------------------------------------------------------------------

#: Packages where a swallowed exception silently corrupts results: the
#: serving layer (wrong answers to users) and the experiment harness
#: (wrong numbers in the paper-reproduction tables).
_R6_PACKAGES = ("server/", "experiments/")

_SWALLOW_BODY_TYPES = (ast.Pass, ast.Continue)


def _is_swallowing_body(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, _SWALLOW_BODY_TYPES):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


class ExceptionHygieneRule(RuleProtocol):
    """R6: no bare ``except:`` and no silently-swallowed exceptions in
    ``server/`` and ``experiments/``.

    A handler must either re-raise, return/record a value, or log —
    a body of only ``pass``/``continue`` hides failures inside the
    serving path or the experiment numbers.
    """

    rule_id = "R6"
    name = "exception-hygiene"
    description = "bare except or silently swallowed exception"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        return any(f"/{pkg}" in f"/{source.rel_path}" for pkg in _R6_PACKAGES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message="bare 'except:' — catch a specific exception type",
                )
                continue
            if _is_swallowing_body(node.body):
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message=(
                        "exception handler silently swallows the error — re-raise, "
                        "record, or log it"
                    ),
                )


# --------------------------------------------------------------------------
# R7 — server tier must not bypass the resilience gateway
# --------------------------------------------------------------------------

#: The tier whose upstream access must ride the degradation ladder.
_R7_PACKAGES = ("server/",)
#: The definitions module itself (it *is* the raw API layer) is exempt.
_R7_ALLOWED_SUFFIXES = ("server/api.py",)

#: Raw provider client constructors — only the gateway factory may build
#: them (``ResilienceGateway.build`` wraps each in a fault injector, a
#: retry policy, and a circuit breaker before anything can call it).
_RAW_API_CONSTRUCTORS = {"WeatherApi", "BusyTimesApi", "TrafficApi", "ChargerCatalogApi"}
#: Provider entry points, flagged when invoked on a raw ``*_api`` client.
_RAW_API_METHODS = {"forecast", "window_forecast", "availability", "model_snapshot", "nearby"}


def _receiver_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ResilienceBypassRule(RuleProtocol):
    """R7: server-tier code reaches providers only through the gateway.

    A direct ``WeatherApi(...)`` construction or an ``xyz_api.forecast``
    call in ``server/`` skips retry, breaker, health accounting, and the
    serve-stale/fallback ladder — one such call path is enough to turn a
    provider outage back into a user-facing failure.  The raw clients are
    built exactly once, inside :meth:`ResilienceGateway.build`.
    """

    rule_id = "R7"
    name = "resilience-bypass"
    description = "direct external-API access bypassing the resilience gateway"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        if source.rel_path.endswith(_R7_ALLOWED_SUFFIXES):
            return False
        return any(f"/{pkg}" in f"/{source.rel_path}" for pkg in _R7_PACKAGES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if called in _RAW_API_CONSTRUCTORS:
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message=(
                        f"raw provider client '{called}' constructed in the server "
                        f"tier — build it through ResilienceGateway.build so calls "
                        f"get retry/breaker/degradation handling"
                    ),
                )
            elif (
                isinstance(func, ast.Attribute)
                and called in _RAW_API_METHODS
                and (_receiver_name(func.value) or "").endswith("_api")
            ):
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message=(
                        f"direct provider call '.{called}()' on a raw API client — "
                        f"route it through the ResilienceGateway ladder instead"
                    ),
                )


# --------------------------------------------------------------------------
# R8 — ranking hot loops must use the shared distance engine
# --------------------------------------------------------------------------

#: Packages whose shortest-path queries sit on the per-segment hot path —
#: every call here runs once per segment per query mode per evaluation rep.
_R8_PACKAGES = ("core/", "estimation/")

#: Raw search entry points that bypass the engine's memoisation and its
#: backend switch.  Point-to-point helpers (``dijkstra``, ``astar``, ...)
#: are deliberately excluded: they answer one-off path reconstructions, not
#: the batch pricing loops the engine exists for.
_RAW_SEARCH_FUNCTIONS = {
    "dijkstra_all",
    "dijkstra_all_backward",
    "dijkstra_to_targets",
    "settle_arcs",
}


class EngineBypassRule(RuleProtocol):
    """R8: no direct batch ``dijkstra_*`` calls in ``core/`` or
    ``estimation/`` — hot loops must go through the DistanceEngine.

    A raw ``dijkstra_all`` in the pricing path recomputes a ball the
    engine already holds, ignores the backend flag (the CH speedup
    silently evaporates), and its un-quantised distances break the
    bit-equality contract between backends.  The engine facade
    (:class:`repro.network.distance_engine.DistanceEngine`) is the single
    sanctioned entry point for pool pricing.
    """

    rule_id = "R8"
    name = "engine-bypass"
    description = "raw dijkstra_* call in a ranking hot loop (use DistanceEngine)"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        return any(f"/{pkg}" in f"/{source.rel_path}" for pkg in _R8_PACKAGES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if called in _RAW_SEARCH_FUNCTIONS:
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message=(
                        f"raw '{called}' call in a ranking hot loop — route it "
                        f"through the shared DistanceEngine (one_to_many / "
                        f"many_to_one) so results are cached, quantised, and "
                        f"backend-switchable"
                    ),
                )


# --------------------------------------------------------------------------
# R9 — server tier must not mutate session state outside the journal
# --------------------------------------------------------------------------

#: The tier whose durable-session mutations must ride the journal.
_R9_PACKAGES = ("server/",)
#: The EIS response cache is its own (non-session) cache layer.
_R9_ALLOWED_SUFFIXES = ("server/cache.py",)

#: Per-trip session state containers — only the core ranker (inside a
#: SessionManager transaction) may build one.
_SESSION_STATE_CONSTRUCTORS = {"DynamicCache"}
#: Cache checkpoint/restore entry points: the durability tier's rollback
#: primitives, never a serving-layer affordance.
_SESSION_STATE_METHODS = {"checkpoint_state", "restore_state"}
#: RankingRun accumulators that the journal must witness every write to.
_RUN_STATE_ATTRS = {"tables", "failed_segments"}


class JournalBypassRule(RuleProtocol):
    """R9: server-tier code mutates session state only through
    :class:`~repro.durability.SessionManager` transactions.

    The recovery guarantee — a resumed session reproduces the remaining
    rankings bitwise — holds only if the journal witnesses *every*
    session-state mutation.  A ``DynamicCache`` built in ``server/``, a
    direct ``checkpoint_state``/``restore_state`` call, or an append to a
    run's ``tables``/``failed_segments`` from the serving layer creates
    state the journal never saw: after a crash it is silently gone, and
    replay diverges.  The sanctioned path is
    ``DurableSessionService`` → ``SessionManager`` → session hooks.
    """

    rule_id = "R9"
    name = "journal-bypass"
    description = "server-tier session-state mutation outside a SessionManager transaction"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        if source.rel_path.endswith(_R9_ALLOWED_SUFFIXES):
            return False
        return any(f"/{pkg}" in f"/{source.rel_path}" for pkg in _R9_PACKAGES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if called in _SESSION_STATE_CONSTRUCTORS:
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message=(
                        f"session-state container '{called}' constructed in the "
                        f"server tier — sessions own their cache; open one through "
                        f"SessionManager so every mutation is journaled"
                    ),
                )
            elif isinstance(func, ast.Attribute) and called in _SESSION_STATE_METHODS:
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message=(
                        f"direct '.{called}()' call in the server tier — cache "
                        f"checkpoint/rollback is a durability-tier transaction "
                        f"primitive, not a serving-layer affordance"
                    ),
                )
            elif (
                isinstance(func, ast.Attribute)
                and called == "append"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in _RUN_STATE_ATTRS
            ):
                yield Violation(
                    rule_id=self.rule_id,
                    path=source.rel_path,
                    line=node.lineno,
                    message=(
                        f"append to '.{func.value.attr}' in the server tier — run "
                        f"state grows only inside SessionManager transactions, or "
                        f"the journal misses it and replay diverges after a crash"
                    ),
                )


# --------------------------------------------------------------------------
# R10 — raw clock reads outside the observability tier
# --------------------------------------------------------------------------

#: The only package allowed to call ``time.*`` directly: it implements
#: the real :class:`~repro.observability.clock.Clock`.
_R10_ALLOWED_PACKAGES = ("observability/",)

#: Wall/monotonic readers whose raw use breaks clock injection.  Sleeping
#: or formatting helpers (``sleep``, ``strftime``) are not clock *reads*
#: and stay allowed.
_R10_CLOCK_READERS = frozenset(
    {"time", "perf_counter", "monotonic", "time_ns", "perf_counter_ns", "monotonic_ns"}
)


class ClockBypassRule(RuleProtocol):
    """R10: time is read only through the injected ``Clock``.

    The durability tier guarantees bitwise replay and the fault injector
    crashes at deterministic points; a raw ``time.time()`` or
    ``perf_counter()`` read anywhere in the serving or experiment stack
    makes traces, bench histories, and journaled artefacts depend on the
    wall clock of one particular run.  Injecting
    :class:`~repro.observability.clock.Clock` (real in production,
    simulated in tests and replay) keeps every timed artefact a
    deterministic function of the workload.
    """

    rule_id = "R10"
    name = "clock-bypass"
    description = "raw time.time()/perf_counter() read outside the observability tier"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        return not any(
            f"/{pkg}" in f"/{source.rel_path}" for pkg in _R10_ALLOWED_PACKAGES
        )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        module_aliases: set[str] = set()
        imported_readers: dict[str, str] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        module_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _R10_CLOCK_READERS:
                        imported_readers[alias.asname or alias.name] = alias.name
        if not module_aliases and not imported_readers:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _R10_CLOCK_READERS
                and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases
            ):
                read = f"{func.value.id}.{func.attr}()"
            elif isinstance(func, ast.Name) and func.id in imported_readers:
                read = f"{func.id}()"
            else:
                continue
            yield Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    f"raw clock read '{read}' — inject a "
                    f"repro.observability.Clock (SYSTEM_CLOCK in production, "
                    f"SimulatedClock in tests) so timed artefacts stay "
                    f"deterministic under replay"
                ),
            )


# --------------------------------------------------------------------------
# R15 — unbounded queues / indefinite blocking in the serving tier
# --------------------------------------------------------------------------

#: The one module allowed to construct serving-tier queues: it implements
#: the bounded, shedding :class:`BoundedShardQueue` everything else uses.
_R15_QUEUE_OWNER = "server/scheduling/queueing.py"

#: Queue constructors that grow without bound unless given a size.
_R15_SIZED_QUEUES = frozenset({"Queue", "PriorityQueue", "LifoQueue"})

#: Calls that park a thread forever when given no timeout.
_R15_BLOCKING_CALLS = frozenset({"wait", "acquire", "join"})


class BackpressureBypassRule(RuleProtocol):
    """R15: the serving tier admits load only through bounded queues and
    never blocks without a timeout.

    Overload safety is a global property with local failure modes: one
    convenience ``queue.Queue()`` (unbounded by default) reintroduces
    the exact queue-growth-until-OOM behaviour the admission controller
    and :class:`BoundedShardQueue` exist to prevent, and one zero-arg
    ``.wait()``/``.acquire()``/``.join()`` creates a worker that can
    never be stopped once its wake-up signal is lost.  Queue
    construction in ``server/`` therefore lives only in the owning
    ``scheduling/queueing.py`` module, and every park in the scheduling
    package carries a timeout.  ``time.sleep`` is doubly banned here —
    it both stalls a worker unconditionally and bypasses the injected
    clock (R10).
    """

    rule_id = "R15"
    name = "backpressure-bypass"
    description = "unbounded queue or indefinite blocking call in the serving tier"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        if source.rel_path.endswith(_R15_QUEUE_OWNER):
            return False
        return "server/" in source.rel_path

    def check(self, source: SourceFile) -> Iterator[Violation]:
        in_scheduling = "server/scheduling/" in source.rel_path
        sleep_aliases = self._sleep_aliases(source)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if called is None:
                continue
            violation = self._queue_violation(source, node, called)
            if violation is not None:
                yield violation
                continue
            if in_scheduling:
                violation = self._blocking_violation(
                    source, node, called, sleep_aliases
                )
                if violation is not None:
                    yield violation

    @staticmethod
    def _sleep_aliases(source: SourceFile) -> set[str]:
        aliases: set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        aliases.add(alias.asname or "sleep")
        return aliases

    def _queue_violation(
        self, source: SourceFile, node: ast.Call, called: str
    ) -> Violation | None:
        if called == "SimpleQueue":
            return Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    "SimpleQueue constructed in the server tier — it cannot be "
                    "bounded; route requests through scheduling.BoundedShardQueue"
                ),
            )
        if called in _R15_SIZED_QUEUES and not self._has_bound(node, "maxsize"):
            return Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    f"unbounded {called}() in the server tier — queues here grow "
                    f"until memory does; use scheduling.BoundedShardQueue (or "
                    f"pass an explicit maxsize in the owning queueing module)"
                ),
            )
        if called == "deque" and not self._has_bound(node, "maxlen", arg_index=1):
            return Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    "unbounded deque() in the server tier — buffers on the "
                    "request path need a maxlen (or the bounded queue module)"
                ),
            )
        return None

    @staticmethod
    def _has_bound(node: ast.Call, keyword: str, arg_index: int = 0) -> bool:
        """True when the constructor received a non-zero/non-None bound."""
        candidates: list[ast.expr] = []
        if len(node.args) > arg_index:
            candidates.append(node.args[arg_index])
        for kw in node.keywords:
            if kw.arg == keyword:
                candidates.append(kw.value)
        for value in candidates:
            if isinstance(value, ast.Constant) and value.value in (0, None):
                continue
            return True
        return False

    def _blocking_violation(
        self,
        source: SourceFile,
        node: ast.Call,
        called: str,
        sleep_aliases: set[str],
    ) -> Violation | None:
        func = node.func
        is_time_sleep = (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        )
        if is_time_sleep or (isinstance(func, ast.Name) and func.id in sleep_aliases):
            return Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    "time.sleep in the scheduling tier — a sleeping worker "
                    "serves nothing and ignores the injected clock; park on a "
                    "timed queue poll instead"
                ),
            )
        if (
            isinstance(func, ast.Attribute)
            and called in _R15_BLOCKING_CALLS
            and not node.args
            and not node.keywords
        ):
            return Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    f"zero-argument '.{called}()' in the scheduling tier parks "
                    f"a worker indefinitely — pass a timeout so overload can "
                    f"never wedge the pool"
                ),
            )
        return None


# --------------------------------------------------------------------------
# R16 — epoch-fence bypass around live-graph caches
# --------------------------------------------------------------------------

#: Packages whose distance reads must be epoch-sound: the ranking core
#: and the serving tier both hold references to fenced caches.
_R16_PACKAGES = ("core/", "server/")

#: The module that owns the dynamic cache's fence (it implements the
#: fenced ``lookup`` and may touch ``_entry`` on ``self``).
_R16_CACHE_OWNER = "core/caching.py"

#: Private stores inside :class:`DistanceEngine` and
#: :class:`DynamicCache` that the epoch fence invalidates.  Reading one
#: through another object's attribute skips the fence entirely, so a
#: stale-epoch distance can escape.
_R16_FENCED_STORES = frozenset({"_maps", "_customized", "_pairs", "_entry"})

#: Engine internals that sit *below* the fence: the public
#: ``one_to_many`` / ``many_to_one`` / ``many_to_many`` entry points call
#: ``_observe_epoch`` first, these do not.
_R16_UNFENCED_METHODS = frozenset(
    {"_map", "_search", "_subset", "_ch_bipartite", "_customize", "_observe_epoch"}
)


class EpochBypassRule(RuleProtocol):
    """R16: engine and dynamic-cache reads go through the epoch-fenced API.

    The live-graph guarantee — no Offering Table ever mixes distances
    from two network epochs — is enforced at exactly two choke points:
    :class:`~repro.network.distance_engine.DistanceEngine`'s public
    query methods (which call ``_observe_epoch`` before touching any
    cache) and ``DynamicCache.lookup`` (which takes the weights token as
    a required argument and fences on it first, so an unfenced lookup
    cannot be written).  Reaching around either one — reading a fenced
    store (``_maps``/``_pairs``/``_customized``/``_entry``) through
    another object, or calling a below-fence engine internal — recreates
    the stale-serve bug the fence exists to prevent, and only under
    live-graph churn, where it is hardest to debug.
    """

    rule_id = "R16"
    name = "epoch-bypass"
    description = (
        "reach-in to a fenced engine/dynamic-cache store or a below-fence engine internal"
    )

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        path = f"/{source.rel_path}"
        return any(f"/{pkg}" in path for pkg in _R16_PACKAGES)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        is_owner = source.rel_path.endswith(_R16_CACHE_OWNER)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute):
                violation = self._store_violation(source, node, is_owner)
                if violation is not None:
                    yield violation

    def _store_violation(
        self, source: SourceFile, node: ast.Attribute, is_owner: bool
    ) -> Violation | None:
        attr = node.attr
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if attr in _R16_FENCED_STORES and not on_self and not is_owner:
            return Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    f"direct read of fenced cache store '.{attr}' — it is "
                    f"invalidated by the epoch fence, so reaching in can "
                    f"serve distances from a retired network epoch; use the "
                    f"public engine/cache API"
                ),
            )
        if attr in _R16_UNFENCED_METHODS and not on_self:
            return Violation(
                rule_id=self.rule_id,
                path=source.rel_path,
                line=node.lineno,
                message=(
                    f"call to below-fence engine internal '.{attr}' skips "
                    f"_observe_epoch — use one_to_many / many_to_one / "
                    f"many_to_many, which fence first"
                ),
            )
        return None


# --------------------------------------------------------------------------
# R17 — metric label cardinality
# --------------------------------------------------------------------------

#: Metric-API methods whose keyword arguments are label values.
_R17_LABEL_METHODS = frozenset({"inc", "observe", "labels", "set"})

#: Keywords on those methods that carry *values*, not labels.
_R17_VALUE_KEYWORDS = frozenset({"amount", "value", "exemplar", "buckets"})

#: Label names with a bounded, enumerable value set (outcome enums,
#: endpoint names, ladder levels, record types, engine backends, shard
#: indices, alert metadata).  A label outside this set is either guarded
#: (below) or a cardinality bomb.
_R17_BOUNDED_LABELS = frozenset(
    {
        "outcome",
        "endpoint",
        "level",
        "record_type",
        "backend",
        "shard",
        "alertname",
        "severity",
        "to",
        "state",
        "label",
        "metric",
    }
)

#: Labels whose registry family declares ``max_label_values`` — the
#: cardinality guard bounds them at the sink, so arbitrary (user-derived)
#: values are safe to pass.
_R17_GUARDED_LABELS = frozenset({"tenant"})


class LabelCardinalityRule(RuleProtocol):
    """R17: metric labels stay bounded outside the guarded registry.

    Prometheus-style registries allocate one child series per distinct
    label-value tuple, forever: a single ``tenant=<request field>`` or
    ``trip=f"{...}"`` label on a hot counter turns an unbounded input
    domain into unbounded process memory *and* unbounded exposition size
    (the classic cardinality explosion).  The registry's guard
    (``max_label_values`` + ``__other__`` overflow bucketing) makes that
    safe — but only for families that declare it.  Outside
    ``observability/`` (which owns the guard), this rule therefore
    requires every label keyword on ``inc``/``observe``/``labels``/
    ``set`` to be either a known bounded enumeration or a guarded label,
    and rejects label values built by string interpolation — an
    f-string/``%``/``+``/``.format`` value is how request-derived
    identifiers sneak into label position.
    """

    rule_id = "R17"
    name = "label-cardinality-bypass"
    description = "unbounded or user-derived metric label outside the guarded registry"

    def applies_to(self, source: SourceFile) -> bool:
        if source.is_test:
            return False
        return "observability/" not in source.rel_path

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _R17_LABEL_METHODS
                and node.keywords
            ):
                continue
            for keyword in node.keywords:
                if keyword.arg is None:
                    yield Violation(
                        rule_id=self.rule_id,
                        path=source.rel_path,
                        line=node.lineno,
                        message=(
                            "**-splatted metric labels — the label set cannot "
                            "be checked statically; pass each label keyword "
                            "explicitly"
                        ),
                    )
                    continue
                if keyword.arg in _R17_VALUE_KEYWORDS:
                    continue
                if keyword.arg not in _R17_BOUNDED_LABELS | _R17_GUARDED_LABELS:
                    yield Violation(
                        rule_id=self.rule_id,
                        path=source.rel_path,
                        line=keyword.value.lineno,
                        message=(
                            f"metric label '{keyword.arg}' is not a known "
                            f"bounded enumeration — every distinct value "
                            f"allocates a series forever; add it to the "
                            f"bounded set or declare a max_label_values "
                            f"guard on the family"
                        ),
                    )
                    continue
                if keyword.arg not in _R17_GUARDED_LABELS and self._is_built_string(
                    keyword.value
                ):
                    yield Violation(
                        rule_id=self.rule_id,
                        path=source.rel_path,
                        line=keyword.value.lineno,
                        message=(
                            f"label '{keyword.arg}' value is built by string "
                            f"interpolation — request-derived identifiers in "
                            f"label position explode series cardinality; pass "
                            f"a bounded enumeration value (or route through a "
                            f"guarded label)"
                        ),
                    )

    @staticmethod
    def _is_built_string(value: ast.expr) -> bool:
        """True for f-strings, ``%``/``+`` concatenation, and
        ``.format``/``.join`` calls — the expression shapes that splice
        runtime data into a label value."""
        if isinstance(value, ast.JoinedStr):
            return any(isinstance(part, ast.FormattedValue) for part in value.values)
        if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Mod)):
            return True
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("format", "join")
        ):
            return True
        return False


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

from .passes import PROJECT_RULES  # noqa: E402  (import after rule defs: passes subclass the same protocol)

ALL_RULES: tuple[RuleProtocol, ...] = (
    IntervalComparisonRule(),
    MetricConsistencyRule(),
    DataclassSlotsRule(),
    MutableDefaultRule(),
    CacheExpiryRule(),
    ExceptionHygieneRule(),
    ResilienceBypassRule(),
    EngineBypassRule(),
    JournalBypassRule(),
    ClockBypassRule(),
    *PROJECT_RULES,
    BackpressureBypassRule(),
    EpochBypassRule(),
    LabelCardinalityRule(),
)

RULES_BY_ID: dict[str, RuleProtocol] = {rule.rule_id: rule for rule in ALL_RULES}


def select_rules(ids: Sequence[str] | None = None) -> tuple[RuleProtocol, ...]:
    """The rule objects for ``ids`` (all seventeen when None)."""
    if ids is None:
        return ALL_RULES
    unknown = [rule_id for rule_id in ids if rule_id.upper() not in RULES_BY_ID]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
    return tuple(RULES_BY_ID[rule_id.upper()] for rule_id in ids)
