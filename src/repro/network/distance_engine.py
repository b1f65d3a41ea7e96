"""Shared shortest-path distance engine for the ranking hot path.

Every component evaluation (EcoCharge, the baselines, the oracle grader,
chaos re-rankings) prices derouting with single-source searches over the
*same static network* under a small set of recurring cost functions.  The
:class:`DistanceEngine` is the one place those searches happen:

* results are memoised per ``(weight key, node, direction)`` in an LRU
  bounded by total settled nodes (64 per network node by default) and
  shared across trip segments and across methods, so the Brute-Force
  grader and EcoCharge stop paying for the same ball twice;
* two interchangeable backends sit behind one API — truncated Dijkstra
  (the always-correct fallback, and the paper baseline) and a contraction
  hierarchy (:mod:`repro.network.contraction`) whose per-metric
  customisations and joined pair distances are cached too;
* both backends price a metric once per weight key into a per-arc cost
  vector and settle over it with one flat kernel
  (:func:`~repro.network.shortest_path.settle_arcs`): Dijkstra over the
  network's own arcs, CH over its upward graphs after customisation —
  no search calls a cost function per relaxation;
* every one of those caches is a :class:`~repro.lru.LRU`, and every
  eviction is counted in :attr:`EngineStats.evictions`;
* all delivered distances are quantised to :data:`DISTANCE_DECIMALS`
  decimals, which makes the two backends *bit-comparable* (floating-point
  summation order differs between a Dijkstra path walk and a CH
  up/down join) and makes cache reuse independent of which budget a map
  was originally computed with.

Cost functions are identified by :class:`WeightSpec` — a hashable key
plus the per-edge callable (and optionally a vectorised batch evaluator
used to price every arc at once).  Raw :class:`~repro.network.graph.EdgeWeight`
members are accepted directly.

**Live-graph fencing.** When a :class:`~repro.network.epochs.
GraphEpochManager` is attached, every public query first observes the
manager's ``weights_version`` and *fences*: cached settled maps,
customisations and pair joins belonging to specs built against an older
version are dropped before anything is served, so a stale-epoch read is
structurally impossible.  Fencing is incremental —
only specs that carry a stale ``epoch_version`` are invalidated; static
specs (``epoch_version=None``, e.g. raw ``EdgeWeight`` metrics that never
see incidents) keep their warm state, and re-customization on the CH
backend therefore sweeps only the metrics the incident actually touched.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from ..lru import LRU
from ..observability.deadline import NEVER_EXPIRES, CancellationToken
from ..observability.metrics import hit_ratio
from ..observability.recorder import NOOP_TELEMETRY, Telemetry
from .contraction import ContractionHierarchy, CustomizedHierarchy, combine_spaces
from .epochs import GraphEpochManager
from .graph import EdgeWeight, RoadEdge, RoadNetwork
from .shortest_path import ArcGraph, CostFn, settle_arcs

#: Decimal places every delivered distance is rounded to.  1e-9 h is 3.6 us
#: of travel time — far below any component's resolution, far above the
#: ~1e-16 relative float noise that separates the backends.
DISTANCE_DECIMALS = 9

#: One quantum of the rounding grid; search budgets are inflated by this
#: much so that boundary nodes are included regardless of rounding side.
DISTANCE_QUANTUM = 10.0 ** (-DISTANCE_DECIMALS)

BACKENDS = ("dijkstra", "ch")


@dataclass(frozen=True, slots=True)
class WeightSpec:
    """A cost function with a cache identity.

    ``key`` must be hashable and *uniquely* identify the metric within the
    engine's lifetime (the engine is bound to one network + one traffic
    model, so keys like ``("tt_lo", time_h, now_h)`` suffice).  ``batch``
    optionally evaluates the metric over a fixed edge sequence in one
    call — the vectorised fast path for pricing arc-cost vectors on both
    backends; it must agree bitwise with ``fn`` edge-by-edge.

    ``epoch_version`` is the live-graph ``weights_version`` the metric
    was built against, or ``None`` for metrics that never see incidents
    (raw :class:`EdgeWeight` specs — the static map view).  The engine
    fences cached state per key when the recorded version goes stale, and
    rejects a *reused* key whose version changed — the contract that
    makes serving distances across a weight change structurally
    impossible (see ``docs/live_graph.md``).
    """

    key: Hashable
    fn: CostFn
    batch: Callable[[Sequence[RoadEdge | None]], Sequence[float]] | None = None
    epoch_version: int | None = None

    @classmethod
    def of(cls, weight: "EdgeWeight | WeightSpec") -> "WeightSpec":
        if isinstance(weight, WeightSpec):
            return weight
        if isinstance(weight, EdgeWeight):
            kind = weight
            return cls(key=kind, fn=lambda edge: edge.weight(kind))
        raise TypeError(
            f"expected EdgeWeight or WeightSpec, got {type(weight).__name__}; "
            f"wrap raw callables in WeightSpec(key, fn) so results are cacheable"
        )


@dataclass(slots=True)
class EngineStats:
    """Cache and search accounting for one engine.

    ``cache_hits``/``cache_misses`` count settled-map lookups; each query
    issued through the public API accounts for *exactly one* lookup per
    participating (weight, node, direction) map — never two (regression-
    tested, since an inflated denominator pins the hit rate at a
    meaningless constant).  ``pair_hits``/``pair_misses`` count the CH
    backend's pair-join result cache, the warm-path fast lane that
    answers a bipartite query member without touching the settled maps.
    """

    searches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pair_hits: int = 0
    pair_misses: int = 0
    customisations: int = 0
    customisation_hits: int = 0
    evictions: int = 0
    ch_builds: int = 0
    #: Weight-version bumps the engine observed and fenced (live graph).
    epoch_fences: int = 0
    #: Cached artifacts (maps, arc-cost vectors, customisations, pair
    #: joins) dropped by epoch fencing — zero across a no-op epoch bump.
    epoch_invalidations: int = 0

    #: Integer counter fields, in report order (used for snapshot deltas).
    COUNTER_FIELDS = (
        "searches",
        "cache_hits",
        "cache_misses",
        "pair_hits",
        "pair_misses",
        "customisations",
        "customisation_hits",
        "evictions",
        "ch_builds",
        "epoch_fences",
        "epoch_invalidations",
    )

    @property
    def lookups(self) -> int:
        hits = self.cache_hits
        misses = self.cache_misses
        return hits + misses

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.cache_hits, self.cache_misses)

    @property
    def pair_hit_rate(self) -> float:
        return hit_ratio(self.pair_hits, self.pair_misses)

    def as_dict(self) -> dict[str, float]:
        """Flat counters for experiment reports (JSON-serialisable)."""
        out: dict[str, float] = {name: getattr(self, name) for name in self.COUNTER_FIELDS}
        out["hit_rate"] = self.hit_rate
        out["pair_hit_rate"] = self.pair_hit_rate
        return out


def _quantize(value: float) -> float:
    return round(value, DISTANCE_DECIMALS)


def _arc_costs(
    spec: WeightSpec, edges: Sequence[RoadEdge | None]
) -> np.ndarray:
    """``spec`` priced over ``edges`` as a float64 vector (``inf`` at
    ``None``, a CH shortcut).  ``spec.batch`` prices them in one call; a
    spec without it calls ``fn`` once per edge.  Negative costs are
    rejected: no search stays exact under them."""
    if spec.batch is not None:
        costs = np.asarray(spec.batch(edges), dtype=np.float64)
    else:
        costs = np.array(
            [math.inf if edge is None else spec.fn(edge) for edge in edges],
            dtype=np.float64,
        )
    if np.any(costs[np.isfinite(costs)] < 0):
        raise ValueError("negative arc cost")
    return costs


#: Arc-cost vectors the Dijkstra backend keeps: a segment prices two
#: metrics (its lower and upper travel-time bound), so a few cover the
#: segments in flight; each vector holds one float per network arc.
PRICED_METRICS = 8


#: Sentinel distinguishing "key never seen" from the valid version
#: ``None`` (static spec) in the engine's per-key version ledger.
_UNSEEN = object()


class DistanceEngine:
    """Memoising one-to-many / many-to-one distance facade.

    ``capacity_nodes`` bounds the LRU by the *total number of settled
    nodes* held across all cached maps (a full Dijkstra ball on a large
    network weighs thousands of entries, a CH search space a few dozen —
    counting nodes keeps memory bounded regardless of backend).  The
    default is 64 settled nodes per network node, so the bound scales
    with the network instead of letting a small network's engine grow
    until a fixed node count is reached.
    """

    def __init__(
        self,
        network: RoadNetwork,
        backend: str = "dijkstra",
        capacity_nodes: int | None = None,
        max_customizations: int = 64,
        hierarchy: ContractionHierarchy | None = None,
        capacity_pairs: int = 262_144,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if capacity_nodes is None:
            capacity_nodes = 64 * max(1, network.node_count)
        if capacity_nodes < 1:
            raise ValueError("capacity_nodes must be positive")
        if max_customizations < 1:
            raise ValueError("max_customizations must be positive")
        if capacity_pairs < 1:
            raise ValueError("capacity_pairs must be positive")
        self._network = network
        self._backend = backend
        self._hierarchy = hierarchy
        #: (weight key, node, direction) -> (computed budget, settled map),
        #: each map costing its settled-node count.
        self._maps: LRU[tuple[Hashable, int, str], tuple[float, dict[int, float]]]
        self._maps = LRU(capacity_nodes, cost=lambda entry: len(entry[1]))
        self._customized: LRU[Hashable, CustomizedHierarchy] = LRU(max_customizations)
        #: The network's arcs flattened for the Dijkstra backend, built on
        #: its first search.
        self._arcs: ArcGraph | None = None
        #: weight key -> the metric's cost per ``_arcs`` arc: the Dijkstra
        #: backend's counterpart of a customisation, priced once per key.
        self._priced: LRU[Hashable, list[float]] = LRU(PRICED_METRICS)
        #: Metrics announced by :meth:`prepare` but not yet customised.
        #: Customisation is *deferred* to the first settled-map miss that
        #: needs one of them: a warm segment whose maps are all cached
        #: never pays a triangle sweep (the PR-3 design re-customised on
        #: ``prepare`` even when every search would be served from cache,
        #: which is exactly what made warm CH serving slower than warm
        #: Dijkstra).
        self._pending: tuple[WeightSpec, ...] = ()
        #: Interned small-int ids per weight key: pair-cache keys hash a
        #: 4-int tuple instead of a nested tuple of floats.
        self._spec_ids: dict[Hashable, int] = {}
        #: (spec id, anchor, node, forward) -> (budget, quantised join).
        #: The CH warm path: a bipartite query member whose join result is
        #: cached is answered by this one probe — no settled maps, no
        #: space combine, no re-quantisation.
        self._pairs: LRU[tuple[int, int, int, bool], tuple[float, float]]
        self._pairs = LRU(capacity_pairs)
        self.stats = EngineStats()
        #: Live-graph epoch manager (``attach_epochs``); ``None`` keeps
        #: the engine in its historical static-network behaviour.
        self._epochs: GraphEpochManager | None = None
        #: The weights version all cached state is currently valid for.
        self._fenced_version = 0
        #: Per weight key: the ``epoch_version`` the key was first seen
        #: with (``None`` marks static specs that never fence).
        self._spec_versions: dict[Hashable, object] = {}
        #: Set by a fence that dropped live-metric state; the next CH
        #: customisation is the *re*-customization and reports its latency.
        self._epoch_dirty = False
        #: Installed by the owning environment's ``set_telemetry``; the
        #: no-op default keeps cache hits span-free and searches unguarded.
        self.telemetry: Telemetry = NOOP_TELEMETRY
        #: Installed by the owning environment's ``set_cancellation``; the
        #: default token never expires, so uncancellable callers pay one
        #: empty method call per cache miss.
        self.cancellation: CancellationToken = NEVER_EXPIRES
        # Guards the LRU maps, the customisation cache, and the stats
        # counters as one unit.  Re-entrant because the CH bipartite path
        # calls `_map` per pool member while already inside a query.
        self._lock = threading.RLock()

    # -- configuration ------------------------------------------------------

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def cached_nodes(self) -> int:
        """Total settled nodes currently held across cached maps."""
        return self._maps.total_cost

    @property
    def cached_maps(self) -> int:
        return len(self._maps)

    def set_backend(self, backend: str) -> None:
        """Switch backends; cached maps are backend-specific and dropped."""
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        with self._lock:
            if backend != self._backend:
                self._backend = backend
                self.clear()

    def clear(self) -> None:
        """Drop all cached maps, arc-cost vectors and customisations
        (keeps the hierarchy)."""
        with self._lock:
            self._maps.clear()
            self._priced.clear()
            self._customized.clear()
            self._pending = ()
            self._spec_ids.clear()
            self._pairs.clear()
            self._spec_versions.clear()
            self._epoch_dirty = False

    # -- live-graph epoch fencing -------------------------------------------

    def attach_epochs(self, epochs: GraphEpochManager | None) -> None:
        """Bind the engine to the live graph's epoch manager.

        From here on every public query fences first: cached state built
        against an older ``weights_version`` is unreachable before any
        distance is served.  Detaching (``None``) restores static-network
        behaviour for state cached afterwards.
        """
        with self._lock:
            self._epochs = epochs
            self._fenced_version = 0 if epochs is None else epochs.weights_version

    @property
    def epochs(self) -> GraphEpochManager | None:
        return self._epochs

    def _observe_epoch(self) -> None:
        """Fence cached state up to the manager's current weights version
        (no-op when detached or already current — the no-incident hot
        path pays one integer compare)."""
        manager = self._epochs
        if manager is None:
            return
        version = manager.weights_version
        if version != self._fenced_version:
            self._fence_to(version)

    def _fence_to(self, version: int) -> None:
        """Drop every cached artifact owned by a stale live spec.

        Static specs (``epoch_version=None``) survive — their metrics do
        not depend on incident factors — which is what makes a fence
        incremental rather than a full :meth:`clear`.
        """
        stale = {
            key
            for key, recorded in self._spec_versions.items()
            if recorded is not None and recorded < version  # type: ignore[operator]
        }
        self._fenced_version = version
        self.stats.epoch_fences += 1
        if not stale:
            return
        self.stats.epoch_invalidations += self._invalidate_keys(stale)
        for key in stale:
            del self._spec_versions[key]
        self._epoch_dirty = True

    def _invalidate_keys(self, keys: set[Hashable]) -> int:
        """Remove every cached artifact for the given weight keys in one
        pass over each cache; returns how many artifacts were dropped."""
        dropped = self._maps.drop_where(lambda map_key, _: map_key[0] in keys)
        dropped += self._priced.drop_where(lambda key, _: key in keys)
        dropped += self._customized.drop_where(lambda key, _: key in keys)
        if self._pending:
            self._pending = tuple(p for p in self._pending if p.key not in keys)
        spec_ids = {self._spec_ids[key] for key in keys if key in self._spec_ids}
        if spec_ids:
            dropped += self._pairs.drop_where(lambda pair_key, _: pair_key[0] in spec_ids)
        return dropped

    def _note_spec(self, spec: WeightSpec) -> None:
        """Pin the key -> epoch-version binding; a key *reused* under a
        different version is a weight change in disguise, and its cached
        state is dropped before the query runs (the pair-join cache can
        never serve distances across a weight change)."""
        recorded = self._spec_versions.get(spec.key, _UNSEEN)
        if recorded is _UNSEEN:
            self._spec_versions[spec.key] = spec.epoch_version
            return
        if recorded != spec.epoch_version:
            self.stats.epoch_invalidations += self._invalidate_keys({spec.key})
            self._spec_versions[spec.key] = spec.epoch_version

    def ensure_hierarchy(self) -> ContractionHierarchy:
        """Build (once) and return the contraction hierarchy."""
        if self._hierarchy is None:
            self._hierarchy = ContractionHierarchy.build(self._network)
            self.stats.ch_builds += 1
        return self._hierarchy

    def prepare(self, *weights: EdgeWeight | WeightSpec) -> None:
        """Announce the metrics the next queries will price, as one group.

        Derouting prices each segment under a lower *and* an upper
        travel-time bound; announcing them together means that when a
        settled-map miss does force a customisation, the whole group is
        customised in one stacked triangle sweep
        (:meth:`~repro.network.contraction.ContractionHierarchy.customize_many`
        — k metrics for barely more than one).  Nothing is customised
        *here*: a warm segment whose searches are all served from the map
        or pair caches pays zero customisation work.  Metrics already
        customised are dropped from the group; on the Dijkstra backend
        this is a no-op.
        """
        if self._backend != "ch":
            return
        with self._lock:
            self._observe_epoch()
            pending: list[WeightSpec] = []
            seen: set[Hashable] = set()
            for weight in weights:
                spec = WeightSpec.of(weight)
                self._note_spec(spec)
                if spec.key in self._customized or spec.key in seen:
                    continue
                seen.add(spec.key)
                pending.append(spec)
            # Replace (not extend): stale never-queried groups from earlier
            # segments must not grow the sweep unboundedly.
            self._pending = tuple(pending)

    # -- queries ------------------------------------------------------------

    def one_to_many(
        self,
        source: int,
        targets: Iterable[int],
        weight: EdgeWeight | WeightSpec,
        max_cost: float = math.inf,
    ) -> dict[int, float]:
        """Quantised distances ``source -> target`` for targets within budget.

        Targets that are unreachable, or whose quantised distance exceeds
        ``max_cost``, are absent from the result — the same contract as
        :func:`~repro.network.shortest_path.dijkstra_to_targets`.
        """
        spec = WeightSpec.of(weight)
        with self._lock:
            self._observe_epoch()
            self._note_spec(spec)
            if self._backend == "ch":
                return self._ch_bipartite(spec, [source], targets, max_cost, forward=True)
            ball = self._map(spec, source, "f", max_cost)
            return self._subset(ball, targets, max_cost)

    def many_to_one(
        self,
        sources: Iterable[int],
        target: int,
        weight: EdgeWeight | WeightSpec,
        max_cost: float = math.inf,
    ) -> dict[int, float]:
        """Quantised distances ``source -> target`` keyed by source."""
        spec = WeightSpec.of(weight)
        with self._lock:
            self._observe_epoch()
            self._note_spec(spec)
            if self._backend == "ch":
                return self._ch_bipartite(spec, [target], sources, max_cost, forward=False)
            ball = self._map(spec, target, "b", max_cost)
            return self._subset(ball, sources, max_cost)

    def many_to_many(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        weight: EdgeWeight | WeightSpec,
        max_cost: float = math.inf,
    ) -> dict[tuple[int, int], float]:
        """Quantised distance matrix over ``sources x targets``."""
        out: dict[tuple[int, int], float] = {}
        for source in sources:
            for target, d in self.one_to_many(source, targets, weight, max_cost).items():
                out[(source, target)] = d
        return out

    # -- dijkstra backend ---------------------------------------------------

    def _map(
        self, spec: WeightSpec, node: int, direction: str, max_cost: float
    ) -> dict[int, float]:
        """The settled map for (spec, node, direction), cached and budgeted."""
        key = (spec.key, node, direction)
        budget = max_cost if math.isinf(max_cost) else max_cost + DISTANCE_QUANTUM
        with self._lock:
            cached = self._maps.get(key)
            if cached is not None and cached[0] >= budget:
                self.stats.cache_hits += 1
                return cached[1]
            # Deadline checkpoint on the miss path only: a cache hit is
            # already paid for and serves in O(1), but an expired request
            # must not open a fresh search it can no longer use.
            self.cancellation.checkpoint("engine-search")
            self.stats.cache_misses += 1
            self.stats.searches += 1
            telemetry = self.telemetry
            if telemetry.enabled:
                # Spans only on the miss path: a cache hit above returns with
                # zero telemetry work, keeping the hot path unperturbed.
                started_s = telemetry.clock.monotonic()
                with telemetry.span(
                    "engine.search",
                    tier="engine",
                    backend=self._backend,
                    direction=direction,
                    node=node,
                ):
                    raw = self._search(spec, node, direction, budget)
                telemetry.observe(
                    "ecocharge_engine_search_seconds",
                    telemetry.clock.monotonic() - started_s,
                    backend=self._backend,
                )
            else:
                raw = self._search(spec, node, direction, budget)
            self.stats.evictions += self._maps.put(key, (budget, raw))
            return raw

    def _search(
        self, spec: WeightSpec, node: int, direction: str, budget: float
    ) -> dict[int, float]:
        """The uncached settled-map computation behind :meth:`_map`."""
        if self._backend == "ch":
            custom = self._customize(spec)
            return (
                custom.forward_space(node, budget)
                if direction == "f"
                else custom.backward_space(node, budget)
            )
        network = self._network
        if not network.has_node(node):
            raise KeyError(node)
        arcs = self._arcs
        if arcs is None or arcs.shape != (network.node_count, network.edge_count):
            # First search, or the network grew: arc ids changed, so every
            # priced vector is misaligned.
            arcs = self._arcs = ArcGraph.of(network)
            self._priced.clear()
        weights = self._priced.get(spec.key)
        if weights is None:
            weights = _arc_costs(spec, arcs.edges).tolist()
            self.stats.evictions += self._priced.put(spec.key, weights)
        adjacency = arcs.out_arcs if direction == "f" else arcs.in_arcs
        return settle_arcs(node, adjacency, weights, budget, arcs.span)

    @staticmethod
    def _subset(
        ball: dict[int, float], nodes: Iterable[int], max_cost: float
    ) -> dict[int, float]:
        out: dict[int, float] = {}
        for node in nodes:
            d = ball.get(node)
            if d is None:
                continue
            q = _quantize(d)
            # The isinf guard keeps closed-off nodes (infinite cost under
            # a live-graph closure) out of an unbudgeted query's result:
            # "unreachable" means absent, never a served infinity.
            if q <= max_cost and not math.isinf(q):
                out[node] = q
        return out

    # -- CH backend ---------------------------------------------------------

    def _customize(self, spec: WeightSpec) -> CustomizedHierarchy:
        """The customisation for ``spec``, built lazily on first need.

        A miss customises the whole :meth:`prepare`-announced group (plus
        ``spec`` itself) in one stacked sweep — the cold path pays the same
        single sweep per segment as the eager design did, but a warm
        segment whose searches never miss skips customisation entirely.
        """
        with self._lock:
            cached = self._customized.get(spec.key)
            if cached is not None:
                self.stats.customisation_hits += 1
                return cached
            hierarchy = self.ensure_hierarchy()
            group = [spec] + [
                p
                for p in self._pending
                if p.key != spec.key and p.key not in self._customized
            ]
            self._pending = ()
            rows = [_arc_costs(p, hierarchy.original_edges) for p in group]
            telemetry = self.telemetry
            recustomizing = self._epoch_dirty
            timed = telemetry.enabled and recustomizing
            started_s = telemetry.clock.monotonic() if timed else 0.0
            with telemetry.span(
                "engine.customize", tier="engine", key=str(spec.key), stacked=len(group)
            ):
                customs = hierarchy.customize_many(rows)
            if recustomizing:
                # First sweep after an epoch fence rebinds the live
                # metrics on the new graph: that is the re-customization
                # whose latency degraded serving is hiding.
                self._epoch_dirty = False
                if timed:
                    telemetry.observe(
                        "ecocharge_engine_recustomize_seconds",
                        telemetry.clock.monotonic() - started_s,
                        backend=self._backend,
                    )
            for p, custom in zip(group, customs):
                self.stats.evictions += self._customized.put(p.key, custom)
                self.stats.customisations += 1
            return customs[0]

    def _ch_bipartite(
        self,
        spec: WeightSpec,
        anchors: Sequence[int],
        pool: Iterable[int],
        max_cost: float,
        forward: bool,
    ) -> dict[int, float]:
        """One anchor against a pool, joining cached CH search spaces.

        ``forward=True`` answers anchor -> pool member; ``forward=False``
        answers pool member -> anchor.  Joined, quantised results are
        memoised per ``(spec, anchor, node, direction)`` pair, so a warm
        query is one LRU probe per pool member — the spaces themselves
        (each independently cached in the settled-map LRU) are only
        touched on a pair miss.
        """
        anchor = anchors[0]
        budget = max_cost if math.isinf(max_cost) else max_cost + DISTANCE_QUANTUM
        with self._lock:
            stats = self.stats
            spec_id = self._spec_ids.get(spec.key)
            if spec_id is None:
                spec_id = len(self._spec_ids)
                self._spec_ids[spec.key] = spec_id
            pairs = self._pairs
            anchor_space: dict[int, float] | None = None
            out: dict[int, float] = {}
            for node in pool:
                key = (spec_id, anchor, node, forward)
                cached = pairs.get(key)
                if cached is not None:
                    cached_budget, q = cached
                    # A cached join is exact for any distance it could
                    # prove: within the budget it was computed under, or
                    # already within this query's cutoff.
                    if cached_budget >= budget:
                        stats.pair_hits += 1
                        if q <= max_cost and not math.isinf(q):
                            out[node] = q
                        continue
                    if q <= cached_budget and q <= max_cost:
                        stats.pair_hits += 1
                        out[node] = q
                        continue
                stats.pair_misses += 1
                if anchor_space is None:
                    anchor_space = self._map(
                        spec, anchor, "f" if forward else "b", max_cost
                    )
                node_space = self._map(spec, node, "b" if forward else "f", max_cost)
                best = combine_spaces(anchor_space, node_space)
                q = math.inf if math.isinf(best) else _quantize(best)
                stats.evictions += pairs.put(key, (budget, q))
                if q <= max_cost and not math.isinf(q):
                    out[node] = q
            return out
