"""Shared shortest-path distance engine for the ranking hot path.

Every component evaluation (EcoCharge, the baselines, the oracle grader,
chaos re-rankings) prices derouting with single-source searches over the
*same static network* under a small set of recurring cost functions.  The
:class:`DistanceEngine` is the one place those searches happen:

* on the Dijkstra backend the searches of one call run as **one**
  stacked array kernel (:func:`~repro.network.shortest_path.
  settle_frontier`): :meth:`DistanceEngine.distance_rows` takes up to a
  segment's four derouting searches (optimistic and pessimistic,
  outbound and return), gives each its own priced metric and block of
  one shared label vector, and returns a ``(searches x nodes)`` array of
  distances.  Each search stops once every node asked for is final, so
  its cost follows the pool's reach, not the whole ball out to the
  budget.  ``one_to_many`` and ``many_to_one`` are one-search wrappers
  that return dicts;
* results are memoised per ``(weight key, node, direction)`` (``node``
  may be a sorted tuple: one search seeded at several nodes) in an LRU
  bounded by total held labels (64 per network node by default) and
  shared across trip segments and across methods.  A Dijkstra map holds
  label arrays (:class:`~repro.network.shortest_path.Labels`): final
  labels only, with the budget and whether its search ran to it.  A
  later query reuses it when the budget covers the query and either the
  search ran to the budget or every node the query asks for is held
  (either way the answer is the one a fresh search would give).  Only
  the misses of a call are stacked;
* two interchangeable backends sit behind one API — truncated Dijkstra
  (the always-correct fallback, and the paper baseline) and a contraction
  hierarchy (:mod:`repro.network.contraction`) whose per-metric
  customisations and joined pair distances are cached too;
* both backends price a metric once per weight key into a per-arc cost
  vector (float64); no search calls a cost function per relaxation.
  The Dijkstra backend settles over the network's own arcs with the
  stacked kernel, CH over its upward graphs after customisation with
  the heap kernel :func:`~repro.network.shortest_path.settle_arcs`;
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

**Weight versions.** Every cache is keyed by :attr:`WeightSpec.identity`,
the metric's key plus the live-graph weights version it was built
against, so a spec reads only what was priced under its own version: no
distance crosses a weight change, and the engine needs no epoch manager.
When a spec carries a version newer than any the engine holds, every
older live entry is dropped, one pass per cache, which keeps memory
bounded; static specs (``epoch_version=None``, e.g. raw ``EdgeWeight``
metrics that never see incidents) keep their warm state.  A network that
has grown since its artifacts were cached drops them all, a hierarchy
the engine built included.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from ..interval_array import DISTANCE_DECIMALS
from ..lru import LRU
from ..observability.deadline import NEVER_EXPIRES, CancellationToken
from ..observability.metrics import hit_ratio
from ..observability.recorder import NOOP_TELEMETRY, Telemetry
from .contraction import ContractionHierarchy, CustomizedHierarchy, combine_spaces
from .graph import EdgeWeight, RoadEdge, RoadNetwork
from .shortest_path import ArcGraph, CostFn, FrontierQuery, Labels, settle_frontier

#: One quantum of the rounding grid; search budgets are inflated by this
#: much so that boundary nodes are included regardless of rounding side.
DISTANCE_QUANTUM = 10.0 ** (-DISTANCE_DECIMALS)

BACKENDS = ("dijkstra", "ch")

_T = TypeVar("_T")

#: A metric's cache identity, :attr:`WeightSpec.identity`.
Identity = tuple[Hashable, int | None]


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
    (raw :class:`EdgeWeight` specs — the static map view).  Together
    with ``key`` it is the metric's :attr:`identity`, which every engine
    cache is keyed on: a key reused under another version is another
    metric (see ``docs/live_graph.md``).
    """

    key: Hashable
    fn: CostFn
    batch: Callable[[Sequence[RoadEdge | None]], Sequence[float]] | None = None
    epoch_version: int | None = None

    @property
    def identity(self) -> Identity:
        """The metric's cache identity: ``(key, epoch_version)``."""
        return (self.key, self.epoch_version)

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
    meaningless constant); a stacked ``distance_rows`` call accounts one
    per distinct map among its searches.  ``pair_hits``/``pair_misses``
    count the CH backend's pair-join result cache, the warm-path fast
    lane that answers a bipartite query member without touching the
    settled maps.

    ``searches`` counts the queries a search solved: on Dijkstra each
    missed map of a stacked call (one kernel call solves several), on CH
    each upward search space.  ``settled`` sums the final labels those
    searches returned (the labels at or below a stopped search's
    horizon, or every label within budget): the work the target stop
    saves shows here.
    """

    searches: int = 0
    settled: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pair_hits: int = 0
    pair_misses: int = 0
    customisations: int = 0
    customisation_hits: int = 0
    evictions: int = 0
    ch_builds: int = 0
    #: Cached artifacts (maps, arc-cost vectors, customisations, pair
    #: joins) dropped when a newer weights version arrived — zero across
    #: a no-op epoch bump.
    epoch_invalidations: int = 0

    #: Integer counter fields, in report order (used for snapshot deltas).
    COUNTER_FIELDS = (
        "searches",
        "settled",
        "cache_hits",
        "cache_misses",
        "pair_hits",
        "pair_misses",
        "customisations",
        "customisation_hits",
        "evictions",
        "ch_builds",
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


class Search(NamedTuple):
    """One search of :meth:`DistanceEngine.distance_rows`: costs under
    ``weight`` from ``origin`` (``forward``) or to it.  A tuple origin
    answers, for each node, the nearest of its nodes."""

    weight: EdgeWeight | WeightSpec
    origin: int | tuple[int, ...]
    forward: bool = True


def _quantize(value: float) -> float:
    return round(value, DISTANCE_DECIMALS)


_SCALE = 10.0**DISTANCE_DECIMALS
#: Below this magnitude ``x * _SCALE`` is under 2**43, so its rounding
#: error (half an ulp, at most 2**-10) stays inside :data:`_TIE_MARGIN`.
_FAST_LIMIT = 2.0**43 / _SCALE
_TIE_MARGIN = 1e-3


def quantize_array(values: np.ndarray) -> np.ndarray:
    """:func:`round` to :data:`DISTANCE_DECIMALS` over a float64 array,
    bit for bit, in one pass.

    ``rint(x * 1e9) / 1e9`` is exact wherever the scaled value lands
    clearly off a half-integer: its rounding error then cannot move it
    across the tie, ``rint`` picks the integer ``round`` picks (half to
    even on the exact value), and one IEEE division by the exact ``1e9``
    is the nearest double to that decimal, as ``round`` returns.  Values
    within :data:`_TIE_MARGIN` of a tie, values past :data:`_FAST_LIMIT`
    and non-finite values go through ``round`` itself; no input raises a
    floating-point warning.
    """
    x = np.asarray(values, dtype=np.float64)
    fast = np.abs(x) < _FAST_LIMIT  # False for inf and nan
    scaled = np.where(fast, x, 0.0) * _SCALE
    out = np.rint(scaled) / _SCALE
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > _TIE_MARGIN
    for i in np.flatnonzero(~fast).tolist():
        out[i] = round(float(x[i]), DISTANCE_DECIMALS)
    return out


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


def _search_budget(max_cost: float) -> float:
    """A query's ``max_cost`` as a search budget: inflated by one
    :data:`DISTANCE_QUANTUM` so that a node whose distance rounds down
    onto the cutoff is settled.  A NaN budget is refused: no node is
    within it, and a map cached under it could never be reused."""
    if math.isnan(max_cost):
        raise ValueError("max_cost must not be NaN")
    return max_cost if math.isinf(max_cost) else max_cost + DISTANCE_QUANTUM


def _anchor(target: int | tuple[int, ...]) -> int | tuple[int, ...]:
    """A query's target as a settled-map key: one node, or the sorted
    distinct nodes of a tuple (a single one collapses to the node itself,
    so it shares the single-target map)."""
    if not isinstance(target, tuple):
        return target
    nodes = tuple(sorted(set(target)))
    if not nodes:
        raise ValueError("empty target tuple")
    return nodes[0] if len(nodes) == 1 else nodes


class DistanceEngine:
    """Memoising one-to-many / many-to-one distance facade.

    ``capacity_nodes`` bounds the LRU by the *total number of settled
    nodes* held across all cached maps (a Dijkstra map weighs as many
    entries as its search settled before its last target, up to the whole
    ball on a large network; a CH search space a few dozen — counting
    nodes keeps memory bounded regardless of backend).  The
    default is 64 settled nodes per network node, so the bound scales
    with the network instead of letting a small network's engine grow
    until a fixed node count is reached.

    A ``hierarchy`` passed in is bound to the network as it is: once the
    network grows, every query raises :class:`ValueError`.
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
        #: A hierarchy passed in cannot be rebuilt when the network grows.
        self._given_hierarchy = hierarchy is not None
        #: The network's ``(node_count, edge_count)`` the caches hold.
        self._shape = (network.node_count, network.edge_count)
        #: The newest weights version the caches hold (``None``: none).
        self._live_version: int | None = None
        #: (identity, origin, direction) -> (computed budget, settled
        #: map), each map costing its label count: the final labels of a
        #: Dijkstra search, or a CH upward search space.
        self._maps: LRU[
            tuple[Identity, int | tuple[int, ...], str],
            tuple[float, Labels | dict[int, float]],
        ]
        self._maps = LRU(capacity_nodes, cost=lambda entry: len(entry[1]))
        self._customized: LRU[Identity, CustomizedHierarchy] = LRU(max_customizations)
        #: The network's arcs flattened for the Dijkstra backend, built on
        #: its first search.
        self._arcs: ArcGraph | None = None
        #: identity -> the metric's cost per ``_arcs`` arc: the Dijkstra
        #: backend's counterpart of a customisation, priced once.
        self._priced: LRU[Identity, np.ndarray] = LRU(PRICED_METRICS)
        #: Metrics announced by :meth:`prepare` but not yet customised.
        #: Customisation is *deferred* to the first settled-map miss that
        #: needs one of them: a warm segment whose maps are all cached
        #: never pays a triangle sweep (the PR-3 design re-customised on
        #: ``prepare`` even when every search would be served from cache,
        #: which is exactly what made warm CH serving slower than warm
        #: Dijkstra).
        self._pending: tuple[WeightSpec, ...] = ()
        #: (identity, anchor, node, forward) -> (budget, quantised join).
        #: The CH warm path: a bipartite query member whose join result is
        #: cached is answered by this one probe — no settled maps, no
        #: space combine, no re-quantisation.
        self._pairs: LRU[tuple[Identity, int, int, bool], tuple[float, float]]
        self._pairs = LRU(capacity_pairs)
        self.stats = EngineStats()
        #: Set when a newer weights version retired older live entries;
        #: the next CH customisation is the *re*-customization and
        #: reports its latency.
        self._recustomize = False
        #: Installed by the owning environment's ``set_telemetry``; the
        #: no-op default keeps cache hits span-free and searches unguarded.
        self.telemetry: Telemetry = NOOP_TELEMETRY
        #: Installed by the owning environment's ``set_cancellation``; the
        #: default token never expires, so uncancellable callers pay one
        #: empty method call per cache miss.
        self.cancellation: CancellationToken = NEVER_EXPIRES
        # Guards the LRU maps, the customisation cache, the kernel's
        # scratch and the stats counters as one unit.  Re-entrant because
        # the CH bipartite path calls `_space` per pool member while
        # already inside a query.
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
            self._pairs.clear()
            self._recustomize = False

    # -- cache identity ------------------------------------------------------

    def _admit(self, specs: Iterable[WeightSpec]) -> None:
        """Bring the caches up to the network and to ``specs``.

        A network grown since the caches were filled drops every cached
        artifact.  A spec newer than any version held retires every older
        live entry.  That only bounds memory: each key carries its
        version, so no current spec could read them, and a stale spec
        still in flight prices afresh under its own identity.
        """
        network = self._network
        shape = (network.node_count, network.edge_count)
        if shape != self._shape:
            if self._given_hierarchy:
                raise ValueError("the network changed after its hierarchy was built")
            self.clear()
            self._arcs = None
            self._hierarchy = None
            self._shape = shape
        held = newest = self._live_version
        for spec in specs:
            version = spec.epoch_version
            if version is not None and (newest is None or version > newest):
                newest = version
        if newest == held:
            return
        self._live_version = newest
        if held is None:
            return

        def older(identity: Identity) -> bool:
            return identity[1] is not None and identity[1] < newest

        dropped = self._maps.drop_where(lambda key, _: older(key[0]))
        dropped += self._priced.drop_where(lambda key, _: older(key))
        dropped += self._customized.drop_where(lambda key, _: older(key))
        dropped += self._pairs.drop_where(lambda key, _: older(key[0]))
        self._pending = tuple(p for p in self._pending if not older(p.identity))
        self.stats.epoch_invalidations += dropped
        self._recustomize = True

    def ensure_hierarchy(self) -> ContractionHierarchy:
        """Build (once per network shape) and return the contraction
        hierarchy."""
        with self._lock:
            self._admit(())
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
        specs = [WeightSpec.of(weight) for weight in weights]
        with self._lock:
            self._admit(specs)
            pending: list[WeightSpec] = []
            seen: set[Identity] = set()
            for spec in specs:
                identity = spec.identity
                if identity in self._customized or identity in seen:
                    continue
                seen.add(identity)
                pending.append(spec)
            # Replace (not extend): stale never-queried groups from earlier
            # segments must not grow the sweep unboundedly.
            self._pending = tuple(pending)

    # -- queries ------------------------------------------------------------

    def distance_rows(
        self,
        searches: Sequence[Search],
        nodes: Sequence[int] | np.ndarray,
        max_cost: float = math.inf,
    ) -> np.ndarray:
        """Quantised distances of several searches over one node list
        (a sequence, or an ``int64`` array read without a copy).

        Returns a ``(len(searches), len(nodes))`` float64 array.  Row ``i``
        holds, for each of ``nodes``, the distance from
        ``searches[i].origin`` to it (``forward``) or from it to the origin
        (backward); a tuple origin answers the nearest of its nodes,
        bitwise equal to the elementwise minimum of its single-node rows.
        ``inf`` marks a node out of reach, over ``max_cost`` or not in the
        network: no finite entry exceeds ``max_cost``, and no infinity is
        ever a served distance.  A NaN ``max_cost`` raises
        :class:`ValueError`, an unknown origin :class:`KeyError`.

        On Dijkstra each search accounts one settled-map lookup, and the
        searches that miss run as **one** call of
        :func:`~repro.network.shortest_path.settle_frontier`, each
        stopping once every node asked for is final.  On CH each row is
        the search's bipartite join.
        """
        budget = _search_budget(max_cost)
        specs = [WeightSpec.of(search.weight) for search in searches]
        with self._lock:
            self._admit(specs)
            if self._backend == "ch":
                if isinstance(nodes, np.ndarray):
                    nodes = nodes.tolist()
                distinct = list(dict.fromkeys(nodes))
                return np.array(
                    [
                        [found.get(node, math.inf) for node in nodes]
                        for found in (
                            self._ch_map(spec, search, distinct, max_cost)
                            for spec, search in zip(specs, searches)
                        )
                    ],
                    dtype=np.float64,
                ).reshape(len(searches), len(nodes))
            raw = self._labels(specs, searches, nodes, budget)
        finite = np.isfinite(raw)
        raw[finite] = quantize_array(raw[finite])
        # A label within the inflated budget may still round past the cutoff.
        raw[raw > max_cost] = math.inf
        return raw

    def one_to_many(
        self,
        source: int,
        targets: Iterable[int],
        weight: EdgeWeight | WeightSpec,
        max_cost: float = math.inf,
    ) -> dict[int, float]:
        """Quantised distances ``source -> target`` for targets within budget.

        The result holds each target reachable from ``source`` whose
        quantised distance is finite and at most ``max_cost``, keyed by
        target; every other target is absent (``source`` itself maps to
        ``0.0``).  Absent means unreachable within budget, never a served
        infinity.  A NaN ``max_cost`` raises :class:`ValueError`.  One
        :class:`Search` through :meth:`distance_rows`.
        """
        return self._row_map(Search(weight, source), targets, max_cost)

    def many_to_one(
        self,
        sources: Iterable[int],
        target: int | tuple[int, ...],
        weight: EdgeWeight | WeightSpec,
        max_cost: float = math.inf,
    ) -> dict[int, float]:
        """Quantised distances ``source -> target`` keyed by source.

        A tuple ``target`` answers each source's distance to the *nearest*
        of its nodes, bitwise equal to the elementwise minimum of the
        single-target queries.  On Dijkstra that is one search seeded at
        every target, cached under the sorted tuple; on CH each target
        keeps its own bipartite join.  A NaN ``max_cost`` raises
        :class:`ValueError`.  One backward :class:`Search` through
        :meth:`distance_rows`.
        """
        return self._row_map(Search(weight, target, forward=False), sources, max_cost)

    def many_to_many(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        weight: EdgeWeight | WeightSpec,
        max_cost: float = math.inf,
    ) -> dict[tuple[int, int], float]:
        """Quantised distance matrix over ``sources x targets``.  A NaN
        ``max_cost`` raises :class:`ValueError`, even with no sources."""
        _search_budget(max_cost)
        out: dict[tuple[int, int], float] = {}
        for source in sources:
            for target, d in self.one_to_many(source, targets, weight, max_cost).items():
                out[(source, target)] = d
        return out

    def _row_map(
        self, search: Search, nodes: Iterable[int], max_cost: float
    ) -> dict[int, float]:
        """One search's row as a map over its finite entries."""
        wanted = list(dict.fromkeys(nodes))
        row = self.distance_rows([search], wanted, max_cost)[0]
        return {
            node: d
            for node, d, finite in zip(wanted, row.tolist(), np.isfinite(row).tolist())
            if finite
        }

    def _timed_search(self, run: Callable[[], _T], **attrs: object) -> _T:
        """``run()``, inside one ``engine.search`` span when telemetry is
        on.  Only misses search: a cache hit pays no telemetry work."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return run()
        started_s = telemetry.clock.monotonic()
        with telemetry.span("engine.search", tier="engine", backend=self._backend, **attrs):
            result = run()
        telemetry.observe(
            "ecocharge_engine_search_seconds",
            telemetry.clock.monotonic() - started_s,
            backend=self._backend,
        )
        return result

    # -- dijkstra backend ---------------------------------------------------

    def _labels(
        self,
        specs: Sequence[WeightSpec],
        searches: Sequence[Search],
        nodes: Sequence[int] | np.ndarray,
        budget: float,
    ) -> np.ndarray:
        """Unquantised labels of ``searches`` at ``nodes`` (``inf`` where
        none is held), from the settled-map memo or one stacked search.

        Each distinct ``(identity, origin, direction)`` map is looked up
        once.  A cached map serves when its budget covers ``budget`` and
        either its search ran to the budget or it holds every node asked
        for; the rest run together, stopped at ``nodes``, and replace
        their maps.
        """
        arcs = self._arc_graph()
        columns = arcs.positions(nodes)
        known = columns >= 0
        out = np.empty((len(searches), len(columns)))
        groups: dict[tuple[Identity, int | tuple[int, ...], str], list[int]] = {}
        for row, (spec, search) in enumerate(zip(specs, searches)):
            key = (spec.identity, _anchor(search.origin), "f" if search.forward else "b")
            groups.setdefault(key, []).append(row)
        stats = self.stats
        missed: list[tuple[Identity, int | tuple[int, ...], str]] = []
        queries: list[FrontierQuery] = []
        for key, rows in groups.items():
            cached = self._maps.get(key)
            if cached is not None and cached[0] >= budget:
                labels = cached[1]
                found = labels.at(columns)
                if labels.complete or np.isfinite(found[known]).all():
                    stats.cache_hits += 1
                    out[rows] = found
                    continue
            origins = arcs.positions(key[1] if isinstance(key[1], tuple) else (key[1],))
            if np.any(origins < 0):
                raise KeyError(key[1])
            spec = specs[rows[0]]
            missed.append(key)
            queries.append(FrontierQuery(origins, key[2] == "f", self._costs(spec, arcs)))
        if not queries:
            return out
        # Deadline checkpoint on the miss path only: a cache hit is
        # already paid for, but an expired request must not open a fresh
        # search it can no longer use.
        self.cancellation.checkpoint("engine-search")
        stats.cache_misses += len(queries)
        stats.searches += len(queries)
        targets = columns[known]
        settled = self._timed_search(
            lambda: settle_frontier(arcs, queries, budget, targets), queries=len(queries)
        )
        for key, labels in zip(missed, settled):
            stats.settled += len(labels)
            stats.evictions += self._maps.put(key, (budget, labels))
            out[groups[key]] = labels.at(columns)
        return out

    def _arc_graph(self) -> ArcGraph:
        """The network's arcs, flattened on first need."""
        if self._arcs is None:
            self._arcs = ArcGraph.of(self._network)
        return self._arcs

    def _costs(self, spec: WeightSpec, arcs: ArcGraph) -> np.ndarray:
        """``spec`` priced over every arc, once per identity."""
        identity = spec.identity
        costs = self._priced.get(identity)
        if costs is None:
            costs = _arc_costs(spec, arcs.edges)
            self.stats.evictions += self._priced.put(identity, costs)
        return costs

    # -- CH backend ---------------------------------------------------------

    def _ch_map(
        self, spec: WeightSpec, search: Search, nodes: Iterable[int], max_cost: float
    ) -> dict[int, float]:
        """One search's bipartite joins; a tuple origin keeps one join per
        node and answers the nearest."""
        anchor = _anchor(search.origin)
        if not isinstance(anchor, tuple):
            return self._ch_bipartite(spec, anchor, nodes, max_cost, search.forward)
        pool = list(nodes)
        out: dict[int, float] = {}
        for node in anchor:
            for member, d in self._ch_bipartite(
                spec, node, pool, max_cost, search.forward
            ).items():
                if d < out.get(member, math.inf):
                    out[member] = d
        return out

    def _space(
        self, spec: WeightSpec, node: int, direction: str, max_cost: float
    ) -> dict[int, float]:
        """The upward search space for (spec, node, direction), cached
        and budgeted: a cached space serves any query its budget covers."""
        key = (spec.identity, node, direction)
        budget = _search_budget(max_cost)
        with self._lock:
            cached = self._maps.get(key)
            if cached is not None and cached[0] >= budget:
                self.stats.cache_hits += 1
                return cached[1]  # type: ignore[return-value]
            self.cancellation.checkpoint("engine-search")
            self.stats.cache_misses += 1
            self.stats.searches += 1

            def grow() -> dict[int, float]:
                custom = self._customize(spec)
                if direction == "f":
                    return custom.forward_space(node, budget)
                return custom.backward_space(node, budget)

            space = self._timed_search(grow, direction=direction, node=node)
            self.stats.settled += len(space)
            self.stats.evictions += self._maps.put(key, (budget, space))
            return space

    def _customize(self, spec: WeightSpec) -> CustomizedHierarchy:
        """The customisation for ``spec``, built lazily on first need.

        A miss customises the whole :meth:`prepare`-announced group (plus
        ``spec`` itself) in one stacked sweep — the cold path pays the same
        single sweep per segment as the eager design did, but a warm
        segment whose searches never miss skips customisation entirely.
        """
        identity = spec.identity
        with self._lock:
            cached = self._customized.get(identity)
            if cached is not None:
                self.stats.customisation_hits += 1
                return cached
            hierarchy = self.ensure_hierarchy()
            group = [spec] + [
                p
                for p in self._pending
                if p.identity != identity and p.identity not in self._customized
            ]
            self._pending = ()
            rows = [_arc_costs(p, hierarchy.original_edges) for p in group]
            telemetry = self.telemetry
            recustomizing = self._recustomize
            timed = telemetry.enabled and recustomizing
            started_s = telemetry.clock.monotonic() if timed else 0.0
            with telemetry.span(
                "engine.customize", tier="engine", key=str(spec.key), stacked=len(group)
            ):
                customs = hierarchy.customize_many(rows)
            if recustomizing:
                # First sweep after a weights version retired the old
                # live metrics prices them on the new graph: that is the
                # re-customization whose latency degraded serving hides.
                self._recustomize = False
                if timed:
                    telemetry.observe(
                        "ecocharge_engine_recustomize_seconds",
                        telemetry.clock.monotonic() - started_s,
                        backend=self._backend,
                    )
            for p, custom in zip(group, customs):
                self.stats.evictions += self._customized.put(p.identity, custom)
                self.stats.customisations += 1
            return customs[0]

    def _ch_bipartite(
        self,
        spec: WeightSpec,
        anchor: int,
        pool: Iterable[int],
        max_cost: float,
        forward: bool,
    ) -> dict[int, float]:
        """One anchor against a pool, joining cached CH search spaces.

        ``forward=True`` answers anchor -> pool member; ``forward=False``
        answers pool member -> anchor.  Joined, quantised results are
        memoised per ``(identity, anchor, node, direction)``, so a warm
        query is one LRU probe per pool member — the spaces themselves
        (each independently cached in the settled-map LRU) are only
        touched on a pair miss.
        """
        budget = _search_budget(max_cost)
        with self._lock:
            stats = self.stats
            identity = spec.identity
            pairs = self._pairs
            anchor_space: dict[int, float] | None = None
            out: dict[int, float] = {}
            for node in pool:
                key = (identity, anchor, node, forward)
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
                    anchor_space = self._space(
                        spec, anchor, "f" if forward else "b", max_cost
                    )
                node_space = self._space(spec, node, "b" if forward else "f", max_cost)
                best = combine_spaces(anchor_space, node_space)
                q = math.inf if math.isinf(best) else _quantize(best)
                stats.evictions += pairs.put(key, (budget, q))
                if q <= max_cost and not math.isinf(q):
                    out[node] = q
            return out
