"""Epoch-versioned live-graph updates (incidents, closures, reopenings).

The paper's premise is *continuous* ranking while the world moves, but a
road network built once would otherwise be frozen at build time: a
closure today must not be served from yesterday's warm caches.  This
module is the single mutation point for the live graph:

* an :class:`Incident` multiplies one edge's travel-time cost (closures
  use ``+inf``; a reopening restores the multiplier to 1.0);
* :class:`GraphEpochManager` applies incident batches as **atomic epoch
  bumps** and hands out immutable per-epoch factor tables, so a cost
  function built on epoch *e* keeps pricing epoch *e* forever — readers
  are never torn across a bump;
* every transition records a **worst-case ratio bound** ``[lo, hi]``
  (``lo <= 1 <= hi``) on how much any shortest-path cost may have moved,
  which is what lets the serving tier widen a previous epoch's intervals
  into a *sound* degraded response while re-customization is in flight
  (``docs/live_graph.md``).

Two version counters are deliberately distinct: ``epoch`` bumps on
*every* applied batch (including no-ops, so serving can prove a no-op
changed nothing), while ``weights_version`` bumps only when some edge
cost actually changed — cache keys and fences use ``weights_version``,
which is why a no-op bump invalidates exactly nothing.

The hierarchy topology never changes (customizable contraction
hierarchies exist precisely so metric changes are a re-customization,
not a rebuild — arXiv 2103.10359); only edge *costs* move.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field
from random import Random
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..observability.metrics import field_readings
from .graph import RoadNetwork

if TYPE_CHECKING:
    from ..observability.recorder import Telemetry

__all__ = [
    "Incident",
    "EpochTransition",
    "EpochStats",
    "GraphEpochManager",
    "IncidentStream",
    "VACUOUS_BOUND",
]

#: The bound returned when no useful ratio bound exists (a closure, or
#: history evicted): every non-negative cost satisfies it, so widening
#: with it is still sound — just uninformative — and callers should fall
#: back to a fresh computation on the live graph.
VACUOUS_BOUND: tuple[float, float] = (0.0, math.inf)


@dataclass(frozen=True, slots=True)
class Incident:
    """One edge-cost change: ``multiplier`` scales the edge's travel
    time from this epoch on (an *absolute* factor relative to the static
    map, not relative to the previous incident on the edge).

    ``math.inf`` closes the edge; ``1.0`` restores it to the static map
    (a reopening).  Multipliers apply to travel-time metrics derived
    from the traffic model; raw static map weights (``EdgeWeight``
    specs) deliberately never see incidents.
    """

    source: int
    target: int
    multiplier: float

    def __post_init__(self) -> None:
        if math.isnan(self.multiplier):
            raise ValueError("incident multiplier must not be NaN")
        if not self.multiplier > 0.0:
            raise ValueError("incident multiplier must be positive (inf closes)")

    @classmethod
    def congestion(cls, source: int, target: int, multiplier: float) -> "Incident":
        if not math.isfinite(multiplier):
            raise ValueError("congestion multiplier must be finite")
        return cls(source, target, multiplier)

    @classmethod
    def closure(cls, source: int, target: int) -> "Incident":
        return cls(source, target, math.inf)

    @classmethod
    def reopening(cls, source: int, target: int) -> "Incident":
        return cls(source, target, 1.0)

    @property
    def is_closure(self) -> bool:
        return math.isinf(self.multiplier)

    @property
    def is_reopening(self) -> bool:
        return self.multiplier == 1.0


@dataclass(frozen=True, slots=True)
class EpochTransition:
    """The record of one atomic epoch bump.

    ``ratio_lo``/``ratio_hi`` bound ``new_cost / old_cost`` over *all*
    edges (unchanged edges contribute ratio 1.0, so the bound always
    brackets 1).  Because every path's cost is a sum of edge costs, any
    shortest-path distance ``d`` satisfies
    ``d_new in [ratio_lo * d_old, ratio_hi * d_old]`` — the widening
    bound degraded serving relies on.  A closure makes ``ratio_hi``
    infinite (the bound is vacuous); a reopening of a closed edge makes
    ``ratio_lo`` zero.
    """

    epoch: int
    weights_version: int
    changed: frozenset[tuple[int, int]]
    ratio_lo: float
    ratio_hi: float

    @property
    def is_noop(self) -> bool:
        return not self.changed

    @property
    def is_vacuous(self) -> bool:
        return math.isinf(self.ratio_hi)


@dataclass(slots=True)
class EpochStats:
    """Monotonic counters for the live-graph layer; a live telemetry
    registry reads them in place (:meth:`GraphEpochManager.publish`)."""

    epochs: int = 0
    weight_epochs: int = 0
    noop_epochs: int = 0
    incidents_applied: int = 0
    closures_applied: int = 0
    reopenings_applied: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class GraphEpochManager:
    """The single mutation point for live edge-cost changes.

    ``apply`` swaps in a **new** factor table under the lock (copy on
    write) and bumps the epoch; the previous table object is never
    mutated, so a cost function that captured it keeps pricing its
    admission epoch consistently — in-flight work completes on the epoch
    it started on, and a torn read (half old, half new factors) is
    structurally impossible.

    ``max_history`` bounds the retained transition log; asking for a
    bound across an evicted transition returns :data:`VACUOUS_BOUND`,
    which is sound (it brackets everything) but tells the caller to
    recompute rather than widen.
    """

    def __init__(self, network: RoadNetwork, max_history: int = 64):
        if max_history < 1:
            raise ValueError("max_history must be positive")
        self._network = network
        self._max_history = max_history
        self._lock = threading.RLock()
        self._epoch = 0
        self._weights_version = 0
        #: Current absolute multipliers, ``(source, target) -> factor``.
        #: Treated as immutable: ``apply`` replaces the dict wholesale.
        self._factors: dict[tuple[int, int], float] = {}
        self._transitions: list[EpochTransition] = []
        self.stats = EpochStats()

    def publish(self, telemetry: "Telemetry") -> None:
        """Have a live recorder read this manager's counters and versions
        in place (one source however many environments share it)."""
        telemetry.read_through(
            self,
            ecocharge_epoch_events=lambda: field_readings(self.stats),
            ecocharge_epoch_current=lambda: {(): float(self._epoch)},
            ecocharge_weights_version=lambda: {(): float(self._weights_version)},
        )

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def weights_version(self) -> int:
        return self._weights_version

    @property
    def factors(self) -> Mapping[tuple[int, int], float]:
        """The current epoch's factor table (immutable snapshot — safe
        to capture in a cost function; it will never change)."""
        return self._factors

    def snapshot(self) -> tuple[int, Mapping[tuple[int, int], float]]:
        """Atomic (weights version, factor table) pair — the two reads
        under one lock, so a concurrent bump can never pair an old
        version with a new table (or vice versa)."""
        with self._lock:
            return (self._weights_version, self._factors)

    def factor(self, source: int, target: int) -> float:
        return self._factors.get((source, target), 1.0)

    def is_closed(self, source: int, target: int) -> bool:
        return math.isinf(self.factor(source, target))

    def active_incidents(self) -> Mapping[tuple[int, int], float]:
        """Edges whose multiplier currently differs from the static map."""
        return dict(self._factors)

    def apply(self, incidents: Sequence[Incident] | Iterable[Incident]) -> EpochTransition:
        """Apply one incident batch as an atomic epoch bump.

        Unknown edges are rejected before any state changes, so a bad
        batch leaves the manager untouched.  Returns the transition
        record (a no-op batch still bumps ``epoch`` — but not
        ``weights_version`` — so callers can prove nothing changed).
        """
        batch = tuple(incidents)
        for incident in batch:
            # Raises KeyError on an unknown edge before any mutation.
            self._network.edge(incident.source, incident.target)
        with self._lock:
            old = self._factors
            changed: dict[tuple[int, int], tuple[float, float]] = {}
            for incident in batch:
                key = (incident.source, incident.target)
                before = changed[key][0] if key in changed else old.get(key, 1.0)
                if incident.multiplier != before:
                    changed[key] = (before, incident.multiplier)
                elif key in changed:
                    del changed[key]

            self._epoch += 1
            self.stats.epochs += 1
            self.stats.incidents_applied += len(batch)
            for incident in batch:
                if incident.is_closure:
                    self.stats.closures_applied += 1
                elif incident.is_reopening:
                    self.stats.reopenings_applied += 1

            if not changed:
                self.stats.noop_epochs += 1
                transition = EpochTransition(
                    epoch=self._epoch,
                    weights_version=self._weights_version,
                    changed=frozenset(),
                    ratio_lo=1.0,
                    ratio_hi=1.0,
                )
            else:
                new = dict(old)
                ratio_lo, ratio_hi = 1.0, 1.0
                for key, (before, after) in changed.items():
                    if after == 1.0:
                        new.pop(key, None)
                    else:
                        new[key] = after
                    ratio = 0.0 if math.isinf(before) else after / before
                    ratio_lo = min(ratio_lo, ratio)
                    ratio_hi = max(ratio_hi, ratio)
                self._weights_version += 1
                self.stats.weight_epochs += 1
                self._factors = new
                transition = EpochTransition(
                    epoch=self._epoch,
                    weights_version=self._weights_version,
                    changed=frozenset(changed),
                    ratio_lo=ratio_lo,
                    ratio_hi=ratio_hi,
                )
            self._transitions.append(transition)
            if len(self._transitions) > self._max_history:
                del self._transitions[: -self._max_history]
            return transition

    def transitions_since(self, epoch: int) -> tuple[EpochTransition, ...]:
        """Transitions applied strictly after ``epoch``, oldest first.

        Raises ``LookupError`` when part of that span has been evicted
        from the bounded history — the caller cannot reconstruct what
        happened and must treat the bound as vacuous.
        """
        with self._lock:
            if epoch > self._epoch:
                raise ValueError(f"epoch {epoch} is in the future (now {self._epoch})")
            if epoch == self._epoch:
                return ()
            wanted = self._epoch - epoch
            if wanted > len(self._transitions):
                raise LookupError(
                    f"transitions since epoch {epoch} evicted from history"
                )
            return tuple(self._transitions[-wanted:])

    def bound_since(self, epoch: int) -> tuple[float, float]:
        """Cumulative worst-case cost-ratio bound from ``epoch`` to now.

        The product of the per-transition bounds: if ``d`` was a
        shortest-path cost on ``epoch``, the live cost lies in
        ``[lo * d, hi * d]``.  Always brackets 1; returns
        :data:`VACUOUS_BOUND` when the span left the bounded history.
        """
        try:
            transitions = self.transitions_since(epoch)
        except LookupError:
            return VACUOUS_BOUND
        lo, hi = 1.0, 1.0
        for transition in transitions:
            lo *= transition.ratio_lo
            hi *= transition.ratio_hi
        return (lo, hi)


class IncidentStream:
    """Seedable deterministic incident generator for chaos runs.

    Draws from :class:`random.Random` seeded with ``(seed,
    "incidents")`` — the same seed yields the same storm forever, so an
    epoch bug found under a storm replays identically.  Closures are
    tracked and eventually reopened, so a long storm never drives the
    whole network unreachable.
    """

    def __init__(
        self,
        network: RoadNetwork,
        seed: int = 0,
        multiplier_lo: float = 1.25,
        multiplier_hi: float = 4.0,
        closure_rate: float = 0.2,
        reopen_rate: float = 0.5,
        max_closed: int = 2,
    ):
        if not 1.0 <= multiplier_lo <= multiplier_hi:
            raise ValueError("need 1.0 <= multiplier_lo <= multiplier_hi")
        if not 0.0 <= closure_rate <= 1.0 or not 0.0 <= reopen_rate <= 1.0:
            raise ValueError("rates must be in [0, 1]")
        if max_closed < 0:
            raise ValueError("max_closed must be non-negative")
        self._network = network
        self._edges = tuple((e.source, e.target) for e in network.edges())
        if not self._edges:
            raise ValueError("network has no edges to disturb")
        self._rng = Random(f"{seed}:incidents")
        self._multiplier_lo = multiplier_lo
        self._multiplier_hi = multiplier_hi
        self._closure_rate = closure_rate
        self._reopen_rate = reopen_rate
        self._max_closed = max_closed
        self._closed: list[tuple[int, int]] = []
        self.batches_emitted = 0

    def next_batch(self, size: int = 3) -> tuple[Incident, ...]:
        """The next deterministic incident batch (possibly empty when
        ``size`` is 0 — useful for proving no-op bumps change nothing)."""
        rng = self._rng
        batch: list[Incident] = []
        # Reopen old closures first so storms stay survivable.
        still_closed: list[tuple[int, int]] = []
        for source, target in self._closed:
            if rng.random() < self._reopen_rate:
                batch.append(Incident.reopening(source, target))
            else:
                still_closed.append((source, target))
        self._closed = still_closed
        for _ in range(size):
            source, target = rng.choice(self._edges)
            if (
                len(self._closed) < self._max_closed
                and (source, target) not in self._closed
                and rng.random() < self._closure_rate
            ):
                batch.append(Incident.closure(source, target))
                self._closed.append((source, target))
            else:
                multiplier = rng.uniform(self._multiplier_lo, self._multiplier_hi)
                batch.append(Incident.congestion(source, target, multiplier))
        self.batches_emitted += 1
        return tuple(batch)
