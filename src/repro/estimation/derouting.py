"""Derouting cost ``D`` estimator (Eq. 3, Algorithm 1 lines 9-10).

The cost of leaving the scheduled trip to visit a charger: travel from the
current segment to the charger plus the cheaper of returning to the same
segment or joining the next one (Section III-C, Filtering phase).  Costs
are travel-time hours under the traffic model's optimistic/pessimistic
bounds, so ``D`` is an interval; it is normalised by an environment-wide
maximum so every method scores against the same yardstick.

All shortest-path work goes through the shared
:class:`~repro.network.distance_engine.DistanceEngine` (repro-check rule
R8): the engine memoises distance maps across segments, query modes, and
re-rankings, and transparently swaps truncated Dijkstra for the
contraction-hierarchy backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..chargers.charger import Charger
from ..chargers.pool import ChargerPool
from ..interval_array import IntervalArray
from ..network.distance_engine import DistanceEngine, Search
from ..network.graph import RoadNetwork
from ..network.path import TripSegment
from ..validation import require_finite
from .traffic import TrafficModel

#: Reference speed used to convert the environment diameter into the
#: normalising maximum derouting time.
REFERENCE_SPEED_KMH = 40.0


def rejoin_nodes(segment: TripSegment, next_segment: TripSegment | None) -> tuple[int, ...]:
    """Where a deroute may rejoin the trip: the end of its own segment or,
    when there is one, the end of the next (Section III-C)."""
    same = segment.node_ids[-1]
    if next_segment is None or next_segment.node_ids[-1] == same:
        return (same,)
    return (same, next_segment.node_ids[-1])


@dataclass(frozen=True, slots=True)
class DeroutingArrays:
    """A pool's raw and normalised ``D`` in flat form: row ``i`` belongs
    to ``charger_ids[i]`` (see :meth:`DeroutingEstimator.batch_estimate`)."""

    charger_ids: np.ndarray
    hours: IntervalArray
    normalised: IntervalArray


class DeroutingEstimator:
    """Batch derouting estimator for a candidate pool.

    A naive implementation runs two shortest-path searches per charger;
    this one prices an entire pool with four searches per segment
    (optimistic and pessimistic, outbound and return, each return search
    seeded at both rejoin points at once), which is what keeps the
    Brute-Force baseline's per-point cost linear in |B| rather than
    |B| x Dijkstra.  The searches themselves ride the shared
    :class:`DistanceEngine`, so repeated pricings of the same segment time
    (by other query modes, the oracle grader, or chaos re-runs) are cache
    hits rather than new searches.
    """

    def __init__(
        self,
        network: RoadNetwork,
        traffic: TrafficModel,
        max_derouting_h: float | None = None,
        engine: DistanceEngine | None = None,
    ):
        self._network = network
        self._traffic = traffic
        self._engine = engine if engine is not None else DistanceEngine(network)
        if max_derouting_h is None:
            bounds = network.bounds()
            diameter = math.hypot(bounds.width, bounds.height)
            # Out to the far corner and back at the reference speed.
            max_derouting_h = 2.0 * diameter / REFERENCE_SPEED_KMH
        require_finite("max_derouting_h", max_derouting_h, above=0.0)
        self.max_derouting_h = max_derouting_h

    @property
    def engine(self) -> DistanceEngine:
        return self._engine

    def batch_estimate(
        self,
        segment: TripSegment,
        chargers: Iterable[Charger],
        time_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
        search_budget_h: float | None = None,
    ) -> DeroutingArrays:
        """``[D_min, D_max]`` for every charger in the pool, as arrays.

        ``time_h`` is when the deroute would happen (ETA at the segment);
        ``now_h`` is when the forecast is made.  Chargers unreachable
        within ``search_budget_h`` (default: the normalising maximum) get
        the saturated cost of 1.0 rather than being dropped, mirroring the
        paper's treatment of chargers "outside the initial scheduled trip".

        The four searches (optimistic and pessimistic, outbound and
        return) are one :meth:`DistanceEngine.distance_rows` call.  A leg
        out of reach is ``inf``, so it makes ``out + back`` infinite, and
        ``inf`` rows collapse to the saturated ``max_derouting_h`` cost.
        ``back`` is already the cheaper of the two rejoin points (Section
        III-C).
        """
        pool = ChargerPool.of(chargers)
        ids = pool.charger_ids
        if not pool:
            empty = IntervalArray.exact(np.empty(0, dtype=np.float64))
            return DeroutingArrays(charger_ids=ids, hours=empty, normalised=empty)
        budget = search_budget_h if search_budget_h is not None else self.max_derouting_h
        spec_low, spec_high = self._traffic.travel_time_bound_specs(time_h, now_h)
        # One stacked sweep customises both bound metrics (CH backend).
        self._engine.prepare(spec_low, spec_high)
        origin = segment.anchor_node
        # One return search to both rejoin points (the segment's own end
        # and the next segment's) gives each charger the cheaper of the two.
        rejoins = rejoin_nodes(segment, next_segment)
        out_low, out_high, back_low, back_high = self._engine.distance_rows(
            (
                Search(spec_low, origin),
                Search(spec_high, origin),
                Search(spec_low, rejoins, forward=False),
                Search(spec_high, rejoins, forward=False),
            ),
            pool.node_ids,
            max_cost=budget,
        )
        total_lo = out_low + back_low
        total_hi = out_high + back_high
        unreachable = np.isinf(total_lo) | np.isinf(total_hi)
        max_h = self.max_derouting_h
        hours = IntervalArray(
            lo=np.where(unreachable, max_h, np.minimum(total_lo, total_hi)),
            hi=np.where(unreachable, max_h, np.maximum(total_lo, total_hi)),
        )
        return DeroutingArrays(
            charger_ids=ids,
            hours=hours,
            normalised=hours.scaled_by_max(max_h).clamp(0.0, 1.0),
        )

    def true_cost_h(
        self,
        segment: TripSegment,
        charger: Charger,
        time_h: float,
        next_segment: TripSegment | None = None,
    ) -> float:
        """Ground-truth derouting time (oracle view, exact traffic)."""
        spec = self._traffic.travel_time_spec(time_h)
        max_h = self.max_derouting_h
        out = self._engine.one_to_many(
            segment.anchor_node, (charger.node_id,), spec, max_cost=max_h
        )
        cost_out = out.get(charger.node_id)
        if cost_out is None:
            return max_h
        rejoins = rejoin_nodes(segment, next_segment)
        back = self._engine.one_to_many(charger.node_id, rejoins, spec, max_cost=max_h)
        if not back:
            return max_h
        return min(max_h, cost_out + min(back.values()))
