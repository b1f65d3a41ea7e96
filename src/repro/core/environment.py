"""The charging environment: everything the ranking algorithms query.

Bundles the road network, the charger set ``B``, and the three Estimated
Component services (plus ETA) behind two views:

* :meth:`ChargingEnvironment.score_pool` — the *forecast* view used by the
  ranking algorithms (interval-valued, Algorithm 1 lines 4-10);
* :meth:`ChargingEnvironment.true_components` — the *oracle* view used by
  the evaluation to compute the ground-truth SC every method is graded
  against (the brute-force optimum defines 100 %, Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..chargers.charger import Charger
from ..chargers.pool import ChargerPool
from ..chargers.registry import ChargerRegistry
from ..estimation.availability import AvailabilityEstimator
from ..estimation.derouting import DeroutingEstimator, rejoin_nodes
from ..estimation.eta import EtaEstimator
from ..estimation.sustainable import SustainableChargingEstimator
from ..estimation.traffic import TrafficModel
from ..estimation.weather import WeatherModel
from ..network.distance_engine import DistanceEngine, Search
from ..network.epochs import GraphEpochManager
from ..network.graph import RoadNetwork
from ..network.path import TripSegment
from ..observability.deadline import NEVER_EXPIRES, CancellationToken
from ..observability.metrics import field_readings
from ..observability.recorder import NOOP_TELEMETRY, Telemetry
from ..interval_array import ComponentArrays


@dataclass(frozen=True, slots=True)
class TrueComponents:
    """Ground-truth (point-valued) normalised components for one charger."""

    charger_id: int
    sustainable: float
    availability: float
    derouting: float


class ChargingEnvironment:
    """Road network + chargers + estimators, wired together."""

    def __init__(
        self,
        network: RoadNetwork,
        registry: ChargerRegistry,
        weather: WeatherModel | None = None,
        traffic: TrafficModel | None = None,
        seed: int = 0,
        charging_window_h: float = 1.0,
        engine: str | DistanceEngine = "dijkstra",
        telemetry: Telemetry = NOOP_TELEMETRY,
    ) -> None:
        self.network = network
        self.registry = registry
        self.seed = seed
        self.weather = weather if weather is not None else WeatherModel(seed=seed)
        self.traffic = traffic if traffic is not None else TrafficModel(seed=seed)
        self.sustainable = SustainableChargingEstimator(registry, self.weather)
        self.availability = AvailabilityEstimator(registry, seed=seed)
        #: One shared distance engine: every shortest-path query made on
        #: behalf of this environment (forecast pricing, oracle grading,
        #: chaos re-rankings) funnels through the same memoised instance.
        self.engine = (
            engine if isinstance(engine, DistanceEngine) else DistanceEngine(network, backend=engine)
        )
        self.derouting = DeroutingEstimator(network, self.traffic, engine=self.engine)
        self.eta = EtaEstimator(self.traffic)
        if charging_window_h <= 0:
            raise ValueError("charging window must be positive")
        self.charging_window_h = charging_window_h
        #: The active request's cancellation token (scheduler-installed);
        #: the no-op default keeps uncancellable callers checkpoint-free.
        self.cancellation: CancellationToken = NEVER_EXPIRES
        #: Live-graph epoch manager (None = static network).
        self.epochs: GraphEpochManager | None = None
        self.set_telemetry(telemetry)

    def cold_copy(self) -> "ChargingEnvironment":
        """A plain environment over the same network, catalog, seed and
        models with every cache empty: fresh weather and traffic models
        of the same parameters, fresh estimators (the busy timetables are
        regenerated from the seed), and a new engine on the same backend.
        The copy answers every query as this one does; epochs, telemetry
        and cancellation are not carried over."""
        return ChargingEnvironment(
            self.network,
            self.registry,
            weather=self.weather.cold_copy(),
            traffic=self.traffic.cold_copy(),
            seed=self.seed,
            charging_window_h=self.charging_window_h,
            engine=self.engine.backend,
        )

    def set_engine_backend(self, backend: str) -> None:
        """Switch the shared distance engine backend ("dijkstra" | "ch")."""
        self.engine.set_backend(backend)

    def set_telemetry(self, telemetry: Telemetry) -> None:
        """Install a telemetry recorder on this environment and the tiers
        it owns (the shared distance engine).  A live recorder reads the
        engine's stats, and an attached epoch manager's, in place."""
        self.telemetry = telemetry
        engine = self.engine
        engine.telemetry = telemetry
        telemetry.read_through(
            engine, ecocharge_engine_events=lambda: field_readings(engine.stats)
        )
        if self.epochs is not None:
            self.epochs.publish(telemetry)

    def set_cancellation(self, token: CancellationToken) -> None:
        """Install the active request's deadline token on this environment
        and the tiers it owns, mirroring :meth:`set_telemetry`.

        The scheduler calls this at dispatch (and resets to
        :data:`~repro.observability.deadline.NEVER_EXPIRES` after), so an
        expired request stops at the next checkpoint — before the next
        charger scored, before the next engine search — instead of
        finishing an answer nobody is waiting for.
        """
        self.cancellation = token
        self.engine.cancellation = token

    def set_epochs(self, epochs: GraphEpochManager) -> None:
        """Attach a live-graph epoch manager, mirroring :meth:`set_telemetry`.

        Wires the tiers this environment owns: the traffic model starts
        pricing against the manager's incident factors (metrics built
        *after* this call see the live graph; earlier specs keep their
        admission epoch), and the shared distance engine fences its warm
        caches on every weight-changing epoch bump.
        """
        if epochs.network is not self.network:
            raise ValueError("epoch manager must wrap this environment's network")
        self.epochs = epochs
        self.traffic.set_epochs(epochs)
        self.engine.attach_epochs(epochs)
        epochs.publish(self.telemetry)

    def current_epoch(self) -> int:
        """The live-graph epoch (0 when no manager is attached)."""
        return self.epochs.epoch if self.epochs is not None else 0

    def weights_token(self) -> int:
        """The *weight-changing* epoch token caches fence on.

        Distinct from :meth:`current_epoch`: the manager bumps the epoch
        on every ``apply`` (a durable audit event), but the weights
        version only when an edge cost actually changed — so fencing the
        dynamic cache on this token keeps a no-op epoch bump free (zero
        invalidations, bitwise-identical tables).
        """
        return self.epochs.weights_version if self.epochs is not None else 0

    # -- forecast view (what the algorithms see) ----------------------------

    def score_pool(
        self,
        segment: TripSegment,
        chargers: Sequence[Charger],
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
        search_budget_h: float | None = None,
    ) -> ComponentArrays:
        """Interval L/A/D for every charger in the pool (Alg. 1 lines 4-10),
        as one :class:`ComponentArrays` row per charger in pool order.

        Derouting is batch-priced (four shortest-path searches for the
        whole pool); ``search_budget_h`` bounds those searches — EcoCharge
        passes its ``R``-derived budget, Brute Force passes None (whole
        environment).  Sustainable and availability are array kernels
        over the whole pool.  The three estimators read one
        :class:`~repro.chargers.pool.ChargerPool`: a pool the registry
        cut is used as it is, any other sequence is converted once here.
        """
        pool = ChargerPool.of(chargers)
        derouting = self.derouting.batch_estimate(
            segment,
            pool,
            time_h=eta_h,
            now_h=now_h,
            next_segment=next_segment,
            search_budget_h=search_budget_h,
        )
        # One deadline checkpoint per pool, before L and A are priced: an
        # expired request stops here rather than pricing the pool.
        self.cancellation.checkpoint("pool")
        sustainable = self.sustainable.batch_estimate(
            pool, eta_h, now_h, window_h=self.charging_window_h
        )
        availability = self.availability.batch_estimate(pool, eta_h, now_h)
        return ComponentArrays(
            charger_ids=derouting.charger_ids,
            sustainable=sustainable,
            availability=availability,
            derouting=derouting.normalised,
        )

    # -- oracle view (what the evaluation grades against) -------------------

    def true_components(
        self,
        segment: TripSegment,
        charger: Charger,
        time_h: float,
        next_segment: TripSegment | None = None,
    ) -> TrueComponents:
        """Ground-truth normalised components for one charger."""
        power = self.sustainable.true_power_kw(charger, time_h)
        sustainable = min(1.0, power / self.sustainable.max_power_kw)
        availability = self.availability.true_availability(charger, time_h)
        hours = self.derouting.true_cost_h(segment, charger, time_h, next_segment)
        derouting = min(1.0, hours / self.derouting.max_derouting_h)
        return TrueComponents(charger.charger_id, sustainable, availability, derouting)

    def true_components_pool(
        self,
        segment: TripSegment,
        chargers: Iterable[Charger],
        time_h: float,
        next_segment: TripSegment | None = None,
    ) -> dict[int, TrueComponents]:
        """Batch oracle components (one stacked search call for the pool)."""
        pool = list(chargers)
        spec = self.traffic.travel_time_spec(time_h)

        max_h = self.derouting.max_derouting_h
        out, back = self.engine.distance_rows(
            (
                Search(spec, segment.anchor_node),
                Search(spec, rejoin_nodes(segment, next_segment), forward=False),
            ),
            [charger.node_id for charger in pool],
            max_cost=max_h,
        )
        total = out + back
        hours = np.where(np.isinf(total), max_h, np.minimum(max_h, total)).tolist()

        results: dict[int, TrueComponents] = {}
        for charger, charger_hours in zip(pool, hours):
            power = self.sustainable.true_power_kw(charger, time_h)
            sustainable = min(1.0, power / self.sustainable.max_power_kw)
            availability = self.availability.true_availability(charger, time_h)
            results[charger.charger_id] = TrueComponents(
                charger.charger_id,
                sustainable,
                availability,
                min(1.0, charger_hours / max_h),
            )
        return results
