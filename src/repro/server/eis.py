"""EcoCharge Information Server (EIS).

The centralised aggregation tier of the architecture (Figure 4): it fronts
the external APIs, consolidates per-region data into snapshots, and caches
responses so that many clients traversing the same area do not multiply
upstream calls.

All upstream access flows through a
:class:`~repro.resilience.gateway.ResilienceGateway` (retry with backoff,
circuit breakers, serve-stale, interval-widening fallback — see
``docs/resilience.md``), so the EIS keeps answering, with honestly wider
intervals, while providers misbehave.  ``repro-check`` rule R7 keeps raw
API access out of this tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..chargers.charger import Charger
from ..core.environment import ChargingEnvironment
from ..intervals import Interval
from ..estimation.weather import WeatherForecast
from ..resilience import (
    FaultInjector,
    FaultTolerantEnvironment,
    HealthRegistry,
    ResilienceConfig,
    ResilienceGateway,
)
from ..spatial.geometry import Point
from .api import ApiUsage
from .cache import ResponseCache

if TYPE_CHECKING:
    from ..core.ecocharge import EcoChargeConfig


@dataclass(frozen=True)
class RegionSnapshot:
    """Consolidated per-request payload handed to a client.

    Contains everything the client-side Algorithm 1 needs for one
    Filtering pass: the nearby chargers, the weather forecast for the ETA
    window, and per-charger availability intervals.

    ``degraded_components`` names the endpoints (``"catalog"``,
    ``"weather"``, ``"busy"``) whose data was served stale or from the
    conservative fallback rather than live; an empty tuple means a fully
    fresh snapshot.
    """

    origin: Point
    radius_km: float
    time_h: float
    chargers: tuple[Charger, ...]
    weather: WeatherForecast
    availability: dict[int, Interval]
    degraded_components: tuple[str, ...] = ()

    @property
    def charger_count(self) -> int:
        return len(self.chargers)

    @property
    def is_degraded(self) -> bool:
        return bool(self.degraded_components)


class EcoChargeInformationServer:
    """The EIS: resilience gateway + response cache + snapshot assembly."""

    def __init__(
        self,
        environment: ChargingEnvironment,
        cache_ttl_h: float = 0.5,
        resilience: ResilienceConfig | None = None,
        injector: FaultInjector | None = None,
    ):
        self.environment = environment
        self.usage = ApiUsage()
        self.cache = ResponseCache(ttl_h=cache_ttl_h)
        self.gateway = ResilienceGateway.build(
            environment,
            usage=self.usage,
            cache=self.cache,
            config=resilience,
            injector=injector,
        )
        # Server-side ranking (Mode 2) runs over the same degradation
        # ladder the snapshot path uses, so central answers survive
        # provider faults exactly like client-assembled ones.
        self.serving_environment = FaultTolerantEnvironment(environment, self.gateway)
        self.requests_served = 0
        self._rankers: dict["EcoChargeConfig", object] = {}

    @property
    def health(self) -> HealthRegistry:
        """Per-endpoint resilience counters (alongside ``self.usage``)."""
        return self.gateway.health

    def region_snapshot(
        self, origin: Point, radius_km: float, eta_h: float, now_h: float
    ) -> RegionSnapshot:
        """Serve one consolidated region request (cached).

        Degraded snapshots are returned but never cached: the moment the
        providers recover, the next request in the same bucket gets fresh
        data instead of inheriting a degraded payload for a full TTL.
        """
        self.requests_served += 1
        with self.environment.telemetry.span(
            "server.region_snapshot", tier="server", radius_km=radius_km
        ):
            key = self.cache.spatial_key("region", origin, eta_h) + (round(radius_km, 1),)
            cached = self.cache.lookup(key, now_h)
            if cached is not None:
                return cached.value
            snapshot = self._build_snapshot(origin, radius_km, eta_h, now_h)
            if not snapshot.is_degraded:
                self.cache.put(key, now_h, snapshot)
            return snapshot

    def _build_snapshot(
        self, origin: Point, radius_km: float, eta_h: float, now_h: float
    ) -> RegionSnapshot:
        degraded: set[str] = set()
        catalog = self.gateway.nearby(origin, radius_km, now_h)
        if catalog.level.is_degraded:
            degraded.add("catalog")
        chargers = tuple(catalog.value)
        weather = self.gateway.forecast(origin, eta_h, now_h)
        if weather.level.is_degraded:
            degraded.add("weather")
        availability: dict[int, Interval] = {}
        fetches = self.gateway.availability(chargers, eta_h, now_h)
        for charger, fetch in zip(chargers, fetches):
            if fetch.level.is_degraded:
                degraded.add("busy")
            availability[charger.charger_id] = fetch.value
        return RegionSnapshot(
            origin=origin,
            radius_km=radius_km,
            time_h=eta_h,
            chargers=chargers,
            weather=weather.value,
            availability=availability,
            degraded_components=tuple(sorted(degraded)),
        )

    def traffic_model(self, now_h: float):
        """Traffic feed for client-side routing (cached per time slot;
        on full feed failure clients keep the on-board static map)."""
        return self.gateway.traffic_snapshot(now_h).value

    def upstream_calls_saved(self) -> int:
        """How many upstream API calls the response cache absorbed."""
        return self.cache.stats.hits

    # -- Mode 2: server-side ranking ------------------------------------------

    def rank_trip(self, trip, config=None):
        """Mode-2 entry point: compute the whole CkNN-EC answer centrally.

        The client sends only the trip and receives ready Offering Tables;
        one ranker is kept per configuration (the frozen config is the
        key, so configs that differ in any field never share one), and
        concurrent vehicles with the same preferences share nothing but
        code (each call resets the per-trip dynamic cache).
        """
        from ..core.ecocharge import EcoChargeConfig, EcoChargeRanker
        from ..core.ranking import run_over_trip
        from ..observability.tracing import trip_correlation_id

        config = config if config is not None else EcoChargeConfig()
        ranker = self._rankers.get(config)
        if ranker is None:
            ranker = EcoChargeRanker(self.serving_environment, config)
            self._rankers[config] = ranker
        self.requests_served += 1
        with self.serving_environment.telemetry.span(
            "server.rank_trip",
            tier="server",
            trace_id=trip_correlation_id(trip),
            k=config.k,
        ):
            return run_over_trip(
                ranker, self.serving_environment, trip, segment_km=config.segment_km
            )
