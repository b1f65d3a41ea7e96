"""The resilient provider gateway: one degradation ladder per endpoint.

Every upstream fetch of the serving stack goes down the same ladder:

1. **fresh** — answered from the response cache within TTL;
2. **live / retried** — the resilient call path (circuit breaker, then
   retries with exponential backoff and jitter under a per-call
   deadline);
3. **stale** — on upstream failure, a cached entry past its TTL but
   within the endpoint's staleness bound is served, with interval
   payloads honestly *widened* for their age;
4. **fallback** — with no stale entry either, the estimate degrades to
   the conservative floor derived from
   :meth:`~repro.estimation.component.ForecastConfidence.fallback_interval`
   — wider-but-correct instead of an exception.

The estimator fronts (:meth:`ResilienceGateway.window_attenuation`,
:meth:`ResilienceGateway.availability`) take a whole charger pool: the
ladder still descends once per charger, in pool order, while the
provider prices every row with one kernel call.

The gateway is the *only* sanctioned way for server-tier code to reach
the raw provider APIs (``repro-check`` rule R7 enforces this): it owns
the fault-injecting wrappers, the per-endpoint breakers/retry policies,
and the health counters that reconcile against ``ApiUsage``.  A live
telemetry registry reads those counters, the ``ApiUsage`` totals and the
breaker states in place (:meth:`ResilienceGateway.publish`); nothing is
counted twice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..estimation.component import DEFAULT_CONFIDENCE, ForecastConfidence
from ..estimation.weather import ATTENUATION, SkyState, WeatherForecast
from ..observability.metrics import field_readings
from .endpoint import ResilientEndpoint
from .errors import UpstreamError
from .faults import (
    FaultInjector,
    FaultyBusyTimesApi,
    FaultyChargerCatalogApi,
    FaultyTrafficApi,
    FaultyWeatherApi,
)
from .health import HealthRegistry
from .policy import BUSY, CATALOG, DEFAULT_RESILIENCE, ENDPOINTS, TRAFFIC, WEATHER, ResilienceConfig

if TYPE_CHECKING:  # runtime imports are deferred to break the server cycle
    from ..chargers.charger import Charger
    from ..core.environment import ChargingEnvironment
    from ..observability.recorder import Telemetry
    from ..server.api import ApiUsage
    from ..server.cache import ResponseCache
    from ..spatial.geometry import Point

#: Admissible bounds of the attenuation payload (clear sky .. heavy rain).
_ATTENUATION_LO = min(ATTENUATION.values())
_ATTENUATION_HI = max(ATTENUATION.values())


class ServiceLevel(enum.Enum):
    """Which rung of the degradation ladder answered a fetch."""

    CACHED = "cached"
    LIVE = "live"
    RETRIED = "retried"
    STALE = "stale"
    FALLBACK = "fallback"

    @property
    def is_degraded(self) -> bool:
        return self in (ServiceLevel.STALE, ServiceLevel.FALLBACK)


#: The ``EndpointHealth`` counter that records each ladder rung.
_RUNG_COUNTERS = {
    ServiceLevel.CACHED: "cache_hits",
    ServiceLevel.LIVE: "live",
    ServiceLevel.RETRIED: "retried",
    ServiceLevel.STALE: "stale_served",
    ServiceLevel.FALLBACK: "fallbacks",
}

#: ``ecocharge_breaker_state`` value per breaker state.
_BREAKER_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


@dataclass(frozen=True, slots=True)
class FetchResult:
    """One ladder descent: the served value, its rung, and its age."""

    value: Any
    level: ServiceLevel
    age_h: float = 0.0


class ResilienceGateway:
    """Fault-wrapped provider APIs behind per-endpoint ladders."""

    def __init__(
        self,
        environment: "ChargingEnvironment",
        usage: "ApiUsage",
        cache: "ResponseCache",
        weather_api: FaultyWeatherApi,
        busy_api_guarded: FaultyBusyTimesApi,
        traffic_api_guarded: FaultyTrafficApi,
        catalog_api_guarded: FaultyChargerCatalogApi,
        config: ResilienceConfig,
        injector: FaultInjector,
        health: HealthRegistry,
        confidence: ForecastConfidence = DEFAULT_CONFIDENCE,
    ):
        self.environment = environment
        self.usage = usage
        self.cache = cache
        self.config = config
        self.injector = injector
        self.health = health
        self.confidence = confidence
        self._weather = weather_api
        self._busy = busy_api_guarded
        self._traffic = traffic_api_guarded
        self._catalog = catalog_api_guarded
        self.endpoints: dict[str, ResilientEndpoint] = {
            name: ResilientEndpoint(
                name,
                policy=config.for_endpoint(name).retry,
                breaker=config.for_endpoint(name).breaker,
                health=health.for_endpoint(name),
                seed=config.seed,
            )
            for name in ENDPOINTS
        }
        self.publish(environment.telemetry)

    @classmethod
    def build(
        cls,
        environment: "ChargingEnvironment",
        usage: "ApiUsage | None" = None,
        cache: "ResponseCache | None" = None,
        config: ResilienceConfig | None = None,
        injector: FaultInjector | None = None,
        health: HealthRegistry | None = None,
        confidence: ForecastConfidence = DEFAULT_CONFIDENCE,
    ) -> "ResilienceGateway":
        """Wire raw provider APIs -> fault wrappers -> ladders.

        This factory is the single construction site of the raw
        ``server/api.py`` clients (rule R7 keeps them out of the rest of
        the server tier).  Imports are local to avoid an import cycle
        with ``repro.server``.
        """
        from ..server.api import (
            ApiUsage,
            BusyTimesApi,
            ChargerCatalogApi,
            TrafficApi,
            WeatherApi,
        )
        from ..server.cache import ResponseCache

        usage = usage if usage is not None else ApiUsage()
        cache = cache if cache is not None else ResponseCache()
        config = config if config is not None else DEFAULT_RESILIENCE
        injector = injector if injector is not None else FaultInjector()
        health = health if health is not None else HealthRegistry()
        return cls(
            environment=environment,
            usage=usage,
            cache=cache,
            weather_api=FaultyWeatherApi(WeatherApi(environment.weather, usage), injector),
            busy_api_guarded=FaultyBusyTimesApi(
                BusyTimesApi(environment.availability, usage), injector
            ),
            traffic_api_guarded=FaultyTrafficApi(
                TrafficApi(environment.traffic, usage), injector
            ),
            catalog_api_guarded=FaultyChargerCatalogApi(
                ChargerCatalogApi(environment.registry, usage), injector
            ),
            config=config,
            injector=injector,
            health=health,
            confidence=confidence,
        )

    # -- the ladder ----------------------------------------------------------

    def _fetch(
        self,
        endpoint_name: str,
        keys: "Sequence[tuple]",
        now_h: float,
        fetch: Callable[[int], Any],
        stale_fn: Callable[[Any, float], Any],
        fallback_fn: Callable[[], Any],
    ) -> list[FetchResult]:
        """One ladder descent per key, in key order.

        ``fetch(row)`` is one upstream attempt for ``keys[row]``; a pool
        front prices every row with one kernel call behind it.  Each key
        still gets its own cache reads and writes, deadline checkpoint,
        breaker and retry decisions, fault roll and rung, so a pool walk
        leaves the same state as one fetch per key in the same order.
        """
        # Looked up once per walk, not once per key.
        endpoint = self.endpoints[endpoint_name]
        health = endpoint.health
        cache = self.cache
        cancellation = self.environment.cancellation
        max_stale_h = self.config.for_endpoint(endpoint_name).staleness.max_stale_h

        def descend(row: int, key: tuple) -> FetchResult:
            cached = cache.lookup(key, now_h)
            if cached is not None:
                health.record_cache_hit()
                return FetchResult(cached.value, ServiceLevel.CACHED, cached.age_h)
            # Deadline checkpoint before descending to the upstream rungs:
            # a cache hit above is served regardless (already paid for),
            # but an expired request must not spend a provider call, a
            # retry budget, or a fallback computation it can no longer use.
            cancellation.checkpoint("gateway")
            retried_before = health.retried
            try:
                value = endpoint.call(partial(fetch, row), now_h)
            except UpstreamError:
                stale = cache.lookup_stale(key, now_h, max_stale_h)
                if stale is not None:
                    health.record_stale_served()
                    return FetchResult(
                        stale_fn(stale.value, stale.age_h), ServiceLevel.STALE, stale.age_h
                    )
                health.record_fallback()
                return FetchResult(fallback_fn(), ServiceLevel.FALLBACK, math.inf)
            cache.put(key, now_h, value)
            retried = health.retried > retried_before
            level = ServiceLevel.RETRIED if retried else ServiceLevel.LIVE
            return FetchResult(value, level, 0.0)

        telemetry = self.environment.telemetry
        if not telemetry.enabled:
            return [descend(row, key) for row, key in enumerate(keys)]
        results = []
        for row, key in enumerate(keys):
            started_s = telemetry.clock.monotonic()
            with telemetry.span("gateway.fetch", tier="gateway", endpoint=endpoint_name):
                result = descend(row, key)
                # Exactly one ladder event per logical fetch — the span-level
                # twin of the health identity "every call lands on one rung".
                telemetry.event(
                    "gateway.ladder", endpoint=endpoint_name, level=result.level.value
                )
            telemetry.observe(
                "ecocharge_gateway_fetch_seconds",
                telemetry.clock.monotonic() - started_s,
                endpoint=endpoint_name,
            )
            results.append(result)
        return results

    # -- endpoint fronts -----------------------------------------------------

    def forecast(self, location: "Point", target_h: float, now_h: float) -> FetchResult:
        """Hourly weather forecast through the ladder."""
        from ..server.cache import ResponseCache

        key = ResponseCache.spatial_key("rz-weather", location, target_h)

        def stale_fn(value: WeatherForecast, age_h: float) -> WeatherForecast:
            return replace(
                value,
                attenuation=self.confidence.stale_interval(
                    value.attenuation, age_h, _ATTENUATION_LO, _ATTENUATION_HI
                ),
                degraded=True,
            )

        def fallback_fn() -> WeatherForecast:
            return WeatherForecast(
                time_h=target_h,
                expected_state=SkyState.CLOUDY,
                attenuation=self.confidence.fallback_interval(
                    _ATTENUATION_LO, _ATTENUATION_HI
                ),
                degraded=True,
            )

        return self._fetch(
            WEATHER,
            (key,),
            now_h,
            lambda _row: self._weather.forecast(location, target_h, now_h),
            stale_fn,
            fallback_fn,
        )[0]

    def window_attenuation(
        self, chargers: "Sequence[Charger]", start_h: float, end_h: float, now_h: float
    ) -> list[FetchResult]:
        """Charging-window attenuation hull per charger of a pool, in pool
        order, through the ladder.

        Keyed by each charger's 2 km cell and the *exact* window (not
        slot-bucketed): estimator-layer queries must be byte-identical to
        a direct model call on the happy path, so cache entries may only
        answer the very same question they stored — the cache's job here
        is serve-stale, not cross-query sharing (the region snapshot
        layer does that).
        """
        start_key, span_key = round(start_h, 4), round(end_h - start_h, 3)
        keys = [
            (
                "rz-wxwin",
                math.floor(charger.point.x / 2.0),
                math.floor(charger.point.y / 2.0),
                start_key,
                span_key,
            )
            for charger in chargers
        ]
        request = self._weather.window_forecast_pool(
            [charger.point for charger in chargers], start_h, end_h, now_h
        )
        return self._fetch(
            WEATHER,
            keys,
            now_h,
            request.fetch,
            lambda value, age_h: self.confidence.stale_interval(
                value, age_h, _ATTENUATION_LO, _ATTENUATION_HI
            ),
            lambda: self.confidence.fallback_interval(_ATTENUATION_LO, _ATTENUATION_HI),
        )

    def availability(
        self, chargers: "Sequence[Charger]", eta_h: float, now_h: float
    ) -> list[FetchResult]:
        """Availability interval per charger of a pool, in pool order,
        through the ladder.

        Keyed by the exact ETA (see :meth:`window_attenuation` for why
        estimator-layer keys are never slot-bucketed)."""
        eta_key = round(eta_h, 4)
        keys = [("rz-busy", charger.charger_id, eta_key) for charger in chargers]
        return self._fetch(
            BUSY,
            keys,
            now_h,
            self._busy.availability_pool(chargers, eta_h, now_h).fetch,
            lambda value, age_h: self.confidence.stale_interval(value, age_h),
            lambda: self.confidence.fallback_interval(0.0, 1.0),
        )

    def traffic_snapshot(self, now_h: float) -> FetchResult:
        """Traffic feed through the ladder.

        The *value* is always a usable traffic model: on full failure
        clients keep routing on the on-board static map (the simulation
        shares the model object), but the FALLBACK level obliges callers
        to widen any congestion-derived intervals to their floor.
        """
        key = ("rz-traffic", math.floor(now_h / 0.25))
        return self._fetch(
            TRAFFIC,
            (key,),
            now_h,
            lambda _row: self._traffic.model_snapshot(now_h),
            lambda value, age_h: value,
            lambda: self.environment.traffic,
        )[0]

    def nearby(self, location: "Point", radius_km: float, now_h: float) -> FetchResult:
        """Charger catalog through the ladder.

        The catalog is quasi-static infrastructure, so its staleness
        bound is unbounded by default; with no cached copy at all the
        fallback is the honest empty list.
        """
        key = (
            "rz-catalog",
            math.floor(location.x / 2.0),
            math.floor(location.y / 2.0),
            round(radius_km, 1),
        )
        return self._fetch(
            CATALOG,
            (key,),
            now_h,
            lambda _row: self._catalog.nearby(location, radius_km, now_h),
            lambda value, age_h: value,
            lambda: [],
        )[0]

    # -- observability -------------------------------------------------------

    def publish(self, telemetry: "Telemetry") -> None:
        """Have a live recorder read this gateway's health counters,
        provider usage and breaker states in place."""
        telemetry.read_through(
            self,
            ecocharge_gateway_ladder_total=self._ladder_readings,
            ecocharge_endpoint_health=self._health_readings,
            ecocharge_api_calls=lambda: {
                (name.removesuffix("_calls"),): value
                for (name,), value in field_readings(self.usage).items()
            },
            ecocharge_breaker_state=lambda: {
                (name, state): _BREAKER_CODES[state]
                for name, state in self.breaker_states().items()
            },
        )

    def _ladder_readings(self) -> dict[tuple[str, ...], float]:
        return {
            (name, level.value): float(getattr(health, counter))
            for name, health in self.health.endpoints.items()
            for level, counter in _RUNG_COUNTERS.items()
        }

    def _health_readings(self) -> dict[tuple[str, ...], float]:
        return {
            (name, field_name): float(value)
            for name, counters in self.health.as_dict().items()
            for field_name, value in counters.items()
        }

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per endpoint."""
        return {name: ep.breaker.state.value for name, ep in sorted(self.endpoints.items())}

    def accounting_ok(self) -> bool:
        """Do health counters reconcile with ``ApiUsage`` per endpoint?

        True iff, for every endpoint, every upstream attempt is
        accounted (success or failure), every logical call landed on
        exactly one ladder rung, and every delivered provider call is a
        recorded success.
        """
        provider_calls = {
            WEATHER: self.usage.weather_calls,
            BUSY: self.usage.busy_calls,
            TRAFFIC: self.usage.traffic_calls,
            CATALOG: self.usage.catalog_calls,
        }
        return all(
            self.health.for_endpoint(name).accounts_for(calls)
            for name, calls in provider_calls.items()
        )
