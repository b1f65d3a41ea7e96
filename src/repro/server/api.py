"""Simulated external API services.

The production EIS talks to OpenWeatherMap, PlugShare, Google-Maps busy
times, and a traffic provider.  Offline, these classes wrap the internal
models behind request/response interfaces with call accounting, so the
caching experiments can measure exactly how many upstream calls Dynamic
Caching avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..chargers.charger import Charger
from ..chargers.registry import ChargerRegistry
from ..intervals import Interval
from ..estimation.availability import AvailabilityEstimator
from ..estimation.traffic import TrafficModel
from ..estimation.weather import WeatherForecast, WeatherModel
from ..spatial.geometry import Point


@dataclass(slots=True)
class ApiUsage:
    """Upstream call counters, by endpoint."""

    weather_calls: int = 0
    busy_calls: int = 0
    traffic_calls: int = 0
    catalog_calls: int = 0

    @property
    def total(self) -> int:
        return self.weather_calls + self.busy_calls + self.traffic_calls + self.catalog_calls


class PoolRequest:
    """Per-key provider requests over one pool, priced by one kernel call.

    Every :meth:`fetch` is one counted upstream call, as a request per
    key would be; the first one prices every row of the pool and the
    later ones read theirs.
    """

    __slots__ = ("_price", "_count", "_rows")

    def __init__(self, price: Callable[[], Sequence[Any]], count: Callable[[], None]):
        self._price = price
        self._count = count
        self._rows: Sequence[Any] | None = None

    def fetch(self, row: int) -> Any:
        """The value of pool row ``row`` (one counted call)."""
        self._count()
        if self._rows is None:
            self._rows = self._price()
        return self._rows[row]


class WeatherApi:
    """OpenWeatherMap stand-in: forecasts by location and hour."""

    def __init__(self, model: WeatherModel, usage: ApiUsage):
        self._model = model
        self._usage = usage

    def forecast(self, location: Point, target_h: float, now_h: float) -> WeatherForecast:
        """Hourly forecast (the synthetic weather field is spatially
        uniform; location is accepted for interface fidelity)."""
        self._usage.weather_calls += 1
        return self._model.forecast(target_h, now_h)

    def window_forecast_pool(
        self, locations: Sequence[Point], start_h: float, end_h: float, now_h: float
    ) -> PoolRequest:
        """Attenuation hull over a charging window, one counted call per
        location.

        Real forecast providers return multi-hour payloads per request;
        counting each window as a single upstream call keeps the caching
        experiments' accounting faithful.  The synthetic field ignores
        location, so every row is the same hull, computed once."""

        def price() -> list[Interval]:
            return [self._model.window_attenuation(start_h, end_h, now_h)] * len(locations)

        return PoolRequest(price, self._count)

    def _count(self) -> None:
        self._usage.weather_calls += 1


class BusyTimesApi:
    """Google-Maps-popular-times stand-in: availability per charger."""

    def __init__(self, estimator: AvailabilityEstimator, usage: ApiUsage):
        self._estimator = estimator
        self._usage = usage

    def availability_pool(
        self, chargers: Sequence[Charger], eta_h: float, now_h: float
    ) -> PoolRequest:
        """Availability interval per charger at the ETA, one counted call
        per charger; the rows come from one array kernel call."""

        def price() -> list[Interval]:
            return self._estimator.batch_estimate(chargers, eta_h, now_h).to_intervals()

        return PoolRequest(price, self._count)

    def _count(self) -> None:
        self._usage.busy_calls += 1


class TrafficApi:
    """Traffic-provider stand-in: congestion level for a region/time."""

    def __init__(self, model: TrafficModel, usage: ApiUsage):
        self._model = model
        self._usage = usage

    def model_snapshot(self, time_h: float) -> TrafficModel:
        """Hand back the traffic model for client-side routing (providers
        expose travel-time matrices; our simulation shares the model
        object and counts the fetch)."""
        self._usage.traffic_calls += 1
        return self._model


class ChargerCatalogApi:
    """PlugShare stand-in: chargers near a location."""

    def __init__(self, registry: ChargerRegistry, usage: ApiUsage):
        self._registry = registry
        self._usage = usage

    def nearby(self, location: Point, radius_km: float) -> list[Charger]:
        """Chargers within ``radius_km`` of ``location`` (counted)."""
        self._usage.catalog_calls += 1
        return self._registry.within_radius(location, radius_km)
