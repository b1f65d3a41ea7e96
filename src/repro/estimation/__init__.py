"""Estimated Components: weather, sustainability, availability, traffic,
derouting, and ETA estimators — all interval-valued."""

from .availability import HOURS_PER_WEEK, AvailabilityEstimator, BusyTimetable
from .component import (
    DEFAULT_CONFIDENCE,
    EstimatedComponent,
    ForecastConfidence,
)
from .derouting import REFERENCE_SPEED_KMH, DeroutingEstimator
from .eta import EtaEstimate, EtaEstimator
from .sustainable import SustainableChargingEstimator, SustainableLevel
from .tariff import TariffBand, TariffEstimator, TimeOfUseTariff
from .traffic import TrafficModel, TrafficParams
from .weather import ATTENUATION, SkyState, WeatherForecast, WeatherModel

__all__ = [
    "ATTENUATION",
    "AvailabilityEstimator",
    "BusyTimetable",
    "DEFAULT_CONFIDENCE",
    "DeroutingEstimator",
    "EstimatedComponent",
    "EtaEstimate",
    "EtaEstimator",
    "ForecastConfidence",
    "HOURS_PER_WEEK",
    "REFERENCE_SPEED_KMH",
    "SkyState",
    "SustainableChargingEstimator",
    "SustainableLevel",
    "TariffBand",
    "TariffEstimator",
    "TimeOfUseTariff",
    "TrafficModel",
    "TrafficParams",
    "WeatherForecast",
    "WeatherModel",
]
