"""Charger substrate: charger/vehicle models, solar curves, registries."""

from .battery import DEFAULT_CURVE, ChargingCurve
from .charger import (
    RATE_CLASSES_KW,
    Charger,
    PlugType,
    RenewableSource,
    Vehicle,
)
from .plugshare import CatalogSpec, generate_catalog
from .pool import ChargerColumns, ChargerPool
from .registry import ChargerRegistry
from .session import ChargingSessionSimulator, SessionResult
from .solar import (
    HOURS_PER_DAY,
    SAMPLES_PER_HOUR,
    SolarProfile,
    SolarSeries,
    generate_solar_series,
)

__all__ = [
    "CatalogSpec",
    "Charger",
    "ChargerColumns",
    "ChargerPool",
    "ChargerRegistry",
    "ChargingCurve",
    "ChargingSessionSimulator",
    "DEFAULT_CURVE",
    "HOURS_PER_DAY",
    "PlugType",
    "RATE_CLASSES_KW",
    "RenewableSource",
    "SAMPLES_PER_HOUR",
    "SessionResult",
    "SolarProfile",
    "SolarSeries",
    "Vehicle",
    "generate_catalog",
    "generate_solar_series",
]
