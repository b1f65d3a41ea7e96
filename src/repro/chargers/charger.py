"""EV charger model.

A charger ``b`` in the paper's set ``B``: a charging point on the road
network, linked to a nearby renewable energy source (locally attached
solar, or virtually net-metered from a remote farm), with a rated power
and a number of plugs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..spatial.geometry import Point


class PlugType(enum.Enum):
    """Common charging plug standards and their usual power class."""

    AC_TYPE2 = "ac_type2"
    CCS = "ccs"
    CHADEMO = "chademo"


class RenewableSource(enum.Enum):
    """How the charger's clean energy is provisioned (Section II-A)."""

    LOCAL_SOLAR = "local_solar"
    NET_METERED_FARM = "net_metered_farm"


#: Typical rated powers (kW) per plug type, used by the synthetic catalog.
RATE_CLASSES_KW: dict[PlugType, tuple[float, ...]] = {
    PlugType.AC_TYPE2: (3.7, 11.0, 22.0),
    PlugType.CCS: (50.0, 150.0),
    PlugType.CHADEMO: (50.0,),
}


@dataclass(frozen=True, slots=True)
class Charger:
    """A public EV charging point linked to a renewable source."""

    charger_id: int
    point: Point
    node_id: int
    rate_kw: float
    plug_type: PlugType = PlugType.AC_TYPE2
    plugs: int = 2
    solar_capacity_kw: float = 20.0
    source: RenewableSource = RenewableSource.LOCAL_SOLAR

    def __post_init__(self) -> None:
        # Checked here rather than in Point, which hot paths build: a NaN
        # passes every ``<= 0`` test below and would poison the catalog.
        if not all(
            map(math.isfinite, (self.point.x, self.point.y, self.rate_kw, self.solar_capacity_kw))
        ):
            raise ValueError("charger location, rate and solar capacity must be finite")
        if self.rate_kw <= 0:
            raise ValueError("charger rate must be positive")
        if self.plugs < 1:
            raise ValueError("charger needs at least one plug")
        if self.solar_capacity_kw < 0:
            raise ValueError("solar capacity must be non-negative")

    @property
    def is_dc_fast(self) -> bool:
        return self.plug_type in (PlugType.CCS, PlugType.CHADEMO)

    def deliverable_kw(self, vehicle_max_ac_kw: float, vehicle_max_dc_kw: float) -> float:
        """Power the charger can actually push into a given vehicle."""
        ceiling = vehicle_max_dc_kw if self.is_dc_fast else vehicle_max_ac_kw
        return min(self.rate_kw, ceiling)


@dataclass(frozen=True, slots=True)
class Vehicle:
    """The subset of EV state the ranking needs (Section II-A's ``m``)."""

    vehicle_id: int
    battery_kwh: float = 60.0
    state_of_charge: float = 0.6
    max_ac_kw: float = 11.0
    max_dc_kw: float = 100.0
    consumption_kwh_per_km: float = 0.18

    def __post_init__(self) -> None:
        if self.battery_kwh <= 0:
            raise ValueError("battery capacity must be positive")
        if not 0.0 <= self.state_of_charge <= 1.0:
            raise ValueError("state of charge must be in [0, 1]")
        if self.max_ac_kw <= 0 or self.max_dc_kw <= 0:
            raise ValueError("charging limits must be positive")
        if self.consumption_kwh_per_km <= 0:
            raise ValueError("consumption must be positive")

    @property
    def headroom_kwh(self) -> float:
        """Energy the battery can still absorb."""
        return self.battery_kwh * (1.0 - self.state_of_charge)

    @property
    def range_km(self) -> float:
        """Remaining driving range at the rated consumption."""
        return self.battery_kwh * self.state_of_charge / self.consumption_kwh_per_km
