"""Vehicle feasibility filtering.

The paper's Filtering phase "discards non-qualifying chargers"; beyond the
radius R, real qualification is vehicle-specific: a charger the battery
cannot reach (and return from) is not an option, and a plug the car
cannot use is not a charger.  This module expresses those constraints and
plugs into :class:`~repro.core.ecocharge.EcoChargeRanker` as an optional
pre-filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..chargers.charger import Charger, PlugType, Vehicle
from ..chargers.pool import ChargerPool
from ..spatial.geometry import Point

#: Straight-line distances understate road distances; reachability checks
#: inflate them by this factor to stay conservative.
ROAD_DETOUR_FACTOR = 1.3

#: Never plan to arrive with a fully drained battery.
DEFAULT_RESERVE_SOC = 0.08


@dataclass(frozen=True, slots=True)
class VehicleConstraints:
    """What makes a charger qualify for a specific vehicle."""

    vehicle: Vehicle
    allowed_plugs: frozenset[PlugType] = frozenset(PlugType)
    reserve_soc: float = DEFAULT_RESERVE_SOC
    min_deliverable_kw: float = 0.0

    def __post_init__(self) -> None:
        if not self.allowed_plugs:
            raise ValueError("at least one plug type must be allowed")
        if not 0.0 <= self.reserve_soc < 1.0:
            raise ValueError("reserve_soc must be in [0, 1)")
        if self.min_deliverable_kw < 0:
            raise ValueError("min_deliverable_kw must be non-negative")

    @property
    def usable_range_km(self) -> float:
        """Range available for derouting after keeping the reserve."""
        usable_soc = max(0.0, self.vehicle.state_of_charge - self.reserve_soc)
        return (
            self.vehicle.battery_kwh * usable_soc / self.vehicle.consumption_kwh_per_km
        )

    def qualifies(self, charger: Charger, origin: Point) -> bool:
        """Plug compatibility, power floor, and round-trip reachability."""
        if charger.plug_type not in self.allowed_plugs:
            return False
        deliverable = charger.deliverable_kw(
            self.vehicle.max_ac_kw, self.vehicle.max_dc_kw
        )
        if deliverable < self.min_deliverable_kw:
            return False
        crow_km = origin.distance_to(charger.point)
        # Out and back, with the road-vs-crow inflation.
        return 2.0 * crow_km * ROAD_DETOUR_FACTOR <= self.usable_range_km


def filter_feasible(
    pool: Sequence[Charger], constraints: VehicleConstraints, origin: Point
) -> ChargerPool:
    """Chargers from ``pool`` the constrained vehicle can actually use.

    Preserves input order (the radius query's nearest-first ordering),
    and a registry pool's rows.
    """
    pool = ChargerPool.of(pool)
    return pool.take([i for i, c in enumerate(pool) if constraints.qualifies(c, origin)])
