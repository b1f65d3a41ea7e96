"""Trace-driven fleet simulator.

Drives a set of vehicles through their scheduled trips in fixed time
steps, with the full EcoCharge loop in each vehicle: periodic Offering
Table regeneration (the paper's "continuously recomputes the path using a
~3-5 minutes window"), deroute decisions when the battery needs clean
energy, charging sessions against ground-truth solar, and trip resumption
— emitting a typed event log and an aggregate report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..chargers.charger import Charger, Vehicle
from ..chargers.session import ChargingSessionSimulator
from ..core.ecocharge import EcoChargeConfig, EcoChargeRanker
from ..core.environment import ChargingEnvironment
from ..network.graph import EdgeWeight
from ..network.path import Trip
from ..network.shortest_path import NoPathError, dijkstra
from ..validation import require_finite
from .events import EventKind, EventLog
from .occupancy import ChargerOccupancy


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Fleet-simulation knobs.

    ``replan_interval_h`` is the paper's recomputation window (default
    4 minutes, inside the quoted 3-5 range); a vehicle deroutes when its
    state of charge falls below ``charge_below_soc`` and the best offer's
    pessimistic score clears ``min_offer_score``.
    """

    step_h: float = 1.0 / 60.0
    replan_interval_h: float = 4.0 / 60.0
    charge_below_soc: float = 0.5
    min_offer_score: float = 0.3
    idle_duration_h: float = 1.0
    max_sim_hours: float = 12.0
    ecocharge: EcoChargeConfig = field(default_factory=EcoChargeConfig)

    def __post_init__(self) -> None:
        require_finite("step_h", self.step_h, above=0.0)
        require_finite("replan_interval_h", self.replan_interval_h, above=0.0)
        if not 0.0 <= self.charge_below_soc <= 1.0:
            raise ValueError("charge_below_soc must be in [0, 1]")
        require_finite("min_offer_score", self.min_offer_score)
        require_finite("idle_duration_h", self.idle_duration_h, above=0.0)
        require_finite("max_sim_hours", self.max_sim_hours, above=0.0)


class VehiclePhase(enum.Enum):
    """Lifecycle state of one simulated vehicle."""

    WAITING = "waiting"  # before departure
    DRIVING = "driving"
    DEROUTING = "derouting"
    QUEUED = "queued"  # at a full charger, waiting for a plug
    CHARGING = "charging"
    RETURNING = "returning"
    ARRIVED = "arrived"
    STRANDED = "stranded"


@dataclass
class _VehicleState:
    vehicle: Vehicle
    trip: Trip
    ranker: EcoChargeRanker
    phase: VehiclePhase = VehiclePhase.WAITING
    node_path: tuple[int, ...] = ()
    path_index: int = 0
    edge_progress_km: float = 0.0
    soc_kwh: float = 0.0
    next_replan_h: float = 0.0
    charge_until_h: float = 0.0
    target_charger: Charger | None = None
    clean_kwh: float = 0.0
    drive_kwh: float = 0.0
    has_charged: bool = False

    @property
    def current_node(self) -> int:
        return self.node_path[self.path_index]

    @property
    def at_path_end(self) -> bool:
        return self.path_index >= len(self.node_path) - 1


@dataclass(frozen=True, slots=True)
class VehicleOutcome:
    vehicle_id: int
    phase: VehiclePhase
    final_soc: float
    clean_kwh: float
    drive_kwh: float
    offers_generated: int


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one simulation run."""

    outcomes: tuple[VehicleOutcome, ...]
    events: EventLog
    simulated_until_h: float

    @property
    def arrived(self) -> int:
        return sum(1 for o in self.outcomes if o.phase is VehiclePhase.ARRIVED)

    @property
    def total_clean_kwh(self) -> float:
        return sum(o.clean_kwh for o in self.outcomes)

    @property
    def total_drive_kwh(self) -> float:
        return sum(o.drive_kwh for o in self.outcomes)


class FleetSimulation:
    """Step-based simulation of EcoCharge-equipped vehicles."""

    def __init__(
        self,
        environment: ChargingEnvironment,
        trips: list[Trip],
        config: SimulationConfig | None = None,
        vehicles: list[Vehicle] | None = None,
    ):
        if not trips:
            raise ValueError("simulation needs at least one trip")
        self._env = environment
        self.config = config if config is not None else SimulationConfig()
        if vehicles is None:
            vehicles = [
                Vehicle(vehicle_id=i, state_of_charge=0.45) for i in range(len(trips))
            ]
        if len(vehicles) != len(trips):
            raise ValueError("one vehicle per trip required")
        self.events = EventLog()
        self.occupancy = ChargerOccupancy()
        self._session = ChargingSessionSimulator(environment.sustainable)
        self._states = [
            _VehicleState(
                vehicle=vehicle,
                trip=trip,
                ranker=EcoChargeRanker(environment, self.config.ecocharge),
                node_path=trip.node_ids,
                soc_kwh=vehicle.battery_kwh * vehicle.state_of_charge,
                next_replan_h=trip.departure_time_h,
            )
            for vehicle, trip in zip(vehicles, trips)
        ]

    # -- main loop -----------------------------------------------------------

    def run(self) -> FleetReport:
        """Advance all vehicles to completion (or the simulation horizon)."""
        start = min(s.trip.departure_time_h for s in self._states)
        clock = start
        horizon = start + self.config.max_sim_hours
        while clock < horizon and any(
            s.phase not in (VehiclePhase.ARRIVED, VehiclePhase.STRANDED)
            for s in self._states
        ):
            for state in self._states:
                self._step_vehicle(state, clock)
            clock += self.config.step_h
        outcomes = tuple(
            VehicleOutcome(
                vehicle_id=s.vehicle.vehicle_id,
                phase=s.phase,
                final_soc=s.soc_kwh / s.vehicle.battery_kwh,
                clean_kwh=s.clean_kwh,
                drive_kwh=s.drive_kwh,
                offers_generated=len(
                    [e for e in self.events.for_vehicle(s.vehicle.vehicle_id)
                     if e.kind is EventKind.OFFER_GENERATED]
                ),
            )
            for s in self._states
        )
        return FleetReport(outcomes=outcomes, events=self.events, simulated_until_h=clock)

    # -- per-vehicle transitions ----------------------------------------------

    def _step_vehicle(self, state: _VehicleState, clock: float) -> None:
        if state.phase is VehiclePhase.WAITING:
            if clock >= state.trip.departure_time_h:
                state.phase = VehiclePhase.DRIVING
                self.events.record(clock, state.vehicle.vehicle_id, EventKind.DEPARTED)
            return
        if state.phase in (VehiclePhase.ARRIVED, VehiclePhase.STRANDED):
            return
        if state.phase is VehiclePhase.CHARGING:
            if clock >= state.charge_until_h:
                self._finish_charging(state, clock)
            return
        if state.phase is VehiclePhase.QUEUED:
            self._try_start_charging(state, clock)
            return
        # DRIVING / DEROUTING / RETURNING all advance along the node path.
        if state.phase is VehiclePhase.DRIVING and clock >= state.next_replan_h:
            self._replan(state, clock)
        self._advance(state, clock)

    def _advance(self, state: _VehicleState, clock: float) -> None:
        """Move along the current node path for one time step."""
        remaining_h = self.config.step_h
        network = self._env.network
        while remaining_h > 1e-12 and not state.at_path_end:
            edge = network.edge(
                state.node_path[state.path_index], state.node_path[state.path_index + 1]
            )
            speed = edge.speed_kmh / self._env.traffic.multiplier(edge, clock)
            left_km = edge.length_km - state.edge_progress_km
            step_km = min(left_km, speed * remaining_h)
            energy = step_km * state.vehicle.consumption_kwh_per_km
            if energy > state.soc_kwh:
                state.phase = VehiclePhase.STRANDED
                self.events.record(
                    clock, state.vehicle.vehicle_id, EventKind.BATTERY_EMPTY,
                    node=state.current_node,
                )
                return
            state.soc_kwh -= energy
            state.drive_kwh += energy
            state.edge_progress_km += step_km
            remaining_h -= step_km / speed if speed > 0 else remaining_h
            if state.edge_progress_km >= edge.length_km - 1e-9:
                state.path_index += 1
                state.edge_progress_km = 0.0
        if state.at_path_end:
            self._reached_path_end(state, clock)

    def _reached_path_end(self, state: _VehicleState, clock: float) -> None:
        if state.phase is VehiclePhase.DEROUTING:
            self._try_start_charging(state, clock, arriving=True)
            return
        # DRIVING or RETURNING reaching the path end means the destination.
        if state.phase is not VehiclePhase.ARRIVED:
            state.phase = VehiclePhase.ARRIVED
            self.events.record(clock, state.vehicle.vehicle_id, EventKind.ARRIVED)

    def _try_start_charging(
        self, state: _VehicleState, clock: float, arriving: bool = False
    ) -> None:
        """Plug in if a plug is free; otherwise queue at the site.

        Queued vehicles retry every step — availability forecasts reduce
        how often this happens, but physics decides when it does.
        """
        charger = state.target_charger
        assert charger is not None
        if self.occupancy.try_plug_in(charger, state.vehicle.vehicle_id):
            state.phase = VehiclePhase.CHARGING
            state.charge_until_h = clock + self.config.idle_duration_h
            self.events.record(
                clock, state.vehicle.vehicle_id, EventKind.CHARGING_STARTED,
                charger_id=charger.charger_id,
            )
            return
        if arriving or state.phase is not VehiclePhase.QUEUED:
            state.phase = VehiclePhase.QUEUED
            self.events.record(
                clock, state.vehicle.vehicle_id, EventKind.WAITING_FOR_PLUG,
                charger_id=charger.charger_id,
                occupancy=self.occupancy.occupancy(charger.charger_id),
            )

    def _replan(self, state: _VehicleState, clock: float) -> None:
        """Periodic Offering-Table regeneration and deroute decision."""
        state.next_replan_h = clock + self.config.replan_interval_h
        remaining = state.node_path[state.path_index:]
        if len(remaining) < 2:
            return
        trip_now = Trip(self._env.network, remaining, departure_time_h=clock)
        segment = trip_now.segments(self.config.ecocharge.segment_km)[0]
        table = state.ranker.rank_segment(trip_now, segment, eta_h=clock, now_h=clock)
        self.events.record(
            clock, state.vehicle.vehicle_id, EventKind.OFFER_GENERATED,
            segment=segment.index, size=len(table), adapted=table.is_adapted,
        )
        soc = state.soc_kwh / state.vehicle.battery_kwh
        best = table.best
        should_charge = (
            not state.has_charged
            and soc < self.config.charge_below_soc
            and best is not None
            and best.score.pessimistic >= self.config.min_offer_score
        )
        if should_charge:
            self._start_deroute(state, best.charger, clock)

    def _start_deroute(self, state: _VehicleState, charger: Charger, clock: float) -> None:
        try:
            to_charger = dijkstra(
                self._env.network, state.current_node, charger.node_id,
                EdgeWeight.DISTANCE_KM,
            )
        except NoPathError:
            return  # unreachable offer; keep driving
        state.phase = VehiclePhase.DEROUTING
        state.target_charger = charger
        state.node_path = to_charger.nodes
        state.path_index = 0
        state.edge_progress_km = 0.0
        self.events.record(
            clock, state.vehicle.vehicle_id, EventKind.DEROUTE_STARTED,
            charger_id=charger.charger_id, distance_km=to_charger.cost,
        )

    def _finish_charging(self, state: _VehicleState, clock: float) -> None:
        charger = state.target_charger
        assert charger is not None
        self.occupancy.unplug(charger.charger_id, state.vehicle.vehicle_id)
        vehicle = state.vehicle
        # Reconstruct a vehicle reflecting the current SoC for the session.
        from dataclasses import replace

        current = replace(
            vehicle, state_of_charge=min(1.0, state.soc_kwh / vehicle.battery_kwh)
        )
        result = self._session.simulate(
            charger, current, start_h=state.charge_until_h - self.config.idle_duration_h,
            duration_h=self.config.idle_duration_h,
        )
        state.soc_kwh = min(vehicle.battery_kwh, state.soc_kwh + result.energy_kwh)
        state.clean_kwh += result.energy_kwh
        state.has_charged = True
        self.events.record(
            clock, vehicle.vehicle_id, EventKind.CHARGING_FINISHED,
            charger_id=charger.charger_id, energy_kwh=result.energy_kwh,
        )
        # Resume: route from the charger to the original destination.
        try:
            back = dijkstra(
                self._env.network, charger.node_id, state.trip.destination,
                EdgeWeight.DISTANCE_KM,
            )
        except NoPathError:
            state.phase = VehiclePhase.STRANDED
            return
        state.phase = VehiclePhase.RETURNING
        state.node_path = back.nodes
        state.path_index = 0
        state.edge_progress_km = 0.0
        state.target_charger = None
        if len(back.nodes) < 2:
            self._reached_path_end(state, clock)
            return
        self.events.record(
            clock, vehicle.vehicle_id, EventKind.RESUMED_TRIP,
            distance_km=back.cost,
        )
