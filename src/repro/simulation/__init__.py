"""Trace-driven fleet simulation: the paper's evaluation vehicle loop."""

from .chaos import ChaosPlan, ChaosRun, check, run_chaos
from .events import EventKind, EventLog, SimulationEvent
from .occupancy import ChargerOccupancy, OccupancyStats
from .scenarios import (
    SCENARIOS,
    SHOPPING_TRIP,
    TAXI_IDLE,
    WAITING_PARENT,
    Scenario,
    run_scenario,
    scenario_comparison,
)
from .fleet import (
    FleetReport,
    FleetSimulation,
    SimulationConfig,
    VehicleOutcome,
    VehiclePhase,
)
from .load import LoadProfile, Phase, percentile, run_load, run_load_threaded

__all__ = [
    "ChaosPlan",
    "ChaosRun",
    "ChargerOccupancy",
    "EventKind",
    "EventLog",
    "FleetReport",
    "FleetSimulation",
    "LoadProfile",
    "OccupancyStats",
    "Phase",
    "SCENARIOS",
    "SHOPPING_TRIP",
    "Scenario",
    "SimulationConfig",
    "SimulationEvent",
    "TAXI_IDLE",
    "VehicleOutcome",
    "VehiclePhase",
    "WAITING_PARENT",
    "check",
    "percentile",
    "run_chaos",
    "run_load",
    "run_load_threaded",
    "run_scenario",
    "scenario_comparison",
]
