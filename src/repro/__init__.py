"""EcoCharge reproduction — Continuous kNN ranking of EV chargers with
Estimated Components (ICDE 2024).

Public API tour::

    from repro import (
        # build a world
        build_city_network, NetworkSpec, generate_catalog, CatalogSpec,
        ChargingEnvironment, Trip,
        # run the framework
        EcoCharge, EcoChargeConfig, Weights,
        # compare against the paper's baselines
        BruteForceRanker, QuadtreeRanker, RandomRanker, run_over_trip,
    )

See ``examples/quickstart.py`` for the end-to-end flow and
``repro.experiments`` for the figure-regeneration drivers.
"""

from .chargers import (
    CatalogSpec,
    Charger,
    ChargerRegistry,
    PlugType,
    SolarProfile,
    Vehicle,
    generate_catalog,
)
from .core import (
    ABLATION_CONFIGS,
    BruteForceRanker,
    ChargingEnvironment,
    EcoCharge,
    EcoChargeConfig,
    EcoChargeRanker,
    Interval,
    OfferingEntry,
    OfferingTable,
    QuadtreeRanker,
    RandomRanker,
    RankingRun,
    Weights,
    run_over_trip,
)
from .estimation import (
    AvailabilityEstimator,
    DeroutingEstimator,
    EtaEstimator,
    SustainableChargingEstimator,
    TrafficModel,
    WeatherModel,
)
from .network import (
    EdgeWeight,
    NetworkSpec,
    RoadNetwork,
    Trip,
    TripSegment,
    build_city_network,
    build_grid_network,
)
from .simulation import FleetReport, FleetSimulation, SimulationConfig
from .spatial import BoundingBox, KDTree, Point, QuadTree
from .trajectories import (
    DATASET_ORDER,
    PROFILES,
    Trajectory,
    TrajectoryDataset,
    Workload,
    load_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ABLATION_CONFIGS",
    "AvailabilityEstimator",
    "BoundingBox",
    "BruteForceRanker",
    "CatalogSpec",
    "Charger",
    "ChargerRegistry",
    "ChargingEnvironment",
    "DATASET_ORDER",
    "DeroutingEstimator",
    "EcoCharge",
    "EcoChargeConfig",
    "EcoChargeRanker",
    "EdgeWeight",
    "EtaEstimator",
    "FleetReport",
    "FleetSimulation",
    "Interval",
    "KDTree",
    "NetworkSpec",
    "OfferingEntry",
    "OfferingTable",
    "PROFILES",
    "PlugType",
    "Point",
    "QuadTree",
    "QuadtreeRanker",
    "RandomRanker",
    "RankingRun",
    "RoadNetwork",
    "SimulationConfig",
    "SolarProfile",
    "SustainableChargingEstimator",
    "TrafficModel",
    "Trajectory",
    "TrajectoryDataset",
    "Trip",
    "TripSegment",
    "Vehicle",
    "WeatherModel",
    "Weights",
    "Workload",
    "__version__",
    "build_city_network",
    "build_grid_network",
    "generate_catalog",
    "load_workload",
    "run_over_trip",
]
