"""Core contribution: CkNN-EC queries, SC scoring, EcoCharge, baselines."""

from ..intervals import Interval, hull_of, weighted_sum
from .aknn import AknnResult, aknn_self_join, knn_graph_edges
from .baselines import BruteForceRanker, QuadtreeRanker, RandomRanker
from .extensions import (
    BalancedEcoChargeRanker,
    ChargerLoadBalancer,
    ExtendedWeights,
    TariffAwareRanker,
)
from .feasibility import VehicleConstraints, filter_feasible
from .moving import MovingQuery, UncertainKnnResult, knn_timeline, uncertain_knn
from .caching import CachedSolution, CacheStats, DynamicCache
from .cknn import (
    SplitPoint,
    coverage_is_complete,
    split_points_1nn,
    split_points_knn_sampled,
)
from .ecocharge import EcoCharge, EcoChargeConfig, EcoChargeRanker
from .environment import ChargingEnvironment, TrueComponents
from .offering import OfferingEntry, OfferingTable
from .ranking import RankingRun, SegmentRanker, refine_pool, run_over_trip
from .scoring import ABLATION_CONFIGS, ScScore, Weights, sc_exact

__all__ = [
    "ABLATION_CONFIGS",
    "AknnResult",
    "BalancedEcoChargeRanker",
    "BruteForceRanker",
    "CacheStats",
    "CachedSolution",
    "ChargerLoadBalancer",
    "ChargingEnvironment",
    "DynamicCache",
    "EcoCharge",
    "EcoChargeConfig",
    "EcoChargeRanker",
    "ExtendedWeights",
    "Interval",
    "MovingQuery",
    "OfferingEntry",
    "OfferingTable",
    "QuadtreeRanker",
    "RandomRanker",
    "RankingRun",
    "ScScore",
    "SegmentRanker",
    "SplitPoint",
    "TariffAwareRanker",
    "TrueComponents",
    "UncertainKnnResult",
    "VehicleConstraints",
    "Weights",
    "aknn_self_join",
    "coverage_is_complete",
    "filter_feasible",
    "hull_of",
    "knn_graph_edges",
    "knn_timeline",
    "refine_pool",
    "run_over_trip",
    "sc_exact",
    "split_points_1nn",
    "split_points_knn_sampled",
    "uncertain_knn",
    "weighted_sum",
]
