"""Shared fixtures: a small deterministic world every suite can query.

The module-scoped fixtures build one compact city (16x12 km grid, 60
chargers) reused across integration tests — constructing a fresh
environment per test would dominate the suite's runtime without buying
isolation (everything is immutable or reset between uses).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import AnalysisReport, check_paths
from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.environment import ChargingEnvironment
from repro.network.builders import NetworkSpec, build_city_network, build_grid_network
from repro.network.path import Trip


@pytest.fixture(scope="session")
def small_network():
    """A perturbed-grid city of ~100 nodes."""
    return build_city_network(
        NetworkSpec(width_km=16.0, height_km=12.0, block_km=1.5, seed=42)
    )


@pytest.fixture(scope="session")
def small_registry(small_network):
    """60 chargers over the small network."""
    return generate_catalog(
        small_network, CatalogSpec(charger_count=60, hotspots=3, seed=7)
    )


@pytest.fixture(scope="session")
def small_environment(small_network, small_registry):
    return ChargingEnvironment(small_network, small_registry, seed=5)


@pytest.fixture(scope="session")
def sample_trip(small_environment):
    """A cross-town trip of at least 10 km departing at 10:00."""
    network = small_environment.network
    nodes = sorted(network.node_ids())
    # Opposite corners of the grid are guaranteed far apart.
    return Trip.route(network, nodes[0], nodes[-1], departure_time_h=10.0)


@pytest.fixture(scope="session")
def unit_grid():
    """A perfectly regular 6x6 grid with 1 km blocks (closed-form tests)."""
    return build_grid_network(6, 6, block_km=1.0, speed_kmh=60.0)


#: What CI's lint-gate job analyses, from the repo root.
GATE_TREES = ("src/repro", "tests", "benchmarks", "examples")


@pytest.fixture(scope="session")
def gate_report() -> AnalysisReport:
    """One repro-check run over every gated tree, rooted at the repo as
    CI roots it: each tree is analysed once per test session, and the
    whole-program passes see them together."""
    repo_root = Path(__file__).resolve().parent.parent
    return check_paths([repo_root / tree for tree in GATE_TREES])
