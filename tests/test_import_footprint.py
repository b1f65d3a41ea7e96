"""Ranking a trip never imports scipy.

The package depends on numpy alone, and CI installs nothing else.  SciPy
in particular would be a tempting shortest-path backend, but importing
``scipy.sparse.csgraph`` adds about 33 MB of resident memory to a
process, a cost the wall-clock benchmark gates as ``peak_rss_mb``.  This
test ranks a trip end to end on both engine backends in a fresh
interpreter and checks that no such module was pulled in on the way.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

RANK_ON_BOTH_BACKENDS = """
import json
import sys

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.ecocharge import EcoChargeConfig, EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.ranking import run_over_trip
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.path import Trip

network = build_city_network(NetworkSpec(width_km=6.0, height_km=6.0, block_km=1.2, seed=2))
registry = generate_catalog(network, CatalogSpec(charger_count=15, seed=2))
nodes = sorted(network.node_ids())
trip = Trip.route(network, nodes[0], nodes[-1], departure_time_h=8.0)
tables = {}
for backend in ("dijkstra", "ch"):
    env = ChargingEnvironment(network, registry, seed=2, engine=backend)
    run = run_over_trip(EcoChargeRanker(env, EcoChargeConfig(k=3)), env, trip, segment_km=2.0)
    tables[backend] = len(run.tables)
print(json.dumps({
    "tables": tables,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_ranking_a_trip_on_both_backends_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", RANK_ON_BOTH_BACKENDS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["tables"]["dijkstra"] == report["tables"]["ch"] > 0
    assert report["scipy"] == []
