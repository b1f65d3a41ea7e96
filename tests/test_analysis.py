"""The ``repro.analysis`` subsystem: per-file rules R1, R2, R4-R10 and
R15, suppressions, CLI, and runtime contracts (the whole-program
passes R11-R14 and SARIF live in ``test_analysis_project.py``; the
real-tree gate lives in ``test_lint_gate.py``).

Each rule gets (at least) one fixture snippet that triggers it and one
clean snippet that does not — the proof that every rule both fires and
can be satisfied.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import check_paths, check_source
from repro.analysis.__main__ import main
from repro.analysis.annotations import check_annotations
from repro.analysis.engine import Suppressions
from repro.analysis.rules import ALL_RULES, select_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

LIVE_RULES = (
    "R1", "R2", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
    "R11", "R12", "R13", "R14", "R15",
)


def rule_ids(violations):
    return [v.rule_id for v in violations]


# ---------------------------------------------------------------------------
# R1 — interval endpoint comparisons
# ---------------------------------------------------------------------------


class TestR1IntervalComparison:
    CORE_PATH = "src/repro/core/example.py"

    def test_fires_on_raw_endpoint_comparison(self):
        snippet = "def f(iv):\n    return iv.lo < 0.5\n"
        assert rule_ids(check_source(snippet, self.CORE_PATH)) == ["R1"]

    def test_fires_on_endpoint_to_endpoint_comparison(self):
        snippet = "def dominates(a, b):\n    return a.hi < b.lo\n"
        assert rule_ids(check_source(snippet, self.CORE_PATH)) == ["R1"]

    def test_clean_when_using_comparators(self):
        snippet = (
            "def dominates(a, b):\n"
            "    return a.certainly_less_than(b)\n"
            "def normalised(iv):\n"
            "    return iv.within_bounds(0.0, 1.0, tol=1e-9)\n"
        )
        assert check_source(snippet, self.CORE_PATH) == []

    def test_equality_comparison_is_allowed(self):
        snippet = "def degenerate(iv):\n    return iv.lo == iv.hi\n"
        assert check_source(snippet, self.CORE_PATH) == []

    def test_intervals_module_is_exempt(self):
        snippet = "def f(iv):\n    return iv.lo < 0.5\n"
        assert check_source(snippet, "src/repro/intervals.py") == []

    def test_arithmetic_on_endpoints_is_allowed(self):
        snippet = "def width(iv):\n    return iv.hi - iv.lo\n"
        assert check_source(snippet, self.CORE_PATH) == []


# ---------------------------------------------------------------------------
# R2 — metric consistency
# ---------------------------------------------------------------------------


class TestR2MetricConsistency:
    PATH = "src/repro/spatial/example.py"

    MIXED = (
        "def bad(a, b, p, q):\n"
        "    geo = haversine_km(a.lat, a.lon, b.lat, b.lon)\n"
        "    planar = p.squared_distance_to(q)\n"
        "    return geo + planar\n"
    )

    def test_fires_on_mixed_metrics(self):
        assert rule_ids(check_source(self.MIXED, self.PATH)) == ["R2"]

    def test_clean_when_single_metric(self):
        planar_only = "def ok(p, q):\n    return p.squared_distance_to(q)\n"
        geo_only = "def ok(a, b):\n    return haversine_km(a.lat, a.lon, b.lat, b.lon)\n"
        assert check_source(planar_only, self.PATH) == []
        assert check_source(geo_only, self.PATH) == []

    def test_projection_bridge_sanctions_mixing(self):
        bridged = (
            "def ok(origin, geo, q):\n"
            "    projection = LocalProjection(origin)\n"
            "    p = projection.to_plane(geo)\n"
            "    near = haversine_km(origin.lat, origin.lon, geo.lat, geo.lon)\n"
            "    return near + p.squared_distance_to(q)\n"
        )
        assert check_source(bridged, self.PATH) == []

    def test_geometry_module_is_exempt(self):
        assert check_source(self.MIXED, "src/repro/spatial/geometry.py") == []


# ---------------------------------------------------------------------------
# R4 — mutable defaults
# ---------------------------------------------------------------------------


class TestR4MutableDefault:
    PATH = "src/repro/server/example.py"

    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "list()", "dict()", "{1: 2}", "[x for x in ()]"]
    )
    def test_fires_on_mutable_default(self, default):
        snippet = f"def f(items={default}):\n    return items\n"
        assert rule_ids(check_source(snippet, self.PATH)) == ["R4"]

    def test_fires_on_keyword_only_and_lambda_defaults(self):
        snippet = "def f(*, items=[]):\n    return items\ng = lambda xs=[]: xs\n"
        assert rule_ids(check_source(snippet, self.PATH)) == ["R4", "R4"]

    def test_clean_with_none_sentinel_and_tuple(self):
        snippet = (
            "def f(items=None, shape=(1, 2)):\n"
            "    return list(items or ()) + list(shape)\n"
        )
        assert check_source(snippet, self.PATH) == []


# ---------------------------------------------------------------------------
# R5 — cache expiry
# ---------------------------------------------------------------------------


class TestR5CacheExpiry:
    PATH = "src/repro/server/cache.py"

    def test_fires_on_unbounded_cache_write(self):
        snippet = (
            "class BoundlessCache:\n"
            "    def __init__(self):\n"
            "        self._entries = {}\n"
            "    def put(self, key, value):\n"
            "        self._entries[key] = value\n"
        )
        ids = rule_ids(check_source(snippet, self.PATH))
        # both findings: no TTL bound in __init__, and a write without validity
        assert ids == ["R5", "R5"]

    def test_clean_with_temporal_parameter(self):
        snippet = (
            "class TtlCache:\n"
            "    def __init__(self, ttl_h=0.5):\n"
            "        self.ttl_h = ttl_h\n"
            "        self._entries = {}\n"
            "    def put(self, key, now_h, value):\n"
            "        self._entries[key] = (now_h, value)\n"
        )
        assert check_source(snippet, self.PATH) == []

    def test_clean_when_value_type_carries_validity(self):
        snippet = (
            "class Entry:\n"
            "    generated_at_h: float\n"
            "class SolutionCache:\n"
            "    def __init__(self, ttl_h=1.0):\n"
            "        self.ttl_h = ttl_h\n"
            "        self._entry = None\n"
            "    def store(self, solution: Entry):\n"
            "        self._entry = solution\n"
        )
        assert check_source(snippet, self.PATH) == []

    def test_non_cache_modules_are_exempt(self):
        snippet = (
            "class BoundlessCache:\n"
            "    def __init__(self):\n"
            "        self._entries = {}\n"
            "    def put(self, key, value):\n"
            "        self._entries[key] = value\n"
        )
        assert check_source(snippet, "src/repro/core/scoring.py") == []


# ---------------------------------------------------------------------------
# R6 — exception hygiene
# ---------------------------------------------------------------------------


class TestR6ExceptionHygiene:
    PATH = "src/repro/server/api.py"

    def test_fires_on_bare_except(self):
        snippet = (
            "def handle():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        raise RuntimeError('x')\n"
        )
        assert rule_ids(check_source(snippet, self.PATH)) == ["R6"]

    def test_fires_on_swallowed_exception(self):
        snippet = (
            "def handle():\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert rule_ids(check_source(snippet, self.PATH)) == ["R6"]

    def test_clean_when_handled_or_recorded(self):
        snippet = (
            "def handle(log):\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError as exc:\n"
            "        log.append(exc)\n"
            "        return None\n"
        )
        assert check_source(snippet, self.PATH) == []

    def test_other_packages_are_exempt(self):
        snippet = (
            "def handle():\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert check_source(snippet, "src/repro/io/example.py") == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_line_suppression(self):
        snippet = "def f(iv):\n    return iv.lo < 0.5  # repro-check: disable=R1\n"
        assert check_source(snippet, "src/repro/core/example.py") == []

    def test_line_suppression_only_silences_named_rule(self):
        snippet = "def f(iv, items=[]):  # repro-check: disable=R1\n    return len(items)\n"
        assert rule_ids(check_source(snippet, "src/repro/core/example.py")) == ["R4"]

    def test_file_suppression(self):
        snippet = (
            "# repro-check: disable-file=R4\n"
            "def f(items=[]):\n"
            "    return items\n"
        )
        assert check_source(snippet, "src/repro/core/example.py") == []

    def test_disable_all(self):
        snippet = "def f(items=[]):  # repro-check: disable=all\n    return items\n"
        assert check_source(snippet, "src/repro/core/example.py") == []

    def test_parse_multiple_ids(self):
        sup = Suppressions.parse("x = 1  # repro-check: disable=R1, R4\n")
        assert sup.is_suppressed("R1", 1)
        assert sup.is_suppressed("R4", 1)
        assert not sup.is_suppressed("R2", 1)
        assert not sup.is_suppressed("R1", 2)


# ---------------------------------------------------------------------------
# R7 — resilience bypass
# ---------------------------------------------------------------------------


class TestR7ResilienceBypass:
    PATH = "src/repro/server/eis.py"

    def test_fires_on_raw_api_construction(self):
        snippet = (
            "class Server:\n"
            "    def __init__(self, environment, usage):\n"
            "        self._weather_api = WeatherApi(environment.weather, usage)\n"
        )
        assert rule_ids(check_source(snippet, self.PATH)) == ["R7"]

    def test_fires_on_direct_api_call(self):
        snippet = (
            "def build(self, origin, eta_h, now_h):\n"
            "    return self._weather_api.forecast(origin, eta_h, now_h)\n"
        )
        assert rule_ids(check_source(snippet, self.PATH)) == ["R7"]

    @pytest.mark.parametrize(
        "call",
        [
            "self._busy_api.availability_pool(chargers, eta_h, now_h)",
            "self._weather_api.window_forecast_pool(points, eta_h, eta_h + 1.0, now_h)",
        ],
    )
    def test_fires_on_direct_pool_call(self, call):
        snippet = f"def build(self, chargers, points, eta_h, now_h):\n    return {call}\n"
        assert rule_ids(check_source(snippet, self.PATH)) == ["R7"]

    def test_clean_when_routed_through_gateway(self):
        snippet = (
            "def build(self, origin, eta_h, now_h):\n"
            "    return self.gateway.forecast(origin, eta_h, now_h)\n"
        )
        assert check_source(snippet, self.PATH) == []

    def test_api_definitions_module_is_exempt(self):
        snippet = (
            "def make(model, usage):\n"
            "    return WeatherApi(model, usage)\n"
        )
        assert check_source(snippet, "src/repro/server/api.py") == []

    def test_other_packages_are_exempt(self):
        snippet = (
            "def make(model, usage):\n"
            "    return WeatherApi(model, usage)\n"
        )
        assert check_source(snippet, "src/repro/resilience/gateway.py") == []

    def test_pragma_suppresses(self):
        snippet = (
            "def make(model, usage):\n"
            "    return WeatherApi(model, usage)  # repro-check: disable=R7\n"
        )
        assert check_source(snippet, self.PATH) == []


# ---------------------------------------------------------------------------
# R8 — hot loops must use the DistanceEngine
# ---------------------------------------------------------------------------


class TestR8EngineBypass:
    CORE_PATH = "src/repro/core/example.py"
    EST_PATH = "src/repro/estimation/example.py"

    def test_fires_on_dijkstra_all_in_core(self):
        snippet = (
            "def price(network, origin, fn):\n"
            "    return dijkstra_all(network, origin, fn, max_cost=1.0)\n"
        )
        assert rule_ids(check_source(snippet, self.CORE_PATH)) == ["R8"]

    def test_fires_on_backward_search_in_estimation(self):
        snippet = (
            "def back(network, target, fn):\n"
            "    return dijkstra_all_backward(network, target, fn)\n"
        )
        assert rule_ids(check_source(snippet, self.EST_PATH)) == ["R8"]

    def test_fires_on_attribute_style_call(self):
        snippet = (
            "def price(sp, network, origin, fn):\n"
            "    return sp.dijkstra_all(network, origin, fn)\n"
        )
        assert rule_ids(check_source(snippet, self.CORE_PATH)) == ["R8"]

    def test_fires_on_the_flat_arc_kernel(self):
        snippet = (
            "def price(arcs, origin, weights):\n"
            "    return settle_arcs(origin, arcs.out_arcs, weights, 1.0, arcs.span)\n"
        )
        assert rule_ids(check_source(snippet, self.EST_PATH)) == ["R8"]

    def test_fires_on_the_stacked_frontier_kernel(self):
        snippet = (
            "def price(arcs, queries, budget, pool):\n"
            "    return settle_frontier(arcs, queries, budget, pool)\n"
        )
        assert rule_ids(check_source(snippet, self.CORE_PATH)) == ["R8"]

    def test_clean_when_using_engine(self):
        snippet = (
            "def price(engine, origin, pool, spec, budget):\n"
            "    out = engine.one_to_many(origin, pool, spec, max_cost=budget)\n"
            "    back = engine.many_to_one(pool, origin, spec, max_cost=budget)\n"
            "    return out, back\n"
        )
        assert check_source(snippet, self.CORE_PATH) == []

    def test_point_to_point_dijkstra_is_allowed(self):
        snippet = (
            "def route(network, a, b):\n"
            "    return dijkstra(network, a, b)\n"
        )
        assert check_source(snippet, self.CORE_PATH) == []

    def test_network_package_is_exempt(self):
        snippet = (
            "def ball(network, origin, fn):\n"
            "    return dijkstra_all(network, origin, fn)\n"
        )
        assert check_source(snippet, "src/repro/network/distance_engine.py") == []

    def test_tests_are_exempt(self):
        snippet = (
            "def test_ball(network):\n"
            "    assert dijkstra_all(network, 0, None)\n"
        )
        assert check_source(snippet, "tests/core/test_example.py") == []


# ---------------------------------------------------------------------------
# R9 — server tier mutates session state only through the journal
# ---------------------------------------------------------------------------


class TestR9JournalBypass:
    SERVER_PATH = "src/repro/server/example.py"

    def test_fires_on_dynamic_cache_construction(self):
        snippet = (
            "def serve(env, config):\n"
            "    cache = DynamicCache(ttl_h=config.cache_ttl_h)\n"
            "    return cache\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R9"]

    def test_fires_on_direct_restore_state(self):
        snippet = (
            "def rollback(ranker, checkpoint):\n"
            "    ranker.restore_state(checkpoint)\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R9"]

    def test_fires_on_direct_checkpoint_state(self):
        snippet = (
            "def snapshot(ranker):\n"
            "    return ranker.checkpoint_state()\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R9"]

    def test_fires_on_run_table_append(self):
        snippet = (
            "def patch(run, table):\n"
            "    run.tables.append(table)\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R9"]

    def test_fires_on_failed_segments_append(self):
        snippet = (
            "def mark(run, index):\n"
            "    run.failed_segments.append(index)\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R9"]

    def test_clean_when_going_through_session_manager(self):
        snippet = (
            "def serve(service, session_id, trip, config):\n"
            "    session = service.open(session_id, trip, config)\n"
            "    try:\n"
            "        return session.run()\n"
            "    finally:\n"
            "        service.close(session)\n"
        )
        assert check_source(snippet, self.SERVER_PATH) == []

    def test_plain_list_append_is_allowed(self):
        snippet = (
            "def collect(snapshots, snapshot):\n"
            "    snapshots.append(snapshot)\n"
        )
        assert check_source(snippet, self.SERVER_PATH) == []

    def test_core_tier_is_exempt(self):
        snippet = (
            "def rank(ranker, checkpoint):\n"
            "    ranker.restore_state(checkpoint)\n"
        )
        assert check_source(snippet, "src/repro/core/ranking.py") == []

    def test_response_cache_module_is_exempt(self):
        snippet = (
            "def build(config):\n"
            "    return DynamicCache(ttl_h=config.cache_ttl_h)\n"
        )
        assert check_source(snippet, "src/repro/server/cache.py") == []

    def test_tests_are_exempt(self):
        snippet = (
            "def test_rollback(ranker):\n"
            "    ranker.restore_state(ranker.checkpoint_state())\n"
        )
        assert check_source(snippet, "tests/server/test_example.py") == []


# ---------------------------------------------------------------------------
# R10 — time is read only through the injected Clock
# ---------------------------------------------------------------------------


class TestR10ClockBypass:
    EXPERIMENT_PATH = "src/repro/experiments/example.py"

    def test_fires_on_time_time(self):
        snippet = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert rule_ids(check_source(snippet, self.EXPERIMENT_PATH)) == ["R10"]

    def test_fires_on_perf_counter(self):
        snippet = (
            "import time\n"
            "def measure(fn):\n"
            "    start = time.perf_counter()\n"
            "    fn()\n"
            "    return time.perf_counter() - start\n"
        )
        assert rule_ids(check_source(snippet, self.EXPERIMENT_PATH)) == ["R10", "R10"]

    def test_fires_through_module_alias(self):
        snippet = (
            "import time as walltime\n"
            "def stamp():\n"
            "    return walltime.monotonic()\n"
        )
        assert rule_ids(check_source(snippet, self.EXPERIMENT_PATH)) == ["R10"]

    def test_fires_on_from_import(self):
        snippet = (
            "from time import perf_counter\n"
            "def measure():\n"
            "    return perf_counter()\n"
        )
        assert rule_ids(check_source(snippet, self.EXPERIMENT_PATH)) == ["R10"]

    def test_fires_on_aliased_from_import(self):
        snippet = (
            "from time import time_ns as now_ns\n"
            "def stamp():\n"
            "    return now_ns()\n"
        )
        assert rule_ids(check_source(snippet, self.EXPERIMENT_PATH)) == ["R10"]

    def test_clean_on_injected_clock(self):
        snippet = (
            "from repro.observability.clock import SYSTEM_CLOCK\n"
            "def measure(fn, clock=SYSTEM_CLOCK):\n"
            "    start = clock.monotonic()\n"
            "    fn()\n"
            "    return clock.monotonic() - start\n"
        )
        assert check_source(snippet, self.EXPERIMENT_PATH) == []

    def test_sleep_is_not_a_clock_read(self):
        snippet = (
            "import time\n"
            "def wait():\n"
            "    time.sleep(0.1)\n"
        )
        assert check_source(snippet, self.EXPERIMENT_PATH) == []

    def test_unrelated_name_is_not_flagged(self):
        # A local object that happens to have a .time() method is fine;
        # only reads through the time module (or its aliases) count.
        snippet = (
            "def stamp(clock):\n"
            "    return clock.time()\n"
        )
        assert check_source(snippet, self.EXPERIMENT_PATH) == []

    def test_observability_tier_is_exempt(self):
        snippet = (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        assert check_source(snippet, "src/repro/observability/clock.py") == []

    def test_tests_are_exempt(self):
        snippet = (
            "import time\n"
            "def test_latency():\n"
            "    assert time.perf_counter() >= 0\n"
        )
        assert check_source(snippet, "tests/test_example.py") == []


# ---------------------------------------------------------------------------
# R11 — the array table builder is an Offering Table sink
# ---------------------------------------------------------------------------


class TestR11TableBuilderSink:
    """Every ranked and re-scored table is built by
    ``build_table_from_arrays``, so a wall-clock value passed to it must
    be flagged even when the builder's own module is not analysed."""

    PATH = "src/repro/core/planted.py"

    @staticmethod
    def _planted(generated_at_h: str) -> str:
        return (
            "import time\n"
            "from .offering import build_table_from_arrays\n"
            "def planted(origin, components, sc_min, sc_max, rows, chargers):\n"
            f"    stamp = {generated_at_h}\n"
            "    return build_table_from_arrays(\n"
            "        segment_index=0, origin=origin, generated_at_h=stamp,\n"
            "        radius_km=1.0, components=components, sc_min=sc_min,\n"
            "        sc_max=sc_max, chosen_rows=rows, chargers=chargers,\n"
            "        eta_h=0.0)\n"
        )

    def test_clock_value_into_table_builder_fires(self):
        violations = check_source(self._planted("time.time()"), self.PATH, ["R11"])
        assert rule_ids(violations) == ["R11"]
        assert "Offering Table construction" in violations[0].message

    def test_deterministic_timestamp_is_clean(self):
        assert check_source(self._planted("9.5"), self.PATH, ["R11"]) == []


# ---------------------------------------------------------------------------
# R15 — backpressure bypass in the serving tier
# ---------------------------------------------------------------------------


class TestR15BackpressureBypass:
    SERVER_PATH = "src/repro/server/example.py"
    SCHEDULING_PATH = "src/repro/server/scheduling/example.py"

    def test_fires_on_unbounded_queue(self):
        snippet = (
            "import queue\n"
            "def build():\n"
            "    return queue.Queue()\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R15"]

    def test_fires_on_simple_queue_even_with_args(self):
        # SimpleQueue has no maxsize at all; it can never be bounded.
        snippet = (
            "from queue import SimpleQueue\n"
            "def build():\n"
            "    return SimpleQueue()\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R15"]

    def test_fires_on_priority_queue_with_zero_maxsize(self):
        # maxsize=0 is the stdlib's spelling of "unbounded".
        snippet = (
            "import queue\n"
            "def build():\n"
            "    return queue.PriorityQueue(maxsize=0)\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R15"]

    def test_fires_on_unbounded_deque(self):
        snippet = (
            "from collections import deque\n"
            "def build():\n"
            "    return deque()\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER_PATH)) == ["R15"]

    def test_clean_on_bounded_queue_and_deque(self):
        snippet = (
            "import queue\n"
            "from collections import deque\n"
            "def build():\n"
            "    return queue.Queue(maxsize=8), deque((), 32), deque(maxlen=4)\n"
        )
        assert check_source(snippet, self.SERVER_PATH) == []

    def test_fires_on_time_sleep_in_scheduling(self):
        snippet = (
            "import time\n"
            "def backoff():\n"
            "    time.sleep(0.1)\n"
        )
        assert rule_ids(check_source(snippet, self.SCHEDULING_PATH)) == ["R15"]

    def test_fires_on_aliased_sleep_import(self):
        snippet = (
            "from time import sleep as doze\n"
            "def backoff():\n"
            "    doze(0.1)\n"
        )
        assert rule_ids(check_source(snippet, self.SCHEDULING_PATH)) == ["R15"]

    def test_fires_on_zero_arg_blocking_calls(self):
        snippet = (
            "def park(event, lock, worker):\n"
            "    event.wait()\n"
            "    lock.acquire()\n"
            "    worker.join()\n"
        )
        assert rule_ids(check_source(snippet, self.SCHEDULING_PATH)) == [
            "R15", "R15", "R15",
        ]

    def test_clean_on_timed_blocking_calls(self):
        # Any argument counts as an explicit decision, including an
        # explicit timeout=None.
        snippet = (
            "def park(event, lock, worker, flight):\n"
            "    event.wait(0.05)\n"
            "    lock.acquire(timeout=1.0)\n"
            "    worker.join(timeout=5.0)\n"
            "    flight.done.wait(timeout=None)\n"
        )
        assert check_source(snippet, self.SCHEDULING_PATH) == []

    def test_blocking_calls_allowed_outside_scheduling(self):
        # The blocking-call discipline is scoped to the scheduling
        # package; the wider server tier only owes bounded queues.
        snippet = (
            "def park(event):\n"
            "    event.wait()\n"
        )
        assert check_source(snippet, self.SERVER_PATH) == []

    def test_queue_owner_module_is_exempt(self):
        snippet = (
            "import queue\n"
            "def build():\n"
            "    return queue.Queue()\n"
        )
        path = "src/repro/server/scheduling/queueing.py"
        assert check_source(snippet, path) == []

    def test_non_server_tier_is_exempt(self):
        snippet = (
            "import queue\n"
            "def build():\n"
            "    return queue.Queue()\n"
        )
        assert check_source(snippet, "src/repro/io/example.py") == []

    def test_tests_are_exempt(self):
        snippet = (
            "import queue\n"
            "def test_build():\n"
            "    assert queue.Queue() is not None\n"
        )
        assert check_source(snippet, "tests/server/test_example.py") == []


# ---------------------------------------------------------------------------
# engine / CLI
# ---------------------------------------------------------------------------


class TestEngineAndCli:
    def test_select_rules(self):
        assert [r.rule_id for r in select_rules(["R1", "r4"])] == ["R1", "R4"]
        with pytest.raises(KeyError):
            select_rules(["R99"])

    def test_all_fourteen_rules_registered(self):
        # R3, R16 and R17 are retired, and their ids are not reused.
        assert tuple(r.rule_id for r in ALL_RULES) == LIVE_RULES

    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "core" / "clean.py"
        clean.parent.mkdir()
        clean.write_text("def f(items=None):\n    return items or []\n")
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_test_files_are_recognised_whatever_the_root(self, tmp_path):
        # A helper under tests/ is test code whether the analysis is
        # rooted at the repo or at tests/ itself.
        helper = tmp_path / "tests" / "helper.py"
        helper.parent.mkdir()
        helper.write_text("def small(iv):\n    return iv.lo < 3\n")
        assert check_paths([tmp_path]).ok
        assert check_paths([tmp_path / "tests"]).ok
        library = tmp_path / "src" / "helper.py"
        library.parent.mkdir()
        library.write_text(helper.read_text())
        assert [v.rule_id for v in check_paths([tmp_path / "src"]).violations] == ["R1"]

    def test_cli_reports_violations_with_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("def f(items=[]):\n    return items\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R4" in out

    def test_cli_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(items=[]):\n    return items\n")
        assert main(["--format", "json", str(bad)]) == 1
        out = capsys.readouterr().out
        assert '"rule": "R4"' in out

    def test_cli_missing_path_exits_two(self, capsys):
        assert main(["/no/such/path-xyz"]) == 2

    def test_cli_unknown_rule_exits_two(self, capsys):
        assert main(["--select", "R99", str(SRC)]) == 2

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert tuple(listed) == LIVE_RULES

    def test_cli_annotations_flag(self, tmp_path, capsys):
        unannotated = tmp_path / "loose.py"
        unannotated.write_text("def f(x):\n    return x\n")
        assert main([str(unannotated)]) == 0  # every rule clean
        assert main(["--annotations", str(unannotated)]) == 1
        out = capsys.readouterr().out
        assert "TYP" in out

    def test_syntax_error_is_a_hard_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main([str(broken)]) == 2


# ---------------------------------------------------------------------------
# meta: the real tree is clean (the analyzer is a usable gate)
# ---------------------------------------------------------------------------


class TestRealTree:
    """Read the session's one gate analysis (``gate_report`` in
    conftest.py) rather than analysing the trees again."""

    def test_src_repro_is_clean(self, gate_report):
        src = [v for v in gate_report.violations if v.path.startswith("src/repro/")]
        assert src == [], "repro-check violations:\n" + "\n".join(v.render() for v in src)
        assert gate_report.rules_run == LIVE_RULES

    def test_tests_tree_is_clean(self, gate_report):
        tests = [v for v in gate_report.violations if v.path.startswith("tests/")]
        assert tests == [], "repro-check violations:\n" + "\n".join(v.render() for v in tests)


# ---------------------------------------------------------------------------
# runtime contracts (REPRO_CONTRACTS=1)
# ---------------------------------------------------------------------------


def _run_python(code: str, contracts: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if contracts:
        env["REPRO_CONTRACTS"] = "1"
    else:
        env.pop("REPRO_CONTRACTS", None)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


class TestContracts:
    def test_disabled_decorators_are_identity(self):
        code = (
            "from repro.analysis.contracts import require, ensure\n"
            "def f(x): return x\n"
            "assert require(lambda x: False, 'never')(f) is f\n"
            "assert ensure(lambda result: False, 'never')(f) is f\n"
        )
        proc = _run_python(code, contracts=False)
        assert proc.returncode == 0, proc.stderr

    def test_enabled_require_and_ensure_fire(self):
        code = (
            "from repro.analysis.contracts import require, ensure, ContractViolation\n"
            "@require(lambda x: x >= 0, 'x must be non-negative')\n"
            "def root(x): return x ** 0.5\n"
            "@ensure(lambda result: result > 0, 'positive')\n"
            "def broken(x): return -1\n"
            "assert root(4.0) == 2.0\n"
            "try:\n"
            "    root(-1.0)\n"
            "except ContractViolation as exc:\n"
            "    assert 'x must be non-negative' in str(exc)\n"
            "else:\n"
            "    raise SystemExit('require did not fire')\n"
            "try:\n"
            "    broken(1)\n"
            "except ContractViolation:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('ensure did not fire')\n"
        )
        proc = _run_python(code, contracts=True)
        assert proc.returncode == 0, proc.stderr

    def test_domain_contracts_hold_on_happy_paths(self):
        code = (
            "import numpy as np\n"
            "from repro.intervals import Interval\n"
            "from repro.interval_array import ComponentArrays, IntervalArray\n"
            "from repro.core.scoring import Weights, sc_score_batch, "
            "intersect_top_k_batch\n"
            "iv = Interval(0.2, 1.4).clamp(0.0, 1.0)\n"
            "assert iv.within_bounds(0.0, 1.0)\n"
            "wide = Interval(0.2, 0.4).widened(0.5)\n"
            "comp = ComponentArrays(np.array([7]), IntervalArray([0.1], [0.4]), "
            "IntervalArray([0.2], [0.9]), IntervalArray([0.0], [0.3]))\n"
            "sc_min, sc_max = sc_score_batch(comp, Weights.equal())\n"
            "top = intersect_top_k_batch(comp.charger_ids, sc_min, sc_max, 3)\n"
            "assert comp.charger_ids[top].tolist() == [7]\n"
        )
        proc = _run_python(code, contracts=True)
        assert proc.returncode == 0, proc.stderr

    def test_cache_admission_contract_holds(self):
        code = (
            "from repro.core.caching import CachedSolution, DynamicCache\n"
            "from repro.spatial.geometry import Point\n"
            "cache = DynamicCache(range_km=5.0, ttl_h=1.0)\n"
            "sol = CachedSolution(0, Point(0.0, 0.0), 0.0, 0.0, 50.0, (), ())\n"
            "cache.store(sol)\n"
            "assert cache.lookup(Point(1.0, 1.0), now_h=0.5, epoch=0) is not None\n"
            "assert cache.lookup(Point(30.0, 0.0), now_h=0.5, epoch=0) is None\n"
            "assert cache.lookup(Point(1.0, 1.0), now_h=5.0, epoch=0) is None\n"
        )
        proc = _run_python(code, contracts=True)
        assert proc.returncode == 0, proc.stderr

    def test_contract_violation_detects_broken_cache_admission(self):
        """Sabotage the admission check and watch the contract catch it —
        the runtime twin of rule R5's 'validity rides with the value'."""
        code = (
            "import threading\n"
            "from repro.core.caching import CachedSolution, CacheStats, DynamicCache\n"
            "from repro.analysis.contracts import ContractViolation\n"
            "from repro.spatial.geometry import Point\n"
            "class Sabotaged:\n"
            "    # Q appears huge to the implementation's admission check but\n"
            "    # tiny to the contract's re-check: a stand-in for a refactor\n"
            "    # that broke the Section IV-C admission logic.\n"
            "    def __init__(self):\n"
            "        self.ttl_h = 1.0\n"
            "        self.stats = CacheStats()\n"
            "        self._lock = threading.RLock()\n"
            "        self._entry = CachedSolution(0, Point(0.0, 0.0), 0.0, 0.0, 50.0, (), ())\n"
            "        self._reads = 0\n"
            "    @property\n"
            "    def range_km(self):\n"
            "        self._reads += 1\n"
            "        return 1e9 if self._reads == 1 else 0.5\n"
            "try:\n"
            "    DynamicCache.lookup(Sabotaged(), Point(3.0, 0.0), now_h=0.5, epoch=0)\n"
            "except ContractViolation:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('admission contract did not fire')\n"
        )
        proc = _run_python(code, contracts=True)
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# strict annotations (offline mypy subset)
# ---------------------------------------------------------------------------


class TestStrictAnnotations:
    def test_detects_missing_annotations(self, tmp_path):
        loose = tmp_path / "loose.py"
        loose.write_text("def f(x, *args, flag=True):\n    return x\n")
        violations = check_annotations([loose])
        assert len(violations) == 1
        message = violations[0].message
        assert "x" in message and "*args" in message and "return" in message

    def test_accepts_fully_annotated(self, tmp_path):
        tight = tmp_path / "tight.py"
        tight.write_text(
            "def f(x: int, *args: str, flag: bool = True) -> int:\n    return x\n"
        )
        assert check_annotations([tight]) == []

    def test_self_and_cls_exempt(self, tmp_path):
        src = tmp_path / "methods.py"
        src.write_text(
            "class C:\n"
            "    def m(self, x: int) -> int:\n"
            "        return x\n"
            "    @classmethod\n"
            "    def c(cls) -> 'C':\n"
            "        return cls()\n"
        )
        assert check_annotations([src]) == []
