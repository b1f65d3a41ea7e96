"""Tests of the benchmark's own rules: run from the repository root with

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench import hostspeed, stats, workloads
from bench.compare import verdict
from bench.trace import PER_LAYER, Tracer
from bench.workloads import TimedRanker, encode_table
from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.ecocharge import EcoChargeConfig, EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.ranking import run_over_trip
from repro.network.builders import build_grid_network
from repro.network.path import Trip
from repro.resilience.errors import UpstreamError

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the ten-samples-beyond percentile rule ----------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.min_samples_for(0.5) == 20
    assert stats.min_samples_for(0.9) == 100
    assert stats.min_samples_for(0.95) == 200
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 0.9)
    values = list(range(1, 101))
    assert stats.percentile(values, 0.9) == 90
    assert sum(1 for v in values if v > stats.percentile(values, 0.9)) == 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert stats.percentile(values, 0.5) == 3.0


# -- open-loop latency --------------------------------------------------------


def test_latency_counts_from_due_time():
    # Submitted 0.3 s late, answered 0.2 s after submission: 0.5 s.
    assert stats.latency_from_due(10.0, 10.3, 0.2, served=True) == pytest.approx(0.5)


def test_unserved_requests_are_misses():
    assert math.isinf(stats.latency_from_due(10.0, 10.0, 0.01, served=False))
    served = [0.1] * 9
    missed = [stats.latency_from_due(0.0, 0.0, 0.0, served=False)] * 11
    # More than half missed: the median itself is a miss.
    assert math.isinf(stats.percentile(served + missed, 0.5))


# -- self time across threads -------------------------------------------------


def test_self_time_is_per_thread():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    steps = [threading.Event() for _ in range(5)]

    def thread_a() -> None:
        now[0] = 0.0
        parent = tracer.begin("a.parent")
        steps[0].set()
        steps[1].wait(5)
        now[0] = 2.0
        child = tracer.begin("a.child")
        steps[2].set()
        steps[3].wait(5)
        now[0] = 6.0
        tracer.end(child)
        now[0] = 10.0
        tracer.end(parent)

    def thread_b() -> None:
        steps[0].wait(5)
        now[0] = 1.0
        parent = tracer.begin("b.parent")
        steps[1].set()
        steps[2].wait(5)
        now[0] = 5.0
        tracer.end(parent)
        steps[3].set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    totals = tracer.totals()
    # b's span overlaps a's child in time but is not its child: a's
    # parent loses only its own child's 4 s.
    assert totals["a.parent"] == (1, 10.0, 6.0)
    assert totals["a.child"] == (1, 4.0, 4.0)
    assert totals["b.parent"] == (1, 4.0, 4.0)
    spans = {span.name: span for span in tracer.spans}
    assert spans["a.child"].parent == spans["a.parent"].span_id
    assert spans["b.parent"].parent is None
    assert spans["a.parent"].thread != spans["b.parent"].thread


def test_aggregated_calls_count_against_their_span():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    span = tracer.begin("layer")
    for start in (1.0, 3.0):
        now[0] = start
        call = tracer.begin("per-charger", aggregate=True)
        now[0] = start + 0.5
        tracer.end(call)
    now[0] = 5.0
    tracer.end(span)
    totals = tracer.totals()
    assert totals["layer"] == (1, 5.0, 4.0)
    assert totals["per-charger"] == (2, 1.0, 1.0)
    assert [s.name for s in tracer.spans] == ["layer"]
    assert tracer.spans[0].agg["per-charger"] == [2, 1.0, 1.0]


# -- the host speed gauge -----------------------------------------------------


def test_speed_is_reference_over_mean_reading():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.speed([ref] * 3) == 1.0
    # Readings twice the reference on average: half speed.
    assert hostspeed.speed([ref, 3 * ref]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.speed([])


class _ScriptedGauge:
    def __init__(self, readings: list[float]) -> None:
        self.readings = iter(readings)

    def read(self) -> float:
        return next(self.readings)


def test_clock_scales_each_stretch_by_the_readings_around_it():
    ref = hostspeed.REFERENCE_S
    # Quiet before and after the first stretch; half speed on either
    # side of the second.
    gauge = _ScriptedGauge([ref, ref, 2 * ref, 2 * ref])
    clock = hostspeed.ReferenceClock(gauge, every_s=1.0)  # type: ignore[arg-type]
    clock.add(1.0)
    # Less than every_s gathered: no reading until it does.
    clock.add(0.5)
    assert clock.reference_s == pytest.approx(1.0)
    clock.add(0.5)
    assert clock.reference_s == pytest.approx(1.0 + 1.0 * 2 / 3)
    clock.add(4.0)
    assert clock.reference_s == pytest.approx(1.0 + 2 / 3 + 2.0)
    assert clock.wall_s == 6.0
    assert clock.speed == pytest.approx((1.0 + 2 / 3 + 2.0) / 6.0)
    # Nothing pending: settling reads nothing more.
    clock.settle()
    assert len(clock.readings) == 4


# -- the SegmentRanker adapter ------------------------------------------------


def _small_environment() -> ChargingEnvironment:
    network = build_grid_network(8, 8, block_km=1.0)
    registry = generate_catalog(network, CatalogSpec(charger_count=12, seed=3))
    return ChargingEnvironment(network, registry, seed=0)


class _FlakyRanker:
    """Mutates its state on every segment, then fails segment 1."""

    name = "flaky"

    def __init__(self, inner: EcoChargeRanker) -> None:
        self.inner = inner
        self.state: list[int] = []

    def rank_segment(self, trip, segment, eta_h, now_h, next_segment=None):
        self.state.append(segment.index)
        if segment.index == 1:
            raise UpstreamError("busy", "injected")
        return self.inner.rank_segment(trip, segment, eta_h, now_h, next_segment)

    def reset(self) -> None:
        self.state = []

    def checkpoint_state(self) -> list[int]:
        return list(self.state)

    def restore_state(self, state: list[int]) -> None:
        self.state = list(state)


def test_adapter_preserves_rollback():
    env = _small_environment()
    flaky = _FlakyRanker(EcoChargeRanker(env, EcoChargeConfig(segment_km=2.0)))
    adapter = TimedRanker(flaky)  # type: ignore[arg-type]
    trip = Trip.route(env.network, 0, 63, departure_time_h=10.0)
    run = run_over_trip(adapter, env, trip, segment_km=2.0)
    assert run.failed_segments == [1]
    # Segment 1's mutation was rolled back through the adapter.
    assert 1 not in flaky.state
    assert flaky.state == [t.segment_index for t in run.tables]
    assert len(adapter.samples) == len(run.tables)


def test_adapter_tables_equal_direct_tables():
    trip_nodes = (0, 63)
    tables = []
    for wrap in (False, True):
        env = _small_environment()
        ranker = EcoChargeRanker(env, EcoChargeConfig(segment_km=2.0))
        trip = Trip.route(env.network, *trip_nodes, departure_time_h=10.0)
        used = TimedRanker(ranker) if wrap else ranker
        tables.append([encode_table(t) for t in run_over_trip(used, env, trip, 2.0).tables])
    assert tables[0] == tables[1]


# -- the comparison rule ------------------------------------------------------


def test_compare_rule():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [p - 20 for p in parent], "lower", 0.1, True)[0] == "gain"
    assert verdict(parent, [p + 20 for p in parent], "lower", 0.1, True)[0] == "regression"
    assert verdict(parent, parent, "lower", 0.1, True)[0] == "no change"
    assert verdict(parent[:9], parent[:9], "lower", 0.1, True)[0].startswith("too few")
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, "lower", 0.1, True)[0].startswith("unresolved")
    assert "did not alternate" in verdict(parent, [p - 20 for p in parent], "lower", 0.1, False)[0]


# -- smoke runs emit every BENCHMARK.json metric ------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    result = workloads.run(name, seed=0, seconds=0.2, trace=trace, smoke_sizes=True, out_dir=tmp_path)
    assert result.correct, result.checks
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: unit for k, (_, unit) in result.metrics.items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    assert all(math.isfinite(value) for value, _ in result.metrics.values())
    if trace:
        assert (tmp_path / f"{name}.trace.json").exists()
        assert result.metrics["trace.unattributed_frac"][0] <= 0.10


def test_per_layer_list_matches_benchmark_json():
    assert [(e["name"], e["unit"]) for e in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_command_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "commute-incidents", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "dense-pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
