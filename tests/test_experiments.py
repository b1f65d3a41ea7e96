"""Experiment harness tests: metrics, comparison protocol, figure drivers.

Figure drivers run on a heavily scaled-down workload (scale=0.1, one
dataset, one repetition) — the full-scale numbers live in EXPERIMENTS.md;
these tests assert the *machinery* and the expected qualitative shape.
"""

import json
import math

import pytest

from repro.core.scoring import Weights
from repro.experiments.harness import (
    HarnessConfig,
    compare_methods,
    default_rankers,
    ecocharge_factory,
)
from repro.experiments.metrics import (
    MeanStd,
    Stopwatch,
    component_contributions,
    sc_percent,
    true_sc_of_selection,
)
from repro.experiments.report import format_ablation_table, format_results_table
from repro.core.environment import TrueComponents
from repro.trajectories.datasets import load_workload


@pytest.fixture(scope="module")
def tiny_workload():
    return load_workload("oldenburg", scale=0.2)


@pytest.fixture(scope="module")
def tiny_config():
    return HarnessConfig(trips_per_dataset=2, repetitions=1)


class TestMeanStd:
    def test_basic(self):
        ms = MeanStd.of([1.0, 2.0, 3.0])
        assert ms.mean == 2.0
        assert ms.std == pytest.approx(1.0)
        assert ms.count == 3

    def test_single_value(self):
        ms = MeanStd.of([5.0])
        assert ms.std == 0.0

    def test_empty(self):
        ms = MeanStd.of([])
        assert math.isnan(ms.mean) and ms.count == 0

    def test_str(self):
        assert "n=2" in str(MeanStd.of([1.0, 3.0]))


class TestStopwatch:
    def test_laps_accumulate(self):
        watch = Stopwatch()
        for __ in range(3):
            with watch.lap():
                pass
        assert len(watch.laps_ms) == 3
        assert watch.total_ms >= 0.0
        assert watch.summary().count == 3


class TestSelectionMetrics:
    TRUTHS = {
        1: TrueComponents(1, sustainable=0.9, availability=0.8, derouting=0.1),
        2: TrueComponents(2, sustainable=0.3, availability=0.4, derouting=0.7),
    }

    def test_true_sc_of_selection(self):
        sc = true_sc_of_selection(self.TRUTHS, [1], Weights.equal())
        assert sc == pytest.approx((0.9 + 0.8 + 0.9) / 3)

    def test_mean_over_selection(self):
        both = true_sc_of_selection(self.TRUTHS, [1, 2], Weights.equal())
        only1 = true_sc_of_selection(self.TRUTHS, [1], Weights.equal())
        only2 = true_sc_of_selection(self.TRUTHS, [2], Weights.equal())
        assert both == pytest.approx((only1 + only2) / 2)

    def test_empty_selection(self):
        assert true_sc_of_selection(self.TRUTHS, [], Weights.equal()) == 0.0

    def test_sc_percent(self):
        assert sc_percent(0.5, 1.0) == 50.0
        assert sc_percent(0.0, 0.0) == 0.0
        assert sc_percent(1.0, 0.0) == math.inf

    def test_contributions_sum_to_one(self):
        shares = component_contributions(self.TRUTHS, [1, 2])
        assert sum(shares) == pytest.approx(1.0)

    def test_contributions_empty(self):
        assert component_contributions(self.TRUTHS, []) == (0.0, 0.0, 0.0)

    def test_contributions_reflect_dominant_term(self):
        truths = {1: TrueComponents(1, sustainable=1.0, availability=0.0, derouting=1.0)}
        shares = component_contributions(truths, [1])
        assert shares[0] == pytest.approx(1.0)


class TestCompareMethods:
    def test_brute_force_is_reference(self, tiny_workload, tiny_config):
        factories = default_rankers(k=3, weights=Weights.equal(), radius_km=20.0)
        results = compare_methods(tiny_workload, factories, tiny_config)
        by_name = {r.method: r for r in results}
        assert by_name["brute-force"].sc_pct.mean == pytest.approx(100.0)

    def test_expected_quality_ordering(self, tiny_workload, tiny_config):
        """The paper's Figure-6 shape: brute >= ecocharge > quadtree > random."""
        factories = default_rankers(k=3, weights=Weights.equal(), radius_km=20.0)
        results = compare_methods(tiny_workload, factories, tiny_config)
        by_name = {r.method: r.sc_pct.mean for r in results}
        assert by_name["ecocharge"] > by_name["random"]
        assert by_name["index-quadtree"] > by_name["random"]
        assert by_name["brute-force"] >= by_name["ecocharge"] - 5.0

    def test_random_is_fastest(self, tiny_workload, tiny_config):
        factories = default_rankers(k=3, weights=Weights.equal(), radius_km=20.0)
        results = compare_methods(tiny_workload, factories, tiny_config)
        by_name = {r.method: r.ft_ms.mean for r in results}
        assert by_name["random"] < by_name["brute-force"]

    def test_unknown_reference_rejected(self, tiny_workload, tiny_config):
        factories = default_rankers(k=3, weights=Weights.equal())
        with pytest.raises(ValueError):
            compare_methods(tiny_workload, factories, tiny_config, reference="nope")

    def test_sample_counts(self, tiny_workload):
        config = HarnessConfig(trips_per_dataset=1, repetitions=2)
        factories = {"brute-force": default_rankers(3, Weights.equal())["brute-force"]}
        results = compare_methods(tiny_workload, factories, config)
        trip = tiny_workload.trips[0]
        # repetitions x segments measurements (one trip sampled).
        assert results[0].ft_ms.count % 2 == 0

    def test_ecocharge_factory_configures(self, tiny_workload):
        factory = ecocharge_factory(
            k=2, weights=Weights.equal(), radius_km=7.0, range_km=3.0
        )
        ranker = factory(tiny_workload.environment)
        assert ranker.config.radius_km == 7.0
        assert ranker.config.range_km == 3.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HarnessConfig(trips_per_dataset=0)
        with pytest.raises(ValueError):
            HarnessConfig(repetitions=0)
        with pytest.raises(ValueError):
            HarnessConfig(k=0)


class TestReportFormatting:
    def test_results_table(self, tiny_workload, tiny_config):
        factories = {"brute-force": default_rankers(3, Weights.equal())["brute-force"]}
        results = compare_methods(tiny_workload, factories, tiny_config)
        text = format_results_table(results, "Title")
        assert text.splitlines()[0] == "Title"
        assert "brute-force" in text and "F_t (ms)" in text

    def test_ablation_table(self, tiny_workload, tiny_config):
        factories = {"brute-force": default_rankers(3, Weights.equal())["brute-force"]}
        results = compare_methods(tiny_workload, factories, tiny_config)
        text = format_ablation_table(results, "Ablation")
        assert "w1:L (%)" in text


class TestFigureDrivers:
    CONFIG = HarnessConfig(trips_per_dataset=1, repetitions=1, dataset_scale=0.1, k=3)

    def test_figure6_rows(self):
        from repro.experiments.figure6 import run_figure6

        results = run_figure6(self.CONFIG, datasets=("oldenburg",))
        assert {r.method for r in results} == {
            "brute-force", "index-quadtree", "random", "ecocharge",
        }

    def test_figure7_sweeps_r(self):
        from repro.experiments.figure7 import run_figure7

        results = run_figure7(self.CONFIG, datasets=("oldenburg",), radii_km=(10.0, 20.0))
        assert {r.method for r in results} == {
            "ecocharge R=10km", "ecocharge R=20km",
        }

    def test_figure8_sweeps_q(self):
        from repro.experiments.figure8 import run_figure8

        results = run_figure8(self.CONFIG, datasets=("oldenburg",), ranges_km=(5.0, 15.0))
        assert {r.method for r in results} == {
            "ecocharge Q=5km", "ecocharge Q=15km",
        }

    def test_figure9_ablations(self):
        from repro.experiments.figure9 import run_figure9

        results = run_figure9(self.CONFIG, datasets=("oldenburg",))
        assert {r.method for r in results} == {"AWE", "OSC", "OA", "ODC"}
        for result in results:
            assert sum(result.contributions) == pytest.approx(1.0, abs=1e-6)

    def test_cli_parser(self):
        from repro.experiments.__main__ import _build_parser

        args = _build_parser().parse_args(["figure6", "--trips", "2", "--reps", "1"])
        assert args.experiment == "figure6" and args.trips == 2

    def test_cli_has_no_perf_driver(self):
        from repro.experiments.__main__ import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["perf"])


class TestServingDriver:
    def test_smoke_report_shape_and_accounting(self, tmp_path, monkeypatch):
        from repro.experiments.serving_report import run_serving

        monkeypatch.chdir(tmp_path)
        report = run_serving(HarnessConfig(dataset_scale=0.3, repetitions=1))
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_serving_smoke.json"]
        written = json.loads((tmp_path / "BENCH_serving_smoke.json").read_text())
        assert written == report
        assert set(report) == {"report", "smoke", "dataset", "matrix", "threaded"}
        assert report["matrix"]
        for name, cell in report["matrix"].items():
            assert cell["accounting_exact"], name
            assert cell["reconciliation"] == [], name
            assert sum(cell["outcomes"].values()) == cell["requests"], name
        threaded = report["threaded"]
        assert threaded["accounting_exact"] and threaded["reconciliation"] == []
        assert threaded["served"] == threaded["requests"]
