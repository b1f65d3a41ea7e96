"""Baseline ranker tests: Brute-Force, Index-Quadtree, Random."""

import pytest

from repro.core.baselines import BruteForceRanker, QuadtreeRanker, RandomRanker
from repro.core.ranking import RankingRun, run_over_trip
from repro.core.scoring import Weights

from .scalar_oracle import rows, sc_score


class TestBruteForce:
    def test_k_entries(self, small_environment, sample_trip):
        ranker = BruteForceRanker(small_environment, k=4)
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        assert len(table) == 4

    def test_top_choice_maximises_sc_max(self, small_environment, sample_trip):
        """Brute force's winner has the highest SC_max in the whole pool
        among chargers that also make the SC_min top-k (Eq. 6)."""
        ranker = BruteForceRanker(small_environment, k=3)
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        scores = small_environment.score_pool(
            segment, small_environment.registry.all(), eta_h=10.2, now_h=10.0,
            next_segment=sample_trip.segments()[1],
        )
        best_possible = max(
            sc_score(c, Weights.equal()).sc_max for c in rows(scores)
        )
        assert table.best.score.sc_max <= best_possible + 1e-9

    def test_deterministic(self, small_environment, sample_trip):
        segment = sample_trip.segments()[0]
        a = BruteForceRanker(small_environment, k=3).rank_segment(
            sample_trip, segment, 10.2, 10.0
        )
        b = BruteForceRanker(small_environment, k=3).rank_segment(
            sample_trip, segment, 10.2, 10.0
        )
        assert a.charger_ids() == b.charger_ids()

    def test_k_validation(self, small_environment):
        with pytest.raises(ValueError):
            BruteForceRanker(small_environment, k=0)


class TestQuadtree:
    def test_pool_is_spatially_bounded(self, small_environment, sample_trip):
        ranker = QuadtreeRanker(small_environment, k=3, candidate_count=8)
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        # All selected chargers are among the 8 spatially nearest.
        nearest8 = {
            c.charger_id
            for c in small_environment.registry.nearest(segment.midpoint, 8)
        }
        assert set(table.charger_ids()) <= nearest8

    def test_candidate_count_validation(self, small_environment):
        with pytest.raises(ValueError):
            QuadtreeRanker(small_environment, k=5, candidate_count=3)
        with pytest.raises(ValueError):
            QuadtreeRanker(small_environment, k=0)

    def test_default_candidate_count(self, small_environment):
        ranker = QuadtreeRanker(small_environment, k=5)
        assert ranker.candidate_count == max(20, len(small_environment.registry) // 20)

    def test_never_beats_brute_force_estimate(self, small_environment, sample_trip):
        segment = sample_trip.segments()[0]
        brute = BruteForceRanker(small_environment, k=3).rank_segment(
            sample_trip, segment, 10.2, 10.0
        )
        quad = QuadtreeRanker(small_environment, k=3, candidate_count=6).rank_segment(
            sample_trip, segment, 10.2, 10.0
        )
        assert quad.best.score.sc_max <= brute.best.score.sc_max + 1e-9


class TestRandom:
    def test_k_entries_within_radius(self, small_environment, sample_trip):
        ranker = RandomRanker(small_environment, k=4, radius_km=8.0, seed=1)
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        assert len(table) == 4
        for entry in table:
            assert entry.charger.point.distance_to(segment.midpoint) <= 8.0 + 1e-6

    def test_reset_reproduces_sequence(self, small_environment, sample_trip):
        ranker = RandomRanker(small_environment, k=4, radius_km=8.0, seed=1)
        segment = sample_trip.segments()[0]
        first = ranker.rank_segment(sample_trip, segment, 10.2, 10.0).charger_ids()
        ranker.reset()
        second = ranker.rank_segment(sample_trip, segment, 10.2, 10.0).charger_ids()
        assert first == second

    def test_different_seeds_differ(self, small_environment, sample_trip):
        segment = sample_trip.segments()[0]
        a = RandomRanker(small_environment, k=5, radius_km=10.0, seed=1).rank_segment(
            sample_trip, segment, 10.2, 10.0
        )
        b = RandomRanker(small_environment, k=5, radius_km=10.0, seed=2).rank_segment(
            sample_trip, segment, 10.2, 10.0
        )
        assert a.charger_ids() != b.charger_ids()

    def test_tiny_radius_fallback(self, small_environment, sample_trip):
        ranker = RandomRanker(small_environment, k=2, radius_km=0.001, seed=1)
        segment = sample_trip.segments()[0]
        assert len(ranker.rank_segment(sample_trip, segment, 10.2, 10.0)) == 2

    def test_validation(self, small_environment):
        with pytest.raises(ValueError):
            RandomRanker(small_environment, k=0)
        with pytest.raises(ValueError):
            RandomRanker(small_environment, k=1, radius_km=0.0)


class TestRunOverTrip:
    def test_one_table_per_segment(self, small_environment, sample_trip):
        run = run_over_trip(
            BruteForceRanker(small_environment, k=2), small_environment, sample_trip
        )
        assert isinstance(run, RankingRun)
        assert len(run.tables) == len(sample_trip.segments())
        assert [t.segment_index for t in run.tables] == list(
            range(len(run.tables))
        )

    def test_table_for(self, small_environment, sample_trip):
        run = run_over_trip(
            BruteForceRanker(small_environment, k=2), small_environment, sample_trip
        )
        assert run.table_for(0).segment_index == 0
        with pytest.raises(KeyError):
            run.table_for(999)

    def test_custom_segment_length(self, small_environment, sample_trip):
        run = run_over_trip(
            BruteForceRanker(small_environment, k=2),
            small_environment,
            sample_trip,
            segment_km=2.0,
        )
        assert len(run.tables) == len(sample_trip.segments(2.0))
