"""Sustainability Score tests: weights, Eq. 4-6, top-k intersection.

Eq. 4-6 run through the production array functions, one row (or one
list of scores) at a time via the two adapters below.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import ContractViolation, contracts_enabled
from repro.intervals import Interval
from repro.core.scoring import (
    ABLATION_CONFIGS,
    ScScore,
    Weights,
    intersect_top_k_batch,
    sc_exact,
    sc_score_batch,
)
from repro.interval_array import ComponentArrays, IntervalArray

from .scalar_oracle import ComponentScores, rank_by_midpoint

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def sc_score(components: ComponentScores, weights: Weights) -> ScScore:
    """Eq. 4-5 for one charger through ``sc_score_batch``."""
    sc_min, sc_max = sc_score_batch(ComponentArrays.from_scores([components]), weights)
    return ScScore(components.charger_id, float(sc_min[0]), float(sc_max[0]))


def intersect_top_k(scores: list[ScScore], k: int, pad: bool = True) -> list[ScScore]:
    """Eq. 6 over a list of scores through ``intersect_top_k_batch``."""
    rows = intersect_top_k_batch(
        np.array([s.charger_id for s in scores], dtype=np.int64),
        np.array([s.sc_min for s in scores], dtype=np.float64),
        np.array([s.sc_max for s in scores], dtype=np.float64),
        k,
        pad=pad,
    )
    return [scores[row] for row in rows]


@st.composite
def component_scores(draw, charger_id=0):
    def iv():
        a, b = sorted((draw(unit), draw(unit)))
        return Interval(a, b)

    return ComponentScores(charger_id, iv(), iv(), iv())


class TestWeights:
    def test_equal(self):
        w = Weights.equal()
        assert w.sustainable == w.availability == w.derouting == pytest.approx(1 / 3)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Weights(0.5, 0.5, 0.5)

    def test_non_negative(self):
        with pytest.raises(ValueError):
            Weights(1.5, -0.5, 0.0)

    def test_ablation_configs_complete(self):
        assert set(ABLATION_CONFIGS) == {"AWE", "OSC", "OA", "ODC"}
        assert ABLATION_CONFIGS["OSC"].sustainable == 1.0
        assert ABLATION_CONFIGS["OA"].availability == 1.0
        assert ABLATION_CONFIGS["ODC"].derouting == 1.0


class TestScScore:
    def test_paper_equations(self):
        comp = ComponentScores(
            7,
            sustainable=Interval(0.2, 0.6),
            availability=Interval(0.5, 0.9),
            derouting=Interval(0.1, 0.3),
        )
        score = sc_score(comp, Weights.equal())
        # Eq. 4: lower estimates everywhere, derouting flipped.
        assert score.sc_min == pytest.approx((0.2 + 0.5 + 0.9) / 3)
        # Eq. 5: upper estimates everywhere.
        assert score.sc_max == pytest.approx((0.6 + 0.9 + 0.7) / 3)
        assert score.charger_id == 7

    def test_derouting_only_inverts(self):
        comp = ComponentScores(0, Interval.exact(0.0), Interval.exact(0.0),
                               Interval(0.2, 0.8))
        score = sc_score(comp, Weights.only_derouting())
        assert score.sc_min == pytest.approx(0.8)  # 1 - 0.2
        assert score.sc_max == pytest.approx(0.2)  # 1 - 0.8; min > max is legal

    def test_midpoint_and_pessimistic(self):
        score = ScScore(0, sc_min=0.8, sc_max=0.2)
        assert score.midpoint == pytest.approx(0.5)
        assert score.pessimistic == pytest.approx(0.2)

    def test_sc_exact(self):
        assert sc_exact(0.9, 0.6, 0.3, Weights.equal()) == pytest.approx(
            (0.9 + 0.6 + 0.7) / 3
        )

    def test_exact_components_make_scenarios_agree(self):
        comp = ComponentScores(
            0, Interval.exact(0.4), Interval.exact(0.7), Interval.exact(0.2)
        )
        score = sc_score(comp, Weights.equal())
        assert score.sc_min == pytest.approx(score.sc_max)

    @given(component_scores(), st.sampled_from(list(ABLATION_CONFIGS.values())))
    def test_scores_bounded(self, comp, weights):
        score = sc_score(comp, weights)
        assert -1e-9 <= score.sc_min <= 1.0 + 1e-9
        assert -1e-9 <= score.sc_max <= 1.0 + 1e-9

    def test_component_normalisation_enforced(self):
        half = IntervalArray.exact([0.5])
        with pytest.raises(ValueError, match="not normalised"):
            ComponentArrays(
                np.array([0]), IntervalArray(np.array([0.0]), np.array([1.5])), half, half
            )


def _scores(*pairs):
    return [ScScore(i, lo, hi) for i, (lo, hi) in enumerate(pairs)]


class TestIntersectTopK:
    def test_agreeing_scenarios(self):
        scores = _scores((0.9, 0.95), (0.5, 0.6), (0.8, 0.85), (0.1, 0.2))
        chosen = intersect_top_k(scores, 2)
        assert [s.charger_id for s in chosen] == [0, 2]

    def test_sorted_by_sc_max_desc(self):
        scores = _scores((0.5, 0.7), (0.6, 0.9), (0.55, 0.8))
        chosen = intersect_top_k(scores, 3)
        sc_maxes = [s.sc_max for s in chosen]
        assert sc_maxes == sorted(sc_maxes, reverse=True)

    def test_disagreeing_scenarios_padded(self):
        # Charger 0 wins sc_min, charger 1 wins sc_max: intersection of the
        # top-1 sets is empty, so padding fills by midpoint.
        scores = _scores((0.9, 0.1), (0.1, 0.9))
        chosen = intersect_top_k(scores, 1, pad=True)
        assert len(chosen) == 1

    def test_disagreeing_scenarios_strict(self):
        scores = _scores((0.9, 0.1), (0.1, 0.9))
        chosen = intersect_top_k(scores, 1, pad=False)
        assert chosen == []

    def test_k_larger_than_pool(self):
        scores = _scores((0.5, 0.5), (0.6, 0.6))
        assert len(intersect_top_k(scores, 10)) == 2

    def test_k_validation(self):
        with pytest.raises(ValueError):
            intersect_top_k([], 0)

    def test_empty_input(self):
        assert intersect_top_k([], 3) == []

    def test_no_duplicates(self):
        scores = _scores(*[(0.5 + i * 0.01, 0.6 + i * 0.01) for i in range(20)])
        chosen = intersect_top_k(scores, 8)
        ids = [s.charger_id for s in chosen]
        assert len(ids) == len(set(ids)) == 8

    def test_deterministic_tiebreak(self):
        scores = _scores((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
        a = intersect_top_k(list(scores), 2)
        b = intersect_top_k(list(reversed(scores)), 2)
        assert [s.charger_id for s in a] == [s.charger_id for s in b]

    @settings(max_examples=50)
    @given(
        st.lists(st.tuples(unit, unit), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=10),
    )
    def test_property_result_size_and_membership(self, pairs, k):
        scores = _scores(*pairs)
        chosen = intersect_top_k(scores, k, pad=True)
        assert len(chosen) == min(k, len(scores))
        ids = {s.charger_id for s in scores}
        assert all(s.charger_id in ids for s in chosen)

    @settings(max_examples=50)
    @given(
        st.lists(st.tuples(unit, unit), min_size=2, max_size=30),
        st.integers(min_value=1, max_value=10),
    )
    def test_property_strict_subset_of_padded(self, pairs, k):
        scores = _scores(*pairs)
        strict = {s.charger_id for s in intersect_top_k(scores, k, pad=False)}
        padded = {s.charger_id for s in intersect_top_k(scores, k, pad=True)}
        assert strict <= padded


class TestRankByMidpoint:
    def test_orders_by_midpoint(self):
        scores = _scores((0.2, 0.4), (0.5, 0.9), (0.3, 0.3))
        ranked = rank_by_midpoint(scores, 3)
        assert [s.charger_id for s in ranked] == [1, 0, 2]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            rank_by_midpoint([], 0)


@pytest.mark.skipif(
    not contracts_enabled(), reason="runtime contracts are off (set REPRO_CONTRACTS=1)"
)
class TestEq46Contracts:
    """The runtime contracts on the array path catch bad inputs and bad
    results."""

    @staticmethod
    def _rows(*levels):
        return ComponentArrays.from_scores([
            SimpleNamespace(
                charger_id=i,
                sustainable=Interval.exact(level),
                availability=Interval.exact(level),
                derouting=Interval.exact(0.0),
            )
            for i, level in enumerate(levels)
        ])

    def test_components_outside_unit_range_rejected(self):
        with pytest.raises(ContractViolation, match="normalised"):
            sc_score_batch(self._rows(0.5, 1.5), Weights.equal())

    def test_score_above_one_rejected(self):
        # Inputs and weights each within their 1e-9 tolerance, but the
        # product overshoots the score bound.
        weights = Weights(1.0 + 9e-10, 0.0, 0.0)
        with pytest.raises(ContractViolation, match="scenario scores"):
            sc_score_batch(self._rows(1.0 + 1e-9), weights)

    def test_duplicate_chargers_in_top_k_rejected(self):
        ids = np.array([3, 3, 5])
        scores = np.array([0.9, 0.8, 0.1])
        with pytest.raises(ContractViolation, match="unique"):
            intersect_top_k_batch(ids, scores, scores, 2)

    def test_unordered_top_k_rejected(self):
        scores = np.array([math.nan, 0.5])
        with pytest.raises(ContractViolation, match="sorted"):
            intersect_top_k_batch(np.array([0, 1]), scores, scores, 2)
