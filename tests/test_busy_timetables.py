"""``BusyTimetable.generate_many`` and ``generate`` against the hour-by-hour
scalar oracle in :mod:`tests.scalar_oracle`, bit for bit."""

from __future__ import annotations

import pytest

from repro.estimation.availability import AvailabilityEstimator, BusyTimetable

from .scalar_oracle import busy_timetable_row

SEEDS = range(2_000)

#: Parameter sets away from the defaults, by what they exercise.
PARAMS = {
    "weekend-zero": {"weekend_scale": 0.0},
    "weekend-flat": {"weekend_scale": 1.0},
    "clamps-high": {"base_load": 0.6, "morning_peak": 1.5, "evening_peak": 2.0},
    "clamps-low": {"base_load": -0.4, "midday_peak": 0.3},
    # A negative shape times a zero weekend scale is -0.0, which the
    # clamp must turn into 0.0 as the builtin ``max(0.0, level)`` does.
    "clamps-signed-zero": {"base_load": -0.4, "midday_peak": 0.3, "weekend_scale": 0.0},
}


def hexes(values) -> list[str]:
    """``float.hex`` per value: exact, and tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def oracle_rows() -> list[list[str]]:
    return [hexes(busy_timetable_row(seed)) for seed in SEEDS]


class TestDefaultParameters:
    def test_generate_many_matches_oracle(self, oracle_rows):
        tables = BusyTimetable.generate_many(list(SEEDS))
        assert [hexes(t.busyness) for t in tables] == oracle_rows

    def test_generate_matches_oracle(self, oracle_rows):
        assert [hexes(BusyTimetable.generate(seed).busyness) for seed in SEEDS] == oracle_rows

    def test_empty_seed_list(self):
        assert BusyTimetable.generate_many([]) == []


class TestParameters:
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_matches_oracle(self, name):
        params = PARAMS[name]
        seeds = list(range(100, 400))
        tables = BusyTimetable.generate_many(seeds, **params)
        assert [hexes(t.busyness) for t in tables] == [
            hexes(busy_timetable_row(seed, **params)) for seed in seeds
        ]
        assert hexes(BusyTimetable.generate(seeds[0], **params).busyness) == hexes(
            busy_timetable_row(seeds[0], **params)
        )

    @pytest.mark.parametrize("name, bound", [("clamps-high", 1.0), ("clamps-low", 0.0)])
    def test_clamp_is_hit(self, name, bound):
        # The oracle's unclamped level crosses ``bound`` somewhere, so the
        # equality above covers that clamp.
        rows = [busy_timetable_row(seed, **PARAMS[name]) for seed in range(100, 400)]
        assert any(bound in row for row in rows)
        assert any(0.0 < v < 1.0 for row in rows for v in row)


def test_estimator_timetables_match_oracle(small_registry):
    seed = 3
    estimator = AvailabilityEstimator(small_registry, seed=seed)
    for charger in small_registry:
        expected = busy_timetable_row(seed * 1_000_003 + charger.charger_id)
        assert hexes(estimator.timetable(charger.charger_id).busyness) == hexes(expected)
