"""Bitwise equality of the array pipeline against the scalar oracle.

The vectorised modules (:mod:`repro.interval_array`,
:func:`repro.core.scoring.sc_score_batch`,
:func:`repro.core.scoring.intersect_top_k_batch`, and the flat-array
table build) promise results *bitwise identical* to the per-row
``Interval`` pipeline kept in :mod:`tests.scalar_oracle` — the same
contract the engine backends keep with each other.  These property
tests drive both over generated inputs (including ``-0.0``,
infinities, and quantisation edges) and compare raw float bit
patterns, not ``==`` (which would let ``-0.0 == 0.0`` slide).
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    ComponentScores,
    Weights,
    intersect_top_k,
    intersect_top_k_batch,
    sc_score,
    sc_score_batch,
)
from repro.interval_array import ComponentArrays, IntervalArray, quantize
from repro.intervals import Interval
from repro.network.distance_engine import DISTANCE_DECIMALS

from .scalar_oracle import (
    ScalarEcoCharge,
    assert_tables_bitequal,
    bits,
    price_rows,
    refine_rows,
)


def assert_bitequal(a: float, b: float) -> None:
    assert bits(a) == bits(b), f"{a!r} and {b!r} differ bitwise"


def assert_interval_rows_match(array: IntervalArray, scalars: list[Interval]) -> None:
    assert len(array) == len(scalars)
    for i, interval in enumerate(scalars):
        assert_bitequal(float(array.lo[i]), interval.lo)
        assert_bitequal(float(array.hi[i]), interval.hi)


finite = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e100, max_value=1e100
)
#: Endpoints including signed zeros and infinities (legal Interval inputs).
endpoint = st.floats(allow_nan=False, allow_infinity=True, width=64)
unit = st.floats(min_value=0.0, max_value=1.0, width=64)


@st.composite
def intervals(draw, values=finite):
    a, b = draw(values), draw(values)
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_lists(draw, values=finite, min_size=0, max_size=12):
    return draw(
        st.lists(intervals(values=values), min_size=min_size, max_size=max_size)
    )


class TestIntervalArrayOps:
    """Every IntervalArray operation mirrors the scalar Interval op
    elementwise, bit for bit."""

    @given(interval_lists(values=endpoint))
    def test_pack_unpack_roundtrip(self, rows):
        array = IntervalArray.from_intervals(rows)
        assert_interval_rows_match(array, rows)
        assert [iv for iv in array.to_intervals()] == rows

    @given(interval_lists(), interval_lists())
    def test_add(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        got = IntervalArray.from_intervals(a).add(IntervalArray.from_intervals(b))
        assert_interval_rows_match(got, [x + y for x, y in zip(a, b)])

    @given(interval_lists(), finite)
    def test_add_scalar(self, rows, c):
        got = IntervalArray.from_intervals(rows).add(c)
        assert_interval_rows_match(got, [iv + c for iv in rows])

    @given(interval_lists(), finite)
    def test_mul_scalar_sign_aware(self, rows, c):
        got = IntervalArray.from_intervals(rows).mul_scalar(c)
        assert_interval_rows_match(got, [iv * c for iv in rows])

    @given(interval_lists(), interval_lists())
    def test_mul_four_products(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        got = IntervalArray.from_intervals(a).mul(IntervalArray.from_intervals(b))
        assert_interval_rows_match(got, [x * y for x, y in zip(a, b)])

    def test_mul_signed_zero_ties_match_scalar(self):
        # 0 * negative = -0.0: the four-products reduction must keep
        # Python's first-minimal-wins tie behaviour, not IEEE's.
        a = [Interval(0.0, 0.0), Interval(-1.0, 0.0)]
        b = [Interval(-1.0, 1.0), Interval(0.0, 0.0)]
        got = IntervalArray.from_intervals(a).mul(IntervalArray.from_intervals(b))
        assert_interval_rows_match(got, [x * y for x, y in zip(a, b)])

    @given(interval_lists())
    def test_negate(self, rows):
        got = IntervalArray.from_intervals(rows).negate()
        assert_interval_rows_match(got, [-iv for iv in rows])

    @given(interval_lists(values=unit))
    def test_complement_to_one(self, rows):
        got = IntervalArray.from_intervals(rows).complement_to_one()
        assert_interval_rows_match(got, [iv.complement_to_one() for iv in rows])

    @given(interval_lists(), st.tuples(finite, finite))
    def test_clamp(self, rows, bounds):
        lo, hi = min(bounds), max(bounds)
        got = IntervalArray.from_intervals(rows).clamp(lo, hi)
        assert_interval_rows_match(got, [iv.clamp(lo, hi) for iv in rows])

    @given(interval_lists(values=endpoint), st.lists(endpoint, min_size=12, max_size=12))
    def test_capped_at_is_builtin_min(self, rows, ceilings):
        cap = np.array(ceilings[: len(rows)], dtype=np.float64)
        got = IntervalArray.from_intervals(rows).capped_at(cap)
        expected = [
            Interval(min(iv.lo, c), min(iv.hi, c)) for iv, c in zip(rows, cap.tolist())
        ]
        assert_interval_rows_match(got, expected)

    def test_capped_at_signed_zero_tie_keeps_endpoint(self):
        got = IntervalArray.from_intervals([Interval(-0.0, 0.0)]).capped_at(
            np.array([0.0])
        )
        assert_bitequal(float(got.lo[0]), -0.0)
        assert_bitequal(float(got.hi[0]), 0.0)

    @given(interval_lists(), finite)
    @example(rows=[Interval(0.0, 1.85e48)], maximum=1.0e-261)  # quotient overflows to inf
    def test_scaled_by_max(self, rows, maximum):
        got = IntervalArray.from_intervals(rows).scaled_by_max(maximum)
        assert_interval_rows_match(got, [iv.scaled_by_max(maximum) for iv in rows])

    @given(
        interval_lists(),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=64),
    )
    def test_widened(self, rows, factor):
        got = IntervalArray.from_intervals(rows).widened(factor)
        assert_interval_rows_match(got, [iv.widened(factor) for iv in rows])

    @given(interval_lists(values=endpoint), interval_lists(values=endpoint))
    def test_hull_and_intersects(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        arr_a, arr_b = IntervalArray.from_intervals(a), IntervalArray.from_intervals(b)
        assert_interval_rows_match(arr_a.hull(arr_b), [x.hull(y) for x, y in zip(a, b)])
        got = arr_a.intersects(arr_b)
        assert got.tolist() == [x.intersects(y) for x, y in zip(a, b)]

    @given(interval_lists(values=endpoint), finite, finite, unit)
    def test_within_bounds(self, rows, a, b, tol):
        lo, hi = min(a, b), max(a, b)
        got = IntervalArray.from_intervals(rows).within_bounds(lo, hi, tol=tol)
        assert got.tolist() == [iv.within_bounds(lo, hi, tol=tol) for iv in rows]

    def test_signed_zero_survives_packing(self):
        rows = [Interval(-0.0, 0.0), Interval(-0.0, -0.0)]
        array = IntervalArray.from_intervals(rows)
        assert_interval_rows_match(array, rows)
        assert math.copysign(1.0, float(array.lo[0])) == -1.0

    def test_infinite_endpoints_allowed_like_scalar(self):
        # Interval allows [inf, inf] (inf > inf is False); so must the array.
        rows = [Interval(math.inf, math.inf), Interval(-math.inf, 3.0)]
        assert_interval_rows_match(IntervalArray.from_intervals(rows), rows)

    @given(st.lists(finite, max_size=16))
    def test_validation_matches_scalar(self, values):
        # lo > hi rejected exactly like Interval's own post-init.
        if len(values) >= 2 and values[0] > values[1]:
            with pytest.raises(ValueError):
                IntervalArray(
                    np.array([values[0]]), np.array([values[1]])
                )

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            IntervalArray(np.array([math.nan]), np.array([1.0]))


class TestQuantize:
    """Array quantisation must match the engine's scalar round exactly."""

    @given(st.lists(finite, max_size=32))
    def test_matches_scalar_round(self, values):
        got = quantize(values)
        for v, q in zip(values, got.tolist()):
            assert_bitequal(q, round(v, DISTANCE_DECIMALS))

    def test_quantisation_edges(self):
        # Values straddling the 1e-9 quantum, where np.round's
        # scale-rint-unscale can disagree with Python's decimal round.
        edges = [0.5e-9, 1.5e-9, 2.5e-9, 1.0000000005, -0.0, 123.4567890125]
        got = quantize(edges)
        for v, q in zip(edges, got.tolist()):
            assert_bitequal(q, round(v, DISTANCE_DECIMALS))


@st.composite
def weight_triples(draw):
    named = draw(st.sampled_from([None, "AWE", "OSC", "OA", "ODC"]))
    if named == "AWE":
        return Weights.equal()
    if named == "OSC":
        return Weights.only_sustainable()
    if named == "OA":
        return Weights.only_availability()
    if named == "ODC":
        return Weights.only_derouting()
    w1 = draw(st.floats(min_value=0.0, max_value=1.0, width=64))
    w2 = draw(st.floats(min_value=0.0, max_value=1.0, width=64))
    if w1 + w2 > 1.0:
        w1, w2 = w1 / 2.0, w2 / 2.0
    # (1.0 - w1) - w2 can land an ulp below zero even when w1 + w2 <= 1.0.
    return Weights(w1, w2, max(0.0, 1.0 - w1 - w2))


@st.composite
def component_pools(draw, min_size=1, max_size=16):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pool = []
    for cid in ids:
        rows = []
        for __ in range(3):
            a, b = draw(unit), draw(unit)
            rows.append(Interval(min(a, b), max(a, b)))
        pool.append(
            ComponentScores(
                charger_id=cid,
                sustainable=rows[0],
                availability=rows[1],
                derouting=rows[2],
            )
        )
    return pool


class TestScScoreBatch:
    @settings(max_examples=200)
    @given(component_pools(), weight_triples())
    def test_bitwise_equal_to_scalar(self, pool, weights):
        arrays = ComponentArrays.from_scores(pool)
        sc_min, sc_max = sc_score_batch(arrays, weights)
        for i, comp in enumerate(pool):
            scalar = sc_score(comp, weights)
            assert int(arrays.charger_ids[i]) == comp.charger_id
            assert_bitequal(float(sc_min[i]), scalar.sc_min)
            assert_bitequal(float(sc_max[i]), scalar.sc_max)


class TestIntersectTopKBatch:
    @settings(max_examples=200)
    @given(
        component_pools(),
        weight_triples(),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    def test_same_selection_and_order(self, pool, weights, k, pad):
        arrays = ComponentArrays.from_scores(pool)
        sc_min, sc_max = sc_score_batch(arrays, weights)
        scalar_scores = [sc_score(comp, weights) for comp in pool]
        chosen = intersect_top_k(scalar_scores, k, pad=pad)
        rows = intersect_top_k_batch(arrays.charger_ids, sc_min, sc_max, k, pad=pad)
        got = [int(arrays.charger_ids[r]) for r in rows]
        assert got == [s.charger_id for s in chosen]
        for row, scalar in zip(rows, chosen):
            assert_bitequal(float(sc_min[row]), scalar.sc_min)
            assert_bitequal(float(sc_max[row]), scalar.sc_max)


class TestEndToEndTables:
    """The one production pipeline (component arrays from pricing through
    the dynamic cache to refinement) against the scalar oracle: every
    delivered Offering Table must match bit for bit, on both engine
    backends, through computes *and* cache adaptations."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.chargers.plugshare import CatalogSpec, generate_catalog
        from repro.network.builders import NetworkSpec, build_city_network
        from repro.network.path import Trip

        network = build_city_network(
            NetworkSpec(width_km=14.0, height_km=10.0, block_km=1.5, seed=11)
        )
        registry = generate_catalog(
            network, CatalogSpec(charger_count=24, hotspots=2, seed=3)
        )
        nodes = sorted(network.node_ids())
        trip = Trip.route(network, nodes[0], nodes[-1], departure_time_h=9.0)
        return network, registry, trip

    @staticmethod
    def _tables(world, ranker_cls, backend: str):
        from repro.core.ecocharge import EcoChargeConfig
        from repro.core.environment import ChargingEnvironment
        from repro.core.ranking import run_over_trip

        network, registry, trip = world
        environment = ChargingEnvironment(network, registry, seed=5, engine=backend)
        ranker = ranker_cls(
            environment, EcoChargeConfig(k=4, radius_km=9.0, range_km=5.0)
        )
        return run_over_trip(ranker, environment, trip).tables

    @pytest.mark.parametrize("backend", ["dijkstra", "ch"])
    def test_ranker_tables_bitequal(self, world, backend):
        from repro.core.ecocharge import EcoChargeRanker

        scalar = self._tables(world, ScalarEcoCharge, backend)
        batch = self._tables(world, EcoChargeRanker, backend)
        assert any(t.is_adapted for t in batch)  # adaptations are covered
        assert_tables_bitequal(scalar, batch)

    def test_refine_pool_bitequal(self, world):
        from repro.core.environment import ChargingEnvironment
        from repro.core.ranking import refine_pool

        network, registry, trip = world
        segments = trip.segments()
        pool = registry.within_radius(segments[0].midpoint, 9.0)
        bounds = registry.bounds
        scalar = refine_rows(
            pool,
            price_rows(
                ChargingEnvironment(network, registry, seed=5),
                segments[0],
                pool,
                eta_h=9.2,
                now_h=9.0,
                next_segment=segments[1],
            ),
            Weights.equal(),
            4,
            segment_index=segments[0].index,
            origin=segments[0].midpoint,
            generated_at_h=9.0,
            radius_km=max(bounds.width, bounds.height),
            eta_h=9.2,
        )
        batch = refine_pool(
            ChargingEnvironment(network, registry, seed=5),
            trip,
            segments[0],
            pool,
            eta_h=9.2,
            now_h=9.0,
            k=4,
            weights=Weights.equal(),
            next_segment=segments[1],
        )
        assert_tables_bitequal([scalar], [batch])
