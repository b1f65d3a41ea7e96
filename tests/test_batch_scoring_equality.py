"""Bitwise equality of the array pipeline against the scalar oracle.

The vectorised modules (:mod:`repro.interval_array`,
:func:`repro.core.scoring.sc_score_batch`,
:func:`repro.core.scoring.intersect_top_k_batch`, the flat-array
table build, and the table re-scorers: brownout and epoch widening, the
tariff and load-balancing re-rankings, the random baseline) promise
results *bitwise identical* to the per-row ``Interval`` pipeline kept in
:mod:`tests.scalar_oracle` — the same contract the engine backends keep
with each other.  These property tests drive both over generated inputs
(including ``-0.0``, infinities, and quantisation edges) and compare raw
float bit patterns, not ``==`` (which would let ``-0.0 == 0.0`` slide);
re-scored tables are compared by their ``OfferingTableCodec`` bytes.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chargers.charger import Charger
from repro.core.baselines import RandomRanker
from repro.core.ecocharge import EcoChargeConfig
from repro.core.extensions import (
    BalancedEcoChargeRanker,
    ChargerLoadBalancer,
    ExtendedWeights,
    TariffAwareRanker,
)
from repro.core.offering import OfferingTable
from repro.core.ranking import run_over_trip
from repro.core.scoring import ScScore, Weights, intersect_top_k_batch, sc_score_batch
from repro.durability.codecs import OfferingTableCodec, canonical_dumps
from repro.interval_array import ComponentArrays, IntervalArray, quantize
from repro.intervals import Interval
from repro.network.distance_engine import DISTANCE_DECIMALS
from repro.server.scheduling.brownout import widen_table, widen_table_for_epoch
from repro.spatial.geometry import Point

from .scalar_oracle import (
    ComponentScores,
    ScalarEcoCharge,
    ScalarRandomRanker,
    assert_tables_bitequal,
    balanced_rows,
    bits,
    build_table,
    intersect_top_k,
    price_rows,
    refine_rows,
    sc_score,
    tariff_rows,
    widen_table_for_epoch_rows,
    widen_table_rows,
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


# ---------------------------------------------------------------------------
# table re-scorers: brownout/epoch widening, tariff, balancing, random
# ---------------------------------------------------------------------------


def table_bytes(table: OfferingTable) -> str:
    return canonical_dumps(OfferingTableCodec.encode(table))


def assert_same_bytes(expected: OfferingTable, got: OfferingTable) -> None:
    assert table_bytes(got) == table_bytes(expected)


@st.composite
def unit_intervals(draw):
    a, b = draw(unit), draw(unit)
    return Interval(min(a, b), max(a, b))


@st.composite
def offering_tables(draw, min_size=0, max_size=6):
    """Tables the way rankers emit them: unique chargers, [0, 1]
    components, one ETA for every entry."""
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    eta_h = draw(st.floats(min_value=0.0, max_value=200.0))
    rows = [
        (
            ScScore(cid, draw(unit), draw(unit)),
            Charger(
                charger_id=cid,
                point=Point(float(cid), 0.5),
                node_id=cid,
                rate_kw=22.0,
                plugs=draw(st.integers(min_value=1, max_value=4)),
            ),
            draw(unit_intervals()),
            draw(unit_intervals()),
            draw(unit_intervals()),
            eta_h,
        )
        for cid in ids
    ]
    return build_table(
        segment_index=draw(st.integers(min_value=0, max_value=50)),
        origin=Point(draw(finite), draw(finite)),
        generated_at_h=draw(st.floats(min_value=0.0, max_value=200.0)),
        radius_km=draw(st.floats(min_value=0.1, max_value=100.0)),
        ranked=rows,
        adapted_from=draw(st.none() | st.integers(min_value=0, max_value=50)),
    )


@st.composite
def extended_weights(draw):
    cuts = sorted(draw(unit) for __ in range(3))
    return ExtendedWeights(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 1.0 - cuts[2])


def _eta(table: OfferingTable) -> float:
    return table.entries[0].eta_h if table.entries else table.generated_at_h


def _segment_of(table: OfferingTable) -> SimpleNamespace:
    """The segment a ranker built ``table`` for, as far as a wrapper's
    re-ranking reads it."""
    return SimpleNamespace(index=table.segment_index, midpoint=table.origin)


class _FixedInner:
    """Stands in for a wrapper's inner EcoCharge ranker."""

    def __init__(self, table: OfferingTable) -> None:
        self.table = table

    def rank_segment(self, trip, segment, eta_h, now_h, next_segment=None):
        return self.table


class _RecordingInner:
    """Delegates to the real inner ranker and, as each table is handed
    to the wrapper, records what the scalar re-ranking makes of it."""

    def __init__(self, inner, expect) -> None:
        self.inner = inner
        self.expect = expect
        self.expected: list[OfferingTable] = []

    def reset(self) -> None:
        self.inner.reset()

    def rank_segment(self, trip, segment, eta_h, now_h, next_segment=None):
        table = self.inner.rank_segment(trip, segment, eta_h, now_h, next_segment)
        self.expected.append(self.expect(table, segment, eta_h, now_h))
        return table


class TestWidenTable:
    @settings(max_examples=150, deadline=None)
    @given(offering_tables(), st.floats(min_value=0.0, max_value=1e3), weight_triples())
    def test_bitwise_equal_to_scalar(self, table, factor, weights):
        assert_same_bytes(
            widen_table_rows(table, factor, weights), widen_table(table, factor, weights)
        )


class TestWidenTableForEpoch:
    ratios_hi = st.floats(min_value=1.0, max_value=1e6) | st.just(math.inf)

    @settings(max_examples=150, deadline=None)
    @given(offering_tables(), unit, ratios_hi, weight_triples())
    def test_bitwise_equal_to_scalar(self, table, ratio_lo, ratio_hi, weights):
        assert_same_bytes(
            widen_table_for_epoch_rows(table, ratio_lo, ratio_hi, weights),
            widen_table_for_epoch(table, ratio_lo, ratio_hi, weights),
        )

    @staticmethod
    def _table(derouting: Interval, adapted_from: int | None) -> OfferingTable:
        charger = Charger(charger_id=4, point=Point(1.0, 2.0), node_id=9, rate_kw=11.0)
        row = (ScScore(4, 0.4, 0.6), charger, Interval(0.2, 0.5), Interval(0.3, 0.9), derouting, 9.5)
        return build_table(3, Point(0.0, 0.0), 9.0, 20.0, [row], adapted_from=adapted_from)

    def test_zero_derouting_under_a_closure(self):
        # 0 * inf is NaN (and a numpy RuntimeWarning): saturates to 1.
        table = self._table(Interval(0.0, 0.0), adapted_from=None)
        widened = widen_table_for_epoch(table, 0.5, math.inf, Weights.equal())
        assert widened.entries[0].derouting == Interval(0.0, 1.0)
        assert_same_bytes(
            widen_table_for_epoch_rows(table, 0.5, math.inf, Weights.equal()), widened
        )

    @pytest.mark.parametrize("ratios", [(0.8, 1.25), (1.0, 1.0)])
    def test_adapted_table(self, ratios):
        # Any real bracket gives an adapted table the vacuous [0, 1] D.
        table = self._table(Interval(0.25, 0.5), adapted_from=2)
        widened = widen_table_for_epoch(table, *ratios, Weights.equal())
        expected_d = Interval(0.25, 0.5) if ratios == (1.0, 1.0) else Interval(0.0, 1.0)
        assert widened.entries[0].derouting == expected_d
        assert_same_bytes(
            widen_table_for_epoch_rows(table, *ratios, Weights.equal()), widened
        )


class TestTariffAwareRanker:
    @settings(max_examples=100, deadline=None)
    @given(
        offering_tables(),
        extended_weights(),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_bitwise_equal_to_scalar(self, small_environment, table, weights, k, lead_h):
        ranker = TariffAwareRanker(small_environment, EcoChargeConfig(k=k), weights=weights)
        ranker._inner = _FixedInner(table)
        eta_h = _eta(table)
        segment = _segment_of(table)
        expected = tariff_rows(
            table, segment, eta_h, ranker.tariff.estimate(eta_h, eta_h - lead_h), weights, k
        )
        assert_same_bytes(expected, ranker.rank_segment(None, segment, eta_h, eta_h - lead_h))

    def test_trip_bitwise_equal_to_scalar(self, small_environment, sample_trip):
        weights = ExtendedWeights(0.3, 0.2, 0.3, 0.2)
        ranker = TariffAwareRanker(
            small_environment, EcoChargeConfig(k=3, radius_km=12.0), weights=weights
        )
        recorder = _RecordingInner(
            ranker._inner,
            lambda table, segment, eta_h, now_h: tariff_rows(
                table, segment, eta_h, ranker.tariff.estimate(eta_h, now_h), weights, 3
            ),
        )
        ranker._inner = recorder
        run = run_over_trip(ranker, small_environment, sample_trip)
        assert len(recorder.expected) == len(run.tables) > 1
        for expected, got in zip(recorder.expected, run.tables):
            assert_same_bytes(expected, got)


class TestBalancedEcoChargeRanker:
    @settings(max_examples=100, deadline=None)
    @given(
        offering_tables(min_size=1),
        weight_triples(),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=5), max_size=12),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_bitwise_equal_to_scalar(
        self, small_environment, table, weights, k, steered, penalty
    ):
        balancer = ChargerLoadBalancer(slot_h=0.5, penalty_per_vehicle=penalty)
        eta_h = _eta(table)
        for index in steered:
            balancer.register(table.entries[index % len(table)].charger_id, eta_h)
        ranker = BalancedEcoChargeRanker(
            small_environment, balancer, EcoChargeConfig(k=k, weights=weights)
        )
        ranker._inner = _FixedInner(table)
        segment = _segment_of(table)
        expected = balanced_rows(table, segment, eta_h, balancer, weights, k)
        assert_same_bytes(expected, ranker.rank_segment(None, segment, eta_h, eta_h))

    def test_trip_bitwise_equal_to_scalar(self, small_environment, sample_trip):
        balancer = ChargerLoadBalancer(slot_h=1.0, penalty_per_vehicle=0.5)
        config = EcoChargeConfig(k=3, radius_km=12.0)
        for __ in range(3):  # later vehicles see the earlier ones' load
            ranker = BalancedEcoChargeRanker(small_environment, balancer, config)
            recorder = _RecordingInner(
                ranker._inner,
                lambda table, segment, eta_h, now_h: balanced_rows(
                    table, segment, eta_h, balancer, config.weights, config.k
                ),
            )
            ranker._inner = recorder
            run = run_over_trip(ranker, small_environment, sample_trip)
            assert len(recorder.expected) == len(run.tables) > 1
            for want, got in zip(recorder.expected, run.tables):
                assert_same_bytes(want, got)


class TestRandomRanker:
    @pytest.mark.parametrize("radius_km", [12.0, 0.01])  # 0.01 km: nearest fallback
    def test_trip_bitwise_equal_to_scalar(self, small_environment, sample_trip, radius_km):
        tables = [
            run_over_trip(
                cls(small_environment, k=4, radius_km=radius_km, seed=13),
                small_environment,
                sample_trip,
            ).tables
            for cls in (ScalarRandomRanker, RandomRanker)
        ]
        assert len(tables[0]) == len(tables[1]) > 1
        for expected, got in zip(*tables):
            assert_same_bytes(expected, got)
