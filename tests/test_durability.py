"""The durability tier: codecs, journal, snapshots, crash recovery.

Four claims are proven here, matching ``docs/durability.md``:

1. every codec round-trips **byte-stably** — ``encode → decode →
   encode`` yields identical canonical JSON, floats survive bitwise
   (``-0.0``, subnormals, huge magnitudes), NaN is rejected;
2. torn journal lines (the crash-mid-write state) are detected by
   checksum and discarded, never silently replayed;
3. a session killed at *any* named crash point resumes to produce
   rankings bitwise-identical to an uninterrupted run, on both
   shortest-path backends;
4. journaled cache-event deltas reconcile exactly with the live
   ``CacheStats`` counters (the ApiUsage-style accounting identity),
   and a corrupted delta is caught at resume.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chargers.charger import Charger, PlugType, RenewableSource
from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.caching import CachedSolution, CacheState, CacheStats, DynamicCache
from repro.core.ecocharge import EcoChargeConfig, EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.moving import MovingQuery
from repro.core.offering import OfferingTable
from repro.core.ranking import run_over_trip
from repro.core.scoring import ScScore, Weights
from repro.durability import (
    CODEC_VERSIONS,
    CacheEventDelta,
    CodecError,
    DurabilityConfig,
    JournalCacheAccounting,
    SessionJournal,
    SessionManager,
    SessionSnapshot,
    SessionStateError,
    canonical_dumps,
    check_codec_versions,
    decode_config,
    decode_float,
    encode_config,
    encode_float,
    load_snapshot,
    read_journal,
    write_snapshot,
)
from repro.durability.codecs import (
    CachedSolutionCodec,
    CacheStatsCodec,
    ChargerCodec,
    ComponentScoresCodec,
    IntervalCodec,
    MovingQueryCodec,
    OfferingEntryCodec,
    OfferingTableCodec,
    PointCodec,
    ScScoreCodec,
    SegmentCodec,
    TripCodec,
    WeightsCodec,
)
from repro.interval_array import ComponentArrays
from repro.intervals import Interval
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.path import Trip
from repro.resilience.errors import TransientUpstreamError, UpstreamError
from repro.resilience.faults import CrashPoint, FaultInjector, SessionCrash
from repro.spatial.geometry import Point, Segment

from .scalar_oracle import ComponentScores, build_table

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

#: Finite and infinite floats, never NaN — includes -0.0, subnormals, and
#: the extreme magnitudes where decimal repr round-trips historically broke.
any_float = st.floats(allow_nan=False)

#: The float edge cases called out explicitly by the spec.
EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -5e-324,
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308,  # largest finite
    -1.7976931348623157e308,
    1 / 3,
    0.1 + 0.2,  # 0.30000000000000004 — classic repr trap
    float("inf"),
    float("-inf"),
]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def intervals(draw):
    lo, hi = sorted(draw(st.tuples(any_float, any_float)))
    return Interval(lo, hi)


#: ComponentScores requires its intervals normalised to [0, 1].
@st.composite
def unit_intervals(draw):
    lo, hi = sorted(
        draw(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            )
        )
    )
    return Interval(lo, hi)


points = st.builds(Point, any_float, any_float)
segments = st.builds(Segment, points, points)
charger_ids = st.integers(min_value=0, max_value=10_000)

chargers = st.builds(
    Charger,
    charger_id=charger_ids,
    # A charger's location must be finite (Charger rejects inf and NaN);
    # test_point covers the codec on infinite coordinates.
    point=st.builds(Point, st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(allow_nan=False, allow_infinity=False)),
    node_id=st.integers(min_value=0, max_value=10_000),
    rate_kw=st.floats(min_value=1.0, max_value=500.0),
    plug_type=st.sampled_from(list(PlugType)),
    plugs=st.integers(min_value=1, max_value=12),
    solar_capacity_kw=st.floats(min_value=0.0, max_value=200.0),
    source=st.sampled_from(list(RenewableSource)),
)

component_scores = st.builds(
    ComponentScores,
    charger_id=charger_ids,
    sustainable=unit_intervals(),
    availability=unit_intervals(),
    derouting=unit_intervals(),
)
component_pools = st.lists(component_scores, max_size=4).map(ComponentArrays.from_scores)


@st.composite
def sc_scores(draw):
    lo, hi = sorted(draw(st.tuples(any_float, any_float)))
    return ScScore(charger_id=draw(charger_ids), sc_min=lo, sc_max=hi)


@st.composite
def weights(draw):
    """Weights must be non-negative and sum to 1 within 1e-9."""
    sustainable = draw(st.floats(min_value=0.0, max_value=1.0))
    availability = draw(st.floats(min_value=0.0, max_value=1.0 - sustainable))
    return Weights(
        sustainable=sustainable,
        availability=availability,
        derouting=1.0 - sustainable - availability,
    )

cache_stats = st.builds(
    CacheStats,
    hits=st.integers(min_value=0, max_value=10_000),
    misses=st.integers(min_value=0, max_value=10_000),
    expirations=st.integers(min_value=0, max_value=10_000),
    out_of_range=st.integers(min_value=0, max_value=10_000),
)

@st.composite
def moving_queries(draw):
    """MovingQuery requires a strictly positive speed interval."""
    lo, hi = sorted(
        draw(
            st.tuples(
                st.floats(min_value=1.0, max_value=200.0),
                st.floats(min_value=1.0, max_value=200.0),
            )
        )
    )
    return MovingQuery(
        segment=draw(segments),
        speed_kmh=Interval(lo, hi),
        start_time_h=draw(any_float),
    )


@st.composite
def offering_tables(draw):
    """Tables with 0..3 rows — ranks must be 1..n in order."""
    rows = draw(
        st.lists(
            st.tuples(sc_scores(), chargers, intervals(), intervals(), intervals()),
            max_size=3,
        )
    )
    return build_table(
        segment_index=draw(st.integers(min_value=0, max_value=500)),
        origin=draw(points),
        generated_at_h=draw(any_float),
        radius_km=draw(any_float),
        ranked=[
            (score, charger, s, a, d, draw(any_float))
            for score, charger, s, a, d in rows
        ],
        adapted_from=draw(st.none() | st.integers(min_value=0, max_value=500)),
    )


@st.composite
def cached_solutions(draw):
    """Pools of 0..3 chargers with matching component scores."""
    pool = tuple(draw(st.lists(chargers, max_size=3)))
    return CachedSolution(
        segment_index=draw(st.integers(min_value=0, max_value=500)),
        origin=draw(points),
        generated_at_h=draw(any_float),
        eta_h=draw(any_float),
        radius_km=draw(any_float),
        pool=pool,
        components=ComponentArrays.from_scores([
            draw(component_scores.map(lambda c, cid=ch.charger_id: ComponentScores(
                charger_id=cid,
                sustainable=c.sustainable,
                availability=c.availability,
                derouting=c.derouting,
            )))
            for ch in pool
        ]),
    )


#: ``CachedSolutionCodec`` output for a three-charger pool with signed
#: zeros, a subnormal and endpoints 1e-10 past 1.0, as canonical JSON.
CACHED_SOLUTION_RECORD = (
    '{"components":[{"availability":{"hi":"0x1.6666666666666p-1","lo":"0x1.'
    '3333333333334p-2"},"charger_id":11,"derouting":{"hi":"0x1.000000000000'
    '0p+0","lo":"0x0.0000000000001p-1022"},"sustainable":{"hi":"0x0.0p+0","'
    'lo":"-0x0.0p+0"}},{"availability":{"hi":"0x1.0000000000000p+0","lo":"0'
    'x0.0p+0"},"charger_id":3,"derouting":{"hi":"0x1.0000000000000p-2","lo"'
    ':"0x1.0000000000000p-2"},"sustainable":{"hi":"0x1.5555555555555p-1","l'
    'o":"0x1.5555555555555p-2"}},{"availability":{"hi":"0x1.0000000000000p-'
    '1","lo":"0x1.56e1fc2f8f359p-997"},"charger_id":42,"derouting":{"hi":"0'
    'x1.999999999999ap-4","lo":"0x0.0p+0"},"sustainable":{"hi":"0x1.0000000'
    '06df38p+0","lo":"0x1.fffffff768fa1p-1"}}],"epoch":3,"eta_h":"0x1.2e666'
    '66666666p+3","generated_at_h":"0x1.2666666666666p+3","origin":{"x":"0x'
    '1.4000000000000p+1","y":"-0x1.5555555555555p-2"},"pool":[{"charger_id"'
    ':11,"node_id":4,"plug_type":"ac_type2","plugs":2,"point":{"x":"0x1.400'
    '0000000000p+0","y":"-0x1.c000000000000p+1"},"rate_kw":"0x1.60000000000'
    '00p+4","solar_capacity_kw":"0x1.4000000000000p+4","source":"local_sola'
    'r"},{"charger_id":3,"node_id":17,"plug_type":"ccs","plugs":4,"point":{'
    '"x":"0x1.999999999999ap-4","y":"0x1.999999999999ap-3"},"rate_kw":"0x1.'
    '2c00000000000p+7","solar_capacity_kw":"0x0.0p+0","source":"net_metered'
    '_farm"},{"charger_id":42,"node_id":0,"plug_type":"chademo","plugs":1,"'
    'point":{"x":"-0x1.c000000000000p+2","y":"0x1.3800000000000p+3"},"rate_'
    'kw":"0x1.d99999999999ap+2","solar_capacity_kw":"0x1.a666666666666p+1",'
    '"source":"local_solar"}],"radius_km":"0x1.9000000000000p+5","segment_i'
    'ndex":7}'
)


def assert_byte_stable(codec, value):
    """encode → decode → encode must yield identical canonical JSON."""
    first = codec.encode(value)
    second = codec.encode(codec.decode(first))
    assert canonical_dumps(first) == canonical_dumps(second)


# ---------------------------------------------------------------------------
# float codec: bitwise stability
# ---------------------------------------------------------------------------


class TestFloatCodec:
    @given(any_float)
    def test_round_trip_is_bitwise(self, value):
        assert bits(decode_float(encode_float(value))) == bits(value)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_floats_round_trip_bitwise(self, value):
        assert bits(decode_float(encode_float(value))) == bits(value)

    def test_negative_zero_keeps_its_sign(self):
        decoded = decode_float(encode_float(-0.0))
        assert str(decoded) == "-0.0"

    def test_nan_is_rejected(self):
        with pytest.raises(CodecError):
            encode_float(float("nan"))

    @pytest.mark.parametrize("bad", [1.5, None, b"0x1p0", ["0x1p0"]])
    def test_decode_rejects_non_strings(self, bad):
        with pytest.raises(CodecError):
            decode_float(bad)

    def test_decode_rejects_garbage(self):
        with pytest.raises(CodecError):
            decode_float("not-a-hex-float")


# ---------------------------------------------------------------------------
# codec round trips: every codec, byte-stable
# ---------------------------------------------------------------------------


class TestCodecRoundTrips:
    @given(intervals())
    def test_interval(self, value):
        decoded = IntervalCodec.decode(IntervalCodec.encode(value))
        assert bits(decoded.lo) == bits(value.lo)
        assert bits(decoded.hi) == bits(value.hi)
        assert_byte_stable(IntervalCodec, value)

    @given(points)
    def test_point(self, value):
        decoded = PointCodec.decode(PointCodec.encode(value))
        assert bits(decoded.x) == bits(value.x)
        assert bits(decoded.y) == bits(value.y)
        assert_byte_stable(PointCodec, value)

    @given(segments)
    def test_segment(self, value):
        assert_byte_stable(SegmentCodec, value)

    @given(chargers)
    def test_charger(self, value):
        assert ChargerCodec.decode(ChargerCodec.encode(value)) == value
        assert_byte_stable(ChargerCodec, value)

    @given(component_pools)
    def test_component_scores(self, value):
        assert_byte_stable(ComponentScoresCodec, value)

    @given(sc_scores())
    def test_sc_score(self, value):
        assert_byte_stable(ScScoreCodec, value)

    @given(weights())
    def test_weights(self, value):
        assert_byte_stable(WeightsCodec, value)

    @given(cache_stats)
    def test_cache_stats(self, value):
        assert CacheStatsCodec.decode(CacheStatsCodec.encode(value)) == value
        assert_byte_stable(CacheStatsCodec, value)

    @given(moving_queries())
    def test_moving_query(self, value):
        assert_byte_stable(MovingQueryCodec, value)

    @settings(deadline=None)
    @given(offering_tables())
    def test_offering_table(self, value):
        decoded = OfferingTableCodec.decode(OfferingTableCodec.encode(value))
        assert decoded.segment_index == value.segment_index
        assert len(decoded.entries) == len(value.entries)
        assert_byte_stable(OfferingTableCodec, value)
        for entry in value.entries:
            assert_byte_stable(OfferingEntryCodec, entry)

    @settings(deadline=None)
    @given(cached_solutions())
    def test_cached_solution(self, value):
        decoded = CachedSolutionCodec.decode(CachedSolutionCodec.encode(value))
        assert decoded.pool == value.pool
        assert_byte_stable(CachedSolutionCodec, value)

    def test_empty_offering_table(self):
        empty = OfferingTable(
            segment_index=0,
            origin=Point(0.0, 0.0),
            generated_at_h=-0.0,
            radius_km=5e-324,
            entries=(),
        )
        assert_byte_stable(OfferingTableCodec, empty)
        decoded = OfferingTableCodec.decode(OfferingTableCodec.encode(empty))
        assert decoded.entries == ()
        assert bits(decoded.generated_at_h) == bits(-0.0)

    def test_empty_cached_solution(self):
        empty = CachedSolution(
            segment_index=0,
            origin=Point(-0.0, 0.0),
            generated_at_h=0.0,
            eta_h=0.0,
            radius_km=1.0,
            pool=(),
            components=ComponentArrays.from_scores(()),
        )
        assert_byte_stable(CachedSolutionCodec, empty)

    def test_cached_solution_record_from_before_the_array_codec(self):
        """A record written when rows were encoded through per-row
        dataclasses decodes and re-encodes to the same bytes."""
        decoded = CachedSolutionCodec.decode(json.loads(CACHED_SOLUTION_RECORD))
        assert decoded.components.charger_ids.tolist() == [11, 3, 42]
        assert bits(float(decoded.components.sustainable.lo[0])) == bits(-0.0)
        assert canonical_dumps(CachedSolutionCodec.encode(decoded)) == CACHED_SOLUTION_RECORD

    def test_component_rows_outside_unit_range_are_refused(self):
        payload = json.loads(CACHED_SOLUTION_RECORD)
        payload["components"][1]["sustainable"]["hi"] = (1.125).hex()
        with pytest.raises(ValueError, match="not normalised"):
            CachedSolutionCodec.decode(payload)
        payload["components"][1]["sustainable"]["hi"] = "nan"
        with pytest.raises(ValueError, match="NaN"):
            CachedSolutionCodec.decode(payload)

    def test_decode_rejects_wrong_shape(self):
        with pytest.raises(CodecError):
            IntervalCodec.decode([1, 2])
        with pytest.raises(CodecError):
            ChargerCodec.decode({"charger_id": 1})  # missing fields
        with pytest.raises(CodecError):
            OfferingTableCodec.decode({"segment_index": 0, "entries": "no"})

    def test_charger_decode_rejects_unknown_enum(self):
        payload = ChargerCodec.encode(
            Charger(
                charger_id=1,
                point=Point(0.0, 0.0),
                node_id=0,
                rate_kw=50.0,
                plug_type=PlugType.CCS,
                plugs=2,
                solar_capacity_kw=10.0,
                source=RenewableSource.LOCAL_SOLAR,
            )
        )
        payload["plug_type"] = "warp-coil"
        with pytest.raises(CodecError):
            ChargerCodec.decode(payload)


class TestCodecVersions:
    def test_registry_covers_all_codecs(self):
        assert set(CODEC_VERSIONS) == {
            "interval", "point", "segment", "charger", "component-scores",
            "sc-score", "weights", "offering-entry", "offering-table",
            "cached-solution", "cache-stats", "moving-query", "trip",
        }
        # v2: cached-solution and cache-stats grew live-graph epoch fields.
        assert CODEC_VERSIONS["cached-solution"] == 2
        assert CODEC_VERSIONS["cache-stats"] == 2
        assert all(
            v == 1
            for tag, v in CODEC_VERSIONS.items()
            if tag not in ("cached-solution", "cache-stats")
        )

    def test_current_versions_pass(self):
        check_codec_versions(dict(CODEC_VERSIONS), "test")

    def test_unknown_tag_refused(self):
        with pytest.raises(CodecError):
            check_codec_versions({"hologram": 1}, "test")

    def test_version_mismatch_refused(self):
        with pytest.raises(CodecError):
            check_codec_versions({"interval": 2}, "test")

    def test_config_round_trip(self):
        config = EcoChargeConfig(k=4, radius_km=12.5, engine="ch")
        decoded = decode_config(encode_config(config))
        assert decoded == config
        assert canonical_dumps(encode_config(decoded)) == canonical_dumps(
            encode_config(config)
        )

    def test_config_missing_field_is_a_codec_error(self):
        payload = encode_config(EcoChargeConfig())
        for key in ("k", "radius_km", "range_km", "weights", "segment_km", "cache_ttl_h"):
            partial = {name: value for name, value in payload.items() if name != key}
            with pytest.raises(CodecError, match=key):
                decode_config(partial)

    def test_config_refuses_unknown_and_invalid_fields(self):
        payload = encode_config(EcoChargeConfig())
        with pytest.raises(CodecError, match="unknown"):
            decode_config(payload | {"hologram": 1})
        for key, value in (("k", 0), ("engine", "rtree"), ("radius_km", "-0x1p+0")):
            with pytest.raises(CodecError):
                decode_config(payload | {key: value})

    def test_config_retired_keys_decode_only_at_the_values_still_ranked(self):
        """Older builds wrote ``index_kind`` and ``pad_intersection``;
        only the quadtree and the padded intersection decode."""
        config = EcoChargeConfig(k=4)
        legacy = encode_config(config) | {"index_kind": "quadtree", "pad_intersection": True}
        assert decode_config(legacy) == config
        for key, value in (
            ("index_kind", "rtree"),
            ("index_kind", "grid"),
            ("index_kind", "kdtree"),
            ("pad_intersection", False),
            ("pad_intersection", 1),
        ):
            with pytest.raises(CodecError, match=key):
                decode_config(legacy | {key: value})


# ---------------------------------------------------------------------------
# journal: append, read, torn-tail detection
# ---------------------------------------------------------------------------


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = SessionJournal(tmp_path / "j.jsonl", fsync=False)
        journal.append("session-open", {"a": 1})
        journal.append("segment", {"position": 0})
        journal.close()
        result = read_journal(tmp_path / "j.jsonl")
        assert [r.record_type for r in result.records] == ["session-open", "segment"]
        assert [r.seq for r in result.records] == [1, 2]
        assert result.torn_lines_discarded == 0

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal(path, fsync=False)
        journal.append("session-open", {"a": 1})
        journal.append("segment", {"position": 0})
        journal.close()
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 17])  # tear the last record
        result = read_journal(path)
        assert [r.seq for r in result.records] == [1]
        assert result.torn_lines_discarded == 1

    def test_checksum_flip_is_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal(path, fsync=False)
        journal.append("segment", {"position": 0, "value": "aa"})
        journal.close()
        corrupted = path.read_text().replace('"value":"aa"', '"value":"ab"')
        path.write_text(corrupted)
        result = read_journal(path)
        assert result.records == ()
        assert result.torn_lines_discarded == 1

    def test_everything_after_a_tear_is_distrusted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal(path, fsync=False)
        journal.append("segment", {"position": 0})
        journal.append("segment", {"position": 1})
        journal.append("segment", {"position": 2})
        journal.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # tear the middle record
        path.write_text("\n".join(lines) + "\n")
        result = read_journal(path)
        assert [r.seq for r in result.records] == [1]
        assert result.torn_lines_discarded == 2

    def test_sequence_gap_breaks_the_chain(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal(path, fsync=False)
        journal.append("segment", {"position": 0})
        journal.append("segment", {"position": 1})
        journal.close()
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + lines[0] + "\n")  # seq 1, then 1 again
        result = read_journal(path)
        assert [r.seq for r in result.records] == [1]
        assert result.torn_lines_discarded == 1

    def test_truncate_through_drops_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal(path, fsync=False)
        for position in range(4):
            journal.append("segment", {"position": position})
        journal.truncate_through(2)
        result = read_journal(path)
        assert [r.seq for r in result.records] == [3, 4]

    def test_missing_file_reads_empty(self, tmp_path):
        result = read_journal(tmp_path / "absent.jsonl")
        assert result.records == ()
        assert result.last_seq == 0

    def test_injected_torn_append(self, tmp_path):
        injector = FaultInjector(
            seed=0, crash_plan=[CrashPoint("mid-journal-append", at_occurrence=2)]
        )
        journal = SessionJournal(tmp_path / "j.jsonl", injector=injector, fsync=False)
        journal.append("segment", {"position": 0})
        with pytest.raises(SessionCrash):
            journal.append("segment", {"position": 1})
        journal.close()
        result = read_journal(tmp_path / "j.jsonl")
        assert [r.seq for r in result.records] == [1]
        assert result.torn_lines_discarded == 1


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


class TestSnapshot:
    def _snapshot(self) -> SessionSnapshot:
        return SessionSnapshot(
            session_id="s1",
            journal_seq=7,
            next_position=3,
            trip={"node_ids": [1, 2], "departure_time_h": encode_float(10.0)},
            config=encode_config(EcoChargeConfig()),
            tables=(),
            failed_segments=(2,),
            cache_entry=None,
            cache_stats=CacheStats(hits=1, misses=2),
        )

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "snapshot.json"
        write_snapshot(path, self._snapshot(), fsync=False)
        loaded = load_snapshot(path)
        assert loaded == self._snapshot()

    def test_encode_is_byte_stable(self):
        snapshot = self._snapshot()
        again = SessionSnapshot.decode(snapshot.encode())
        assert canonical_dumps(again.encode()) == canonical_dumps(snapshot.encode())

    def test_missing_file_is_none(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.json") is None

    def test_corrupt_file_is_none(self, tmp_path):
        path = tmp_path / "snapshot.json"
        write_snapshot(path, self._snapshot(), fsync=False)
        path.write_text(path.read_text()[:40])
        assert load_snapshot(path) is None

    def test_wrong_version_is_refused(self):
        payload = self._snapshot().encode()
        payload["version"] = 99
        with pytest.raises(CodecError):
            SessionSnapshot.decode(payload)


# ---------------------------------------------------------------------------
# shared small world (fresh per module: backend switching mutates engines)
# ---------------------------------------------------------------------------


def _build_environment() -> ChargingEnvironment:
    network = build_city_network(
        NetworkSpec(width_km=16.0, height_km=12.0, block_km=1.5, seed=42)
    )
    registry = generate_catalog(
        network, CatalogSpec(charger_count=60, hotspots=3, seed=7)
    )
    return ChargingEnvironment(network, registry, seed=5)


def _trip_for(environment: ChargingEnvironment) -> Trip:
    nodes = sorted(environment.network.node_ids())
    return Trip.route(environment.network, nodes[0], nodes[-1], departure_time_h=10.0)


CONFIG = EcoChargeConfig(k=3, segment_km=2.0)


@pytest.fixture(scope="module")
def world():
    """(environment, trip) reused by non-mutating durability tests."""
    environment = _build_environment()
    return environment, _trip_for(environment)


def _encoded_tables(run) -> list[str]:
    return [canonical_dumps(OfferingTableCodec.encode(t)) for t in run.tables]


# ---------------------------------------------------------------------------
# torn-state rollback (core transaction boundary, no durability needed)
# ---------------------------------------------------------------------------


class TornRanker:
    """Ranks one segment successfully, mutates the cache, then fails —
    the half-applied transaction run_over_trip must roll back."""

    def __init__(self, inner: EcoChargeRanker, fail_at_position: int):
        self.inner = inner
        self.fail_at = fail_at_position
        self.name = inner.name
        self.state_at_failure: CacheState | None = None

    def rank_segment(self, trip, segment, eta_h, now_h, next_segment=None):
        position_table = self.inner.rank_segment(
            trip, segment, eta_h=eta_h, now_h=now_h, next_segment=next_segment
        )
        if segment.index == self.fail_at:
            # The cache already absorbed this segment's store — exactly
            # the torn state the rollback must undo.
            self.state_at_failure = self.inner.checkpoint_state()
            raise TransientUpstreamError("busy", "mid-segment provider death")
        return position_table

    def reset(self):
        self.inner.reset()

    def checkpoint_state(self):
        return self.inner.checkpoint_state()

    def restore_state(self, state):
        self.inner.restore_state(state)


class TestTornStateRollback:
    def test_cache_checkpoint_restore_round_trip(self, world):
        environment, trip = world
        ranker = EcoChargeRanker(environment, CONFIG)
        run_over_trip(ranker, environment, trip, segment_km=CONFIG.segment_km)
        checkpoint = ranker.checkpoint_state()
        before_stats = CacheStatsCodec.encode(checkpoint.stats)
        ranker.reset()
        assert ranker.cache_entry is None
        ranker.restore_state(checkpoint)
        assert ranker.cache_entry is checkpoint.entry
        assert CacheStatsCodec.encode(ranker.cache_stats) == before_stats

    def test_restore_is_isolated_from_later_mutation(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.lookup(Point(0.0, 0.0), now_h=0.0, epoch=0)  # one miss
        state = cache.checkpoint()
        cache.lookup(Point(0.0, 0.0), now_h=0.0, epoch=0)  # another miss
        assert cache.stats.misses == 2
        cache.restore(state)
        assert cache.stats.misses == 1
        # The checkpoint's stats copy must not alias the live counters.
        cache.lookup(Point(0.0, 0.0), now_h=0.0, epoch=0)
        assert state.stats.misses == 1

    def test_failed_segment_rolls_back_to_checkpoint(self, world):
        environment, trip = world
        segments = trip.segments(CONFIG.segment_km)
        fail_at = segments[2].index
        torn = TornRanker(EcoChargeRanker(environment, CONFIG), fail_at)
        run = run_over_trip(torn, environment, trip, segment_km=CONFIG.segment_km)
        assert fail_at in run.failed_segments
        assert torn.state_at_failure is not None
        # The failing segment's store was rolled back: the cache no
        # longer holds the entry the torn transaction wrote...
        assert torn.inner.cache_entry is not torn.state_at_failure.entry
        # ...and the trip carried on past the failure.
        assert len(run.tables) == len(segments) - 1

    def test_rolled_back_run_matches_run_without_the_mutation(self, world):
        environment, trip = world
        segments = trip.segments(CONFIG.segment_km)
        fail_at = segments[2].index
        torn = TornRanker(EcoChargeRanker(environment, CONFIG), fail_at)
        torn_run = run_over_trip(torn, environment, trip, segment_km=CONFIG.segment_km)

        class SkippingRanker(TornRanker):
            def rank_segment(self, trip, segment, eta_h, now_h, next_segment=None):
                if segment.index == self.fail_at:
                    # Fail *before* touching the cache: the clean baseline.
                    raise TransientUpstreamError("busy", "pre-segment death")
                return self.inner.rank_segment(
                    trip, segment, eta_h=eta_h, now_h=now_h, next_segment=next_segment
                )

        clean = SkippingRanker(EcoChargeRanker(environment, CONFIG), fail_at)
        clean_run = run_over_trip(clean, environment, trip, segment_km=CONFIG.segment_km)
        # Rollback makes the half-applied mutation invisible: both runs
        # produce bitwise-identical tables for every remaining segment.
        assert _encoded_tables(torn_run) == _encoded_tables(clean_run)


# ---------------------------------------------------------------------------
# crash recovery: bitwise replay equality at every crash point, both engines
# ---------------------------------------------------------------------------

CRASH_POINTS = ("segment-start", "mid-segment", "mid-journal-append", "post-snapshot")


@pytest.fixture(scope="module")
def baselines():
    """Uninterrupted encoded tables per engine, computed once."""
    out = {}
    for engine in ("dijkstra", "ch"):
        environment = _build_environment()
        trip = _trip_for(environment)
        config = EcoChargeConfig(k=3, segment_km=2.0, engine=engine)
        run = run_over_trip(
            EcoChargeRanker(environment, config),
            environment,
            trip,
            segment_km=config.segment_km,
        )
        out[engine] = _encoded_tables(run)
    return out


class TestCrashRecovery:
    @pytest.mark.parametrize("engine", ["dijkstra", "ch"])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_recovery_is_bitwise_identical(self, tmp_path, baselines, point, engine):
        config = EcoChargeConfig(k=3, segment_km=2.0, engine=engine)
        injector = FaultInjector(
            seed=0, crash_plan=[CrashPoint(point, at_occurrence=2)]
        )
        durability = DurabilityConfig(snapshot_every=2, fsync=False)
        manager = SessionManager(tmp_path, durability, injector=injector)
        environment = _build_environment()
        session = manager.open("s1", environment, _trip_for(environment), config)
        with pytest.raises(SessionCrash):
            session.run()
        # The restarted process: fresh environment, fresh manager.
        environment2 = _build_environment()
        manager2 = SessionManager(tmp_path, durability)
        resumed = manager2.resume("s1", environment2)
        info = resumed.recovery
        assert info is not None and info.accounting_ok
        run = resumed.run()
        manager2.close(resumed)
        assert _encoded_tables(run) == baselines[engine]
        assert resumed.accounting_ok()
        if point == "mid-journal-append":
            assert info.torn_lines_discarded == 1
        if point == "post-snapshot":
            # Snapshot written, journal not truncated: the overlap is
            # resolved by seq, never by replaying records twice.
            assert info.snapshot_loaded

    def test_double_crash_then_recovery(self, tmp_path, baselines):
        """Crash, resume, crash again, resume again — still bitwise."""
        config = EcoChargeConfig(k=3, segment_km=2.0, engine="dijkstra")
        durability = DurabilityConfig(snapshot_every=2, fsync=False)
        environment = _build_environment()
        manager = SessionManager(
            tmp_path,
            durability,
            injector=FaultInjector(
                seed=0, crash_plan=[CrashPoint("mid-segment", at_occurrence=2)]
            ),
        )
        session = manager.open("s1", environment, _trip_for(environment), config)
        with pytest.raises(SessionCrash):
            session.run()
        manager2 = SessionManager(
            tmp_path,
            durability,
            injector=FaultInjector(
                seed=0, crash_plan=[CrashPoint("mid-journal-append", at_occurrence=2)]
            ),
        )
        with pytest.raises(SessionCrash):
            manager2.resume("s1", _build_environment()).run()
        manager3 = SessionManager(tmp_path, durability)
        resumed = manager3.resume("s1", _build_environment())
        run = resumed.run()
        manager3.close(resumed)
        assert _encoded_tables(run) == baselines["dijkstra"]

    @pytest.mark.parametrize(
        "retired, resumable",
        [
            ({"index_kind": "quadtree", "pad_intersection": True}, True),
            ({"index_kind": "grid", "pad_intersection": True}, False),
            ({"index_kind": "quadtree", "pad_intersection": False}, False),
        ],
    )
    def test_journal_with_retired_config_keys(self, tmp_path, baselines, retired, resumable):
        """A journal whose header config carries the retired keys (as
        older builds wrote it) resumes bitwise when they name what this
        build ranks by, and is refused otherwise."""
        from repro.durability.journal import _frame

        config = EcoChargeConfig(k=3, segment_km=2.0, engine="dijkstra")
        durability = DurabilityConfig(snapshot_every=100, fsync=False)
        manager = SessionManager(
            tmp_path,
            durability,
            injector=FaultInjector(
                seed=0, crash_plan=[CrashPoint("mid-segment", at_occurrence=2)]
            ),
        )
        environment = _build_environment()
        session = manager.open("s1", environment, _trip_for(environment), config)
        with pytest.raises(SessionCrash):
            session.run()
        journal_path = tmp_path / "s1" / "journal.jsonl"
        lines = []
        for record in read_journal(journal_path).records:
            payload = dict(record.payload)
            if record.record_type == "session-open":
                payload["config"] = payload["config"] | retired
            lines.append(_frame(record.seq, record.record_type, payload))
        journal_path.write_text("\n".join(lines) + "\n")
        restarted = SessionManager(tmp_path, durability)
        if not resumable:
            with pytest.raises(CodecError):
                restarted.resume("s1", _build_environment())
            return
        resumed = restarted.resume("s1", _build_environment())
        assert resumed.config == config
        run = resumed.run()
        restarted.close(resumed)
        assert _encoded_tables(run) == baselines["dijkstra"]

    def test_no_session_after_a_crash_in_the_header_append(self, tmp_path, baselines):
        """A process that dies while ``open`` appends the session header
        leaves a journal file with no intact record: ``has_session`` must
        say so, since ``resume`` cannot restore it.  A fresh ``open`` then
        drops the torn bytes, so its own journal is resumable."""
        config = EcoChargeConfig(k=3, segment_km=2.0, engine="dijkstra")
        durability = DurabilityConfig(snapshot_every=2, fsync=False)
        injector = FaultInjector(
            seed=0, crash_plan=[CrashPoint("mid-journal-append", at_occurrence=1)]
        )
        manager = SessionManager(tmp_path, durability, injector=injector)
        environment = _build_environment()
        with pytest.raises(SessionCrash):
            manager.open("s1", environment, _trip_for(environment), config)
        assert (manager.session_dir("s1") / "journal.jsonl").exists()
        restarted = SessionManager(tmp_path, durability)
        assert not restarted.has_session("s1")
        with pytest.raises(SessionStateError):
            restarted.resume("s1", _build_environment())
        environment2 = _build_environment()
        session = restarted.open("s1", environment2, _trip_for(environment2), config)
        assert restarted.has_session("s1")
        run = session.run()
        restarted.close(session)
        assert _encoded_tables(run) == baselines["dijkstra"]
        resumed = SessionManager(tmp_path, durability).resume("s1", _build_environment())
        assert resumed.recovery is not None and resumed.recovery.torn_lines_discarded == 0

    def test_resume_after_clean_close_returns_full_run(self, tmp_path, baselines):
        config = EcoChargeConfig(k=3, segment_km=2.0, engine="dijkstra")
        durability = DurabilityConfig(snapshot_every=2, fsync=False)
        environment = _build_environment()
        manager = SessionManager(tmp_path, durability)
        session = manager.open("s1", environment, _trip_for(environment), config)
        session.run()
        manager.close(session)
        resumed = manager.resume("s1", _build_environment())
        run = resumed.run()
        assert _encoded_tables(run) == baselines["dijkstra"]
        assert resumed.recovery.snapshot_loaded

    def test_session_hygiene(self, tmp_path, world):
        environment, trip = world
        manager = SessionManager(tmp_path, DurabilityConfig(fsync=False))
        with pytest.raises(SessionStateError):
            manager.session_dir("../escape")
        with pytest.raises(SessionStateError):
            manager.resume("never-opened", environment)
        session = manager.open("s1", environment, trip, CONFIG)
        with pytest.raises(SessionStateError):
            manager.open("s1", environment, trip, CONFIG)  # journal exists
        session.close()
        session.close()  # idempotent
        with pytest.raises(SessionStateError):
            session.run()
        assert manager.has_session("s1")
        assert not manager.has_session("s2")


# ---------------------------------------------------------------------------
# accounting reconciliation (the ApiUsage identity, extended to the journal)
# ---------------------------------------------------------------------------


class TestAccountingReconciliation:
    def test_session_accounting_reconciles(self, tmp_path, world):
        environment, trip = world
        manager = SessionManager(tmp_path, DurabilityConfig(fsync=False))
        session = manager.open("s1", environment, trip, CONFIG)
        run = session.run()
        assert run.completed_cleanly
        assert session.accounting_ok()
        live = session.ranker.cache_stats
        acct = session.accounting
        assert (acct.hits, acct.misses) == (live.hits, live.misses)
        manager.close(session)

    def test_delta_between_and_round_trip(self):
        before = CacheStats(hits=1, misses=2, expirations=1, out_of_range=0)
        after = CacheStats(hits=3, misses=2, expirations=1, out_of_range=0)
        delta = CacheEventDelta.between(before, after, stores=1)
        assert delta.hits == 2 and delta.misses == 0 and delta.stores == 1
        assert CacheEventDelta.decode(delta.encode()) == delta

    def test_corrupted_delta_fails_reconciliation(self):
        stats = CacheStats(hits=2, misses=1)
        accounting = JournalCacheAccounting.from_base(CacheStats())
        accounting.apply(CacheEventDelta(hits=2, misses=1, stores=1))
        assert accounting.accounts_for(stats)
        drifted = JournalCacheAccounting.from_base(CacheStats())
        drifted.apply(CacheEventDelta(hits=1, misses=1, stores=1))  # lost a hit
        assert not drifted.accounts_for(stats)

    def test_tampered_journal_delta_is_caught_at_resume(self, tmp_path, world):
        environment, trip = world
        durability = DurabilityConfig(snapshot_every=100, fsync=False)
        manager = SessionManager(
            tmp_path,
            durability,
            injector=FaultInjector(
                seed=0, crash_plan=[CrashPoint("mid-segment", at_occurrence=4)]
            ),
        )
        session = manager.open("s1", environment, trip, CONFIG)
        with pytest.raises(SessionCrash):
            session.run()
        # Tamper: inflate one committed record's hit delta, with a valid
        # checksum (an "honest" corruption the CRC cannot catch).
        from repro.durability.journal import _frame

        journal_path = tmp_path / "s1" / "journal.jsonl"
        records = read_journal(journal_path).records
        lines = []
        for record in records:
            payload = dict(record.payload)
            if record.record_type == "segment" and record.seq == records[-1].seq:
                events = dict(payload["events"])
                events["hits"] = events["hits"] + 5
                payload["events"] = events
            lines.append(_frame(record.seq, record.record_type, payload))
        journal_path.write_text("\n".join(lines) + "\n")
        resumed = SessionManager(tmp_path, durability).resume(
            "s1", _build_environment()
        )
        assert not resumed.recovery.accounting_ok


# ---------------------------------------------------------------------------
# trip codec needs the network
# ---------------------------------------------------------------------------


class TestTripCodec:
    def test_round_trip_against_network(self, world):
        environment, trip = world
        payload = TripCodec.encode(trip)
        decoded = TripCodec.decode(payload, environment.network)
        assert decoded.node_ids == trip.node_ids
        assert bits(decoded.departure_time_h) == bits(trip.departure_time_h)
        assert canonical_dumps(TripCodec.encode(decoded)) == canonical_dumps(payload)
