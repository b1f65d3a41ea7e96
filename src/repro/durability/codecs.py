"""Versioned, bitwise-stable codecs for every core dataclass.

The durability tier persists session state — Offering Tables, cached
solutions, cache statistics, moving queries — as JSON, never pickle:
pickle couples the on-disk format to private class layout (one renamed
field corrupts every stored session) and executes arbitrary code on
load.  Each codec here is an explicit, versioned mapping between one
dataclass and a plain JSON dict, so the journal/snapshot format is an
auditable contract rather than an implementation accident.

Two properties the recovery proof depends on:

* **bitwise float stability** — every float is encoded as its
  ``float.hex()`` string (``decode(encode(x))`` is the *same* 64-bit
  pattern, including ``-0.0`` and subnormals), so a recovered session's
  rankings can be compared bit-for-bit against an uninterrupted run;
* **canonical serialisation** — :func:`canonical_dumps` sorts keys and
  strips whitespace, so ``encode → decode → encode`` is byte-stable and
  checksums/snapshots are reproducible across runs and platforms.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from ..chargers.charger import Charger, PlugType, RenewableSource
from ..core.caching import CachedSolution, CacheStats
from ..core.moving import MovingQuery
from ..core.offering import OfferingEntry, OfferingTable
from ..core.scoring import ComponentScores, ScScore, Weights
from ..interval_array import ComponentArrays
from ..intervals import Interval
from ..network.path import Trip
from ..spatial.geometry import Point, Segment


class CodecError(ValueError):
    """A payload that cannot be decoded (wrong shape, version, or value)."""


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def encode_float(value: float) -> str:
    """``float.hex()`` — the bitwise-exact, locale-free float encoding."""
    if math.isnan(value):
        raise CodecError("NaN is not representable in durable state")
    return float(value).hex()


def decode_float(payload: Any) -> float:
    if not isinstance(payload, str):
        raise CodecError(f"expected a hex float string, got {payload!r}")
    try:
        return float.fromhex(payload)
    except ValueError as error:
        raise CodecError(f"bad hex float {payload!r}") from error


def _expect_mapping(payload: Any, tag: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise CodecError(f"{tag}: expected an object, got {type(payload).__name__}")
    return payload


def _field(payload: Mapping[str, Any], key: str, tag: str) -> Any:
    try:
        return payload[key]
    except KeyError as error:
        raise CodecError(f"{tag}: missing field '{key}'") from error


# ---------------------------------------------------------------------------
# leaf codecs
# ---------------------------------------------------------------------------


class IntervalCodec:
    """``Interval`` ⇄ ``{"lo": hex, "hi": hex}``."""

    tag = "interval"
    version = 1

    @staticmethod
    def encode(value: Interval) -> dict[str, Any]:
        return {"lo": encode_float(value.lo), "hi": encode_float(value.hi)}

    @staticmethod
    def decode(payload: Any) -> Interval:
        data = _expect_mapping(payload, IntervalCodec.tag)
        return Interval(
            decode_float(_field(data, "lo", IntervalCodec.tag)),
            decode_float(_field(data, "hi", IntervalCodec.tag)),
        )


class PointCodec:
    """``Point`` ⇄ ``{"x": hex, "y": hex}``."""

    tag = "point"
    version = 1

    @staticmethod
    def encode(value: Point) -> dict[str, Any]:
        return {"x": encode_float(value.x), "y": encode_float(value.y)}

    @staticmethod
    def decode(payload: Any) -> Point:
        data = _expect_mapping(payload, PointCodec.tag)
        return Point(
            decode_float(_field(data, "x", PointCodec.tag)),
            decode_float(_field(data, "y", PointCodec.tag)),
        )


class SegmentCodec:
    """``Segment`` ⇄ ``{"start": point, "end": point}``."""

    tag = "segment"
    version = 1

    @staticmethod
    def encode(value: Segment) -> dict[str, Any]:
        return {
            "start": PointCodec.encode(value.start),
            "end": PointCodec.encode(value.end),
        }

    @staticmethod
    def decode(payload: Any) -> Segment:
        data = _expect_mapping(payload, SegmentCodec.tag)
        return Segment(
            PointCodec.decode(_field(data, "start", SegmentCodec.tag)),
            PointCodec.decode(_field(data, "end", SegmentCodec.tag)),
        )


class ChargerCodec:
    """``Charger`` ⇄ JSON, enums by their stable string values."""

    tag = "charger"
    version = 1

    @staticmethod
    def encode(value: Charger) -> dict[str, Any]:
        return {
            "charger_id": value.charger_id,
            "point": PointCodec.encode(value.point),
            "node_id": value.node_id,
            "rate_kw": encode_float(value.rate_kw),
            "plug_type": value.plug_type.value,
            "plugs": value.plugs,
            "solar_capacity_kw": encode_float(value.solar_capacity_kw),
            "source": value.source.value,
        }

    @staticmethod
    def decode(payload: Any) -> Charger:
        data = _expect_mapping(payload, ChargerCodec.tag)
        try:
            plug = PlugType(_field(data, "plug_type", ChargerCodec.tag))
            source = RenewableSource(_field(data, "source", ChargerCodec.tag))
        except ValueError as error:
            raise CodecError(f"charger: unknown enum value ({error})") from error
        return Charger(
            charger_id=int(_field(data, "charger_id", ChargerCodec.tag)),
            point=PointCodec.decode(_field(data, "point", ChargerCodec.tag)),
            node_id=int(_field(data, "node_id", ChargerCodec.tag)),
            rate_kw=decode_float(_field(data, "rate_kw", ChargerCodec.tag)),
            plug_type=plug,
            plugs=int(_field(data, "plugs", ChargerCodec.tag)),
            solar_capacity_kw=decode_float(
                _field(data, "solar_capacity_kw", ChargerCodec.tag)
            ),
            source=source,
        )


class ComponentScoresCodec:
    """``ComponentScores`` ⇄ the three EC intervals."""

    tag = "component-scores"
    version = 1

    @staticmethod
    def encode(value: ComponentScores) -> dict[str, Any]:
        return {
            "charger_id": value.charger_id,
            "sustainable": IntervalCodec.encode(value.sustainable),
            "availability": IntervalCodec.encode(value.availability),
            "derouting": IntervalCodec.encode(value.derouting),
        }

    @staticmethod
    def decode(payload: Any) -> ComponentScores:
        data = _expect_mapping(payload, ComponentScoresCodec.tag)
        return ComponentScores(
            charger_id=int(_field(data, "charger_id", ComponentScoresCodec.tag)),
            sustainable=IntervalCodec.decode(
                _field(data, "sustainable", ComponentScoresCodec.tag)
            ),
            availability=IntervalCodec.decode(
                _field(data, "availability", ComponentScoresCodec.tag)
            ),
            derouting=IntervalCodec.decode(
                _field(data, "derouting", ComponentScoresCodec.tag)
            ),
        )


class ScScoreCodec:
    """``ScScore`` ⇄ the two Eq. 4-5 scenario scores."""

    tag = "sc-score"
    version = 1

    @staticmethod
    def encode(value: ScScore) -> dict[str, Any]:
        return {
            "charger_id": value.charger_id,
            "sc_min": encode_float(value.sc_min),
            "sc_max": encode_float(value.sc_max),
        }

    @staticmethod
    def decode(payload: Any) -> ScScore:
        data = _expect_mapping(payload, ScScoreCodec.tag)
        return ScScore(
            charger_id=int(_field(data, "charger_id", ScScoreCodec.tag)),
            sc_min=decode_float(_field(data, "sc_min", ScScoreCodec.tag)),
            sc_max=decode_float(_field(data, "sc_max", ScScoreCodec.tag)),
        )


class WeightsCodec:
    """``Weights`` ⇄ the three objective weights."""

    tag = "weights"
    version = 1

    @staticmethod
    def encode(value: Weights) -> dict[str, Any]:
        return {
            "sustainable": encode_float(value.sustainable),
            "availability": encode_float(value.availability),
            "derouting": encode_float(value.derouting),
        }

    @staticmethod
    def decode(payload: Any) -> Weights:
        data = _expect_mapping(payload, WeightsCodec.tag)
        return Weights(
            sustainable=decode_float(_field(data, "sustainable", WeightsCodec.tag)),
            availability=decode_float(_field(data, "availability", WeightsCodec.tag)),
            derouting=decode_float(_field(data, "derouting", WeightsCodec.tag)),
        )


# ---------------------------------------------------------------------------
# composite codecs
# ---------------------------------------------------------------------------


class OfferingEntryCodec:
    """``OfferingEntry`` ⇄ one ranked row of an Offering Table."""

    tag = "offering-entry"
    version = 1

    @staticmethod
    def encode(value: OfferingEntry) -> dict[str, Any]:
        return {
            "rank": value.rank,
            "charger": ChargerCodec.encode(value.charger),
            "score": ScScoreCodec.encode(value.score),
            "sustainable": IntervalCodec.encode(value.sustainable),
            "availability": IntervalCodec.encode(value.availability),
            "derouting": IntervalCodec.encode(value.derouting),
            "eta_h": encode_float(value.eta_h),
        }

    @staticmethod
    def decode(payload: Any) -> OfferingEntry:
        data = _expect_mapping(payload, OfferingEntryCodec.tag)
        return OfferingEntry(
            rank=int(_field(data, "rank", OfferingEntryCodec.tag)),
            charger=ChargerCodec.decode(_field(data, "charger", OfferingEntryCodec.tag)),
            score=ScScoreCodec.decode(_field(data, "score", OfferingEntryCodec.tag)),
            sustainable=IntervalCodec.decode(
                _field(data, "sustainable", OfferingEntryCodec.tag)
            ),
            availability=IntervalCodec.decode(
                _field(data, "availability", OfferingEntryCodec.tag)
            ),
            derouting=IntervalCodec.decode(
                _field(data, "derouting", OfferingEntryCodec.tag)
            ),
            eta_h=decode_float(_field(data, "eta_h", OfferingEntryCodec.tag)),
        )


class OfferingTableCodec:
    """``OfferingTable`` ⇄ the full per-segment answer."""

    tag = "offering-table"
    version = 1

    @staticmethod
    def encode(value: OfferingTable) -> dict[str, Any]:
        return {
            "segment_index": value.segment_index,
            "origin": PointCodec.encode(value.origin),
            "generated_at_h": encode_float(value.generated_at_h),
            "radius_km": encode_float(value.radius_km),
            "entries": [OfferingEntryCodec.encode(entry) for entry in value.entries],
            "adapted_from": value.adapted_from,
        }

    @staticmethod
    def decode(payload: Any) -> OfferingTable:
        data = _expect_mapping(payload, OfferingTableCodec.tag)
        entries = _field(data, "entries", OfferingTableCodec.tag)
        if not isinstance(entries, list):
            raise CodecError("offering-table: 'entries' must be a list")
        adapted = _field(data, "adapted_from", OfferingTableCodec.tag)
        return OfferingTable(
            segment_index=int(_field(data, "segment_index", OfferingTableCodec.tag)),
            origin=PointCodec.decode(_field(data, "origin", OfferingTableCodec.tag)),
            generated_at_h=decode_float(
                _field(data, "generated_at_h", OfferingTableCodec.tag)
            ),
            radius_km=decode_float(_field(data, "radius_km", OfferingTableCodec.tag)),
            entries=tuple(OfferingEntryCodec.decode(entry) for entry in entries),
            adapted_from=None if adapted is None else int(adapted),
        )


def _component_row(components: ComponentArrays, row: int) -> ComponentScores:
    """Row ``row`` of a cached pool as the dataclass its codec encodes."""
    return ComponentScores(
        charger_id=int(components.charger_ids[row]),
        sustainable=components.sustainable.at(row),
        availability=components.availability.at(row),
        derouting=components.derouting.at(row),
    )


class CachedSolutionCodec:
    """``CachedSolution`` ⇄ the scored pool behind one Offering Table.

    The pool's :class:`ComponentArrays` travel as one
    ``component-scores`` object per row, so the wire format does not
    depend on the in-memory layout.
    """

    tag = "cached-solution"
    #: v2 adds the live-graph ``epoch`` the solution was computed on, so
    #: a crash/resume replays against the correct graph generation.
    version = 2

    @staticmethod
    def encode(value: CachedSolution) -> dict[str, Any]:
        return {
            "segment_index": value.segment_index,
            "origin": PointCodec.encode(value.origin),
            "generated_at_h": encode_float(value.generated_at_h),
            "eta_h": encode_float(value.eta_h),
            "radius_km": encode_float(value.radius_km),
            "pool": [ChargerCodec.encode(charger) for charger in value.pool],
            "components": [
                ComponentScoresCodec.encode(_component_row(value.components, row))
                for row in range(len(value.components))
            ],
            "epoch": value.epoch,
        }

    @staticmethod
    def decode(payload: Any) -> CachedSolution:
        data = _expect_mapping(payload, CachedSolutionCodec.tag)
        pool = _field(data, "pool", CachedSolutionCodec.tag)
        components = _field(data, "components", CachedSolutionCodec.tag)
        if not isinstance(pool, list) or not isinstance(components, list):
            raise CodecError("cached-solution: 'pool'/'components' must be lists")
        return CachedSolution(
            segment_index=int(_field(data, "segment_index", CachedSolutionCodec.tag)),
            origin=PointCodec.decode(_field(data, "origin", CachedSolutionCodec.tag)),
            generated_at_h=decode_float(
                _field(data, "generated_at_h", CachedSolutionCodec.tag)
            ),
            eta_h=decode_float(_field(data, "eta_h", CachedSolutionCodec.tag)),
            radius_km=decode_float(_field(data, "radius_km", CachedSolutionCodec.tag)),
            pool=tuple(ChargerCodec.decode(charger) for charger in pool),
            components=ComponentArrays.from_scores(
                [ComponentScoresCodec.decode(comp) for comp in components]
            ),
            # Absent from v1 payloads (static network): epoch 0.
            epoch=int(data.get("epoch", 0)),
        )


class CacheStatsCodec:
    """``CacheStats`` ⇄ its counters (plain ints, no floats)."""

    tag = "cache-stats"
    #: v2 adds ``epoch_invalidations`` (live-graph fencing drops).
    version = 2

    @staticmethod
    def encode(value: CacheStats) -> dict[str, Any]:
        return {
            "hits": value.hits,
            "misses": value.misses,
            "expirations": value.expirations,
            "out_of_range": value.out_of_range,
            "epoch_invalidations": value.epoch_invalidations,
        }

    @staticmethod
    def decode(payload: Any) -> CacheStats:
        data = _expect_mapping(payload, CacheStatsCodec.tag)
        return CacheStats(
            hits=int(_field(data, "hits", CacheStatsCodec.tag)),
            misses=int(_field(data, "misses", CacheStatsCodec.tag)),
            expirations=int(_field(data, "expirations", CacheStatsCodec.tag)),
            out_of_range=int(_field(data, "out_of_range", CacheStatsCodec.tag)),
            # Absent from v1 payloads (static network): 0.
            epoch_invalidations=int(data.get("epoch_invalidations", 0)),
        )


class MovingQueryCodec:
    """``MovingQuery`` ⇄ segment + speed interval + departure."""

    tag = "moving-query"
    version = 1

    @staticmethod
    def encode(value: MovingQuery) -> dict[str, Any]:
        return {
            "segment": SegmentCodec.encode(value.segment),
            "speed_kmh": IntervalCodec.encode(value.speed_kmh),
            "start_time_h": encode_float(value.start_time_h),
        }

    @staticmethod
    def decode(payload: Any) -> MovingQuery:
        data = _expect_mapping(payload, MovingQueryCodec.tag)
        return MovingQuery(
            segment=SegmentCodec.decode(_field(data, "segment", MovingQueryCodec.tag)),
            speed_kmh=IntervalCodec.decode(
                _field(data, "speed_kmh", MovingQueryCodec.tag)
            ),
            start_time_h=decode_float(
                _field(data, "start_time_h", MovingQueryCodec.tag)
            ),
        )


class TripCodec:
    """``Trip`` ⇄ node ids + departure.

    Decoding needs the road network the session runs on — node ids are
    only meaningful against it — so :meth:`decode` takes the network
    explicitly rather than serialising the whole graph per session.
    """

    tag = "trip"
    version = 1

    @staticmethod
    def encode(value: Trip) -> dict[str, Any]:
        return {
            "node_ids": list(value.node_ids),
            "departure_time_h": encode_float(value.departure_time_h),
        }

    @staticmethod
    def decode(payload: Any, network: Any) -> Trip:
        data = _expect_mapping(payload, TripCodec.tag)
        node_ids = _field(data, "node_ids", TripCodec.tag)
        if not isinstance(node_ids, list):
            raise CodecError("trip: 'node_ids' must be a list")
        return Trip(
            network,
            tuple(int(node) for node in node_ids),
            decode_float(_field(data, "departure_time_h", TripCodec.tag)),
        )


#: Every codec and its current version — persisted in journal headers and
#: snapshot envelopes so a reader can refuse state written by an
#: incompatible future format instead of mis-decoding it.
CODEC_VERSIONS: dict[str, int] = {
    codec.tag: codec.version
    for codec in (
        IntervalCodec,
        PointCodec,
        SegmentCodec,
        ChargerCodec,
        ComponentScoresCodec,
        ScScoreCodec,
        WeightsCodec,
        OfferingEntryCodec,
        OfferingTableCodec,
        CachedSolutionCodec,
        CacheStatsCodec,
        MovingQueryCodec,
        TripCodec,
    )
}


def check_codec_versions(recorded: Mapping[str, Any], source: str) -> None:
    """Refuse durable state whose codec versions this build cannot read."""
    for tag, version in recorded.items():
        current = CODEC_VERSIONS.get(tag)
        if current is None:
            raise CodecError(f"{source}: unknown codec tag '{tag}'")
        if int(version) != current:
            raise CodecError(
                f"{source}: codec '{tag}' is version {version}, this build "
                f"reads version {current}"
            )
