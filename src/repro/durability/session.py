"""Durable ranking sessions: open / checkpoint / resume / close.

A trip-long CkNN-EC session accumulates state across segments (the
dynamic cache, the emitted Offering Tables, the trip position).  This
module makes that state survive process death:

* every committed segment is one **journal transaction** (write-ahead,
  checksummed — :mod:`.journal`);
* every ``snapshot_every`` segments the full session state is
  **snapshotted** atomically and the journal prefix truncated
  (:mod:`.snapshot`);
* :meth:`SessionManager.resume` restores snapshot + journal tail and
  continues the trip, and the result is **provably identical**: because
  every estimator is a deterministic function of (seed, time, location)
  and the restored cache state is bitwise-exact (hex-float codecs), the
  recovered session's remaining rankings equal an uninterrupted run's
  bit for bit — asserted by ``tests/test_durability.py`` and the
  ``recovery-chaos`` CI job on both distance-engine backends.

Crash points (injected via
:class:`~repro.resilience.faults.CrashPoint`): ``segment-start``,
``mid-segment`` (ranked but not yet journaled), ``mid-journal-append``
(torn write), ``post-snapshot`` (snapshot written, journal not yet
truncated).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..core.caching import CacheState, CacheStats
from ..core.ecocharge import EcoChargeConfig, EcoChargeRanker
from ..core.offering import OfferingTable
from ..core.ranking import RankingRun, SegmentRanker, run_over_trip
from ..network.path import Trip, TripSegment
from ..observability.metrics import field_readings
from ..resilience.errors import UpstreamError
from .accounting import CacheEventDelta, JournalCacheAccounting
from .codecs import (
    CachedSolutionCodec,
    CacheStatsCodec,
    CodecError,
    OfferingTableCodec,
    TripCodec,
    WeightsCodec,
    check_codec_versions,
    decode_float,
    encode_float,
)
from .journal import SessionJournal, read_journal
from .snapshot import SessionSnapshot, load_snapshot, write_snapshot

if TYPE_CHECKING:
    from ..core.environment import ChargingEnvironment
    from ..resilience.faults import FaultInjector

CRASH_SEGMENT_START = "segment-start"
CRASH_MID_SEGMENT = "mid-segment"
CRASH_POST_SNAPSHOT = "post-snapshot"

_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,80}$")


class SessionStateError(RuntimeError):
    """A session that cannot be opened or resumed (bad id, no journal)."""


@dataclass(frozen=True, slots=True)
class DurabilityConfig:
    """Knobs of the durability tier.

    ``snapshot_every`` trades write amplification against recovery
    latency: a snapshot costs one full-state write but caps the journal
    tail a resume must replay.  ``fsync=False`` is for tests only.
    """

    snapshot_every: int = 4
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")


@dataclass(frozen=True, slots=True)
class RecoveryInfo:
    """What :meth:`SessionManager.resume` found and rebuilt."""

    session_id: str
    snapshot_loaded: bool
    journal_records_replayed: int
    torn_lines_discarded: int
    segments_restored: int
    failed_restored: int
    next_position: int
    accounting_ok: bool
    #: The last live-graph epoch the journal proves the session observed
    #: (0 = static network, or no epoch record survived truncation).  A
    #: resumed session re-journals the current epoch on its next segment,
    #: so the audit trail stays complete across the truncation window.
    last_epoch: int = 0


def encode_config(config: EcoChargeConfig) -> dict[str, Any]:
    """Explicit versioned encoding of the user-facing knobs."""
    return {
        "k": config.k,
        "radius_km": encode_float(config.radius_km),
        "range_km": encode_float(config.range_km),
        "weights": WeightsCodec.encode(config.weights),
        "segment_km": encode_float(config.segment_km),
        "cache_ttl_h": encode_float(config.cache_ttl_h),
        "cache_pool_limit": config.cache_pool_limit,
        "engine": config.engine,
        "telemetry": bool(config.telemetry),
    }


#: Keys that older builds wrote for options since retired, with the one
#: value this build still ranks by: the quadtree filter and the padded
#: Eq. 6 intersection.  A journal carrying exactly that value resumes
#: unchanged; any other value asks for a ranking this build cannot give.
_RETIRED_CONFIG_KEYS: dict[str, Any] = {"index_kind": "quadtree", "pad_intersection": True}
_CONFIG_KEYS = _RETIRED_CONFIG_KEYS.keys() | {
    "k", "radius_km", "range_km", "weights", "segment_km", "cache_ttl_h",
    "cache_pool_limit", "engine", "telemetry",
}


def decode_config(payload: Any) -> EcoChargeConfig:
    """The config :func:`encode_config` wrote; anything else is a
    :class:`CodecError` (a wrong shape, a missing or unknown field, a
    retired field with a value other than the one this build ranks by,
    or a value the config itself refuses).  ``cache_pool_limit``,
    ``engine`` and ``telemetry`` may be absent, as in older journals."""
    if not isinstance(payload, dict):
        raise CodecError("config: expected an object")
    unknown = sorted(payload.keys() - _CONFIG_KEYS)
    if unknown:
        raise CodecError(f"config: unknown fields {unknown}")
    for key, supported in _RETIRED_CONFIG_KEYS.items():
        if key in payload and (
            type(payload[key]) is not type(supported) or payload[key] != supported
        ):
            raise CodecError(
                f"config: '{key}' is retired; only {supported!r} can be "
                f"resumed, got {payload[key]!r}"
            )
    limit = payload.get("cache_pool_limit")
    try:
        return EcoChargeConfig(
            k=int(payload["k"]),
            radius_km=decode_float(payload["radius_km"]),
            range_km=decode_float(payload["range_km"]),
            weights=WeightsCodec.decode(payload["weights"]),
            segment_km=decode_float(payload["segment_km"]),
            cache_ttl_h=decode_float(payload["cache_ttl_h"]),
            cache_pool_limit=None if limit is None else int(limit),
            engine=payload.get("engine"),
            telemetry=bool(payload.get("telemetry", False)),
        )
    except KeyError as error:
        raise CodecError(f"config: missing field {error}") from error
    except CodecError:
        raise
    except (TypeError, ValueError) as error:
        raise CodecError(f"config: {error}") from error


class RankingSession:
    """One durable continuous query; implements the core ``SessionLog``.

    Constructed only by :class:`SessionManager` (``open`` or ``resume``);
    drive it with :meth:`run`, which wraps
    :func:`~repro.core.ranking.run_over_trip` around this session's
    transaction hooks.
    """

    def __init__(
        self,
        session_id: str,
        directory: Path,
        environment: "ChargingEnvironment",
        trip: Trip,
        config: EcoChargeConfig,
        durability: DurabilityConfig,
        injector: "FaultInjector | None",
        journal: SessionJournal,
        restored_tables: Sequence[OfferingTable] = (),
        restored_failed: Sequence[int] = (),
        restored_cache: CacheState | None = None,
        next_position: int = 0,
        accounting: JournalCacheAccounting | None = None,
        recovery: RecoveryInfo | None = None,
        last_epoch: int = 0,
    ) -> None:
        self.session_id = session_id
        self.directory = directory
        self.environment = environment
        self.trip = trip
        self.config = config
        self.durability = durability
        self.recovery = recovery
        self._injector = injector
        self._journal = journal
        self._restored_tables = tuple(restored_tables)
        self._restored_failed = tuple(restored_failed)
        self._restored_cache = restored_cache
        self._start_position = next_position
        self._accounting = (
            accounting if accounting is not None else JournalCacheAccounting()
        )
        self.ranker = EcoChargeRanker(environment, config)
        # A live recorder reads the cache stats and journal accounting in
        # place, keyed by session id: a resumed session (whose counters
        # are restored from the journal) replaces its crashed
        # predecessor's source instead of adding to it.  The reader goes
        # through the ranker because a cache clear or restore rebinds
        # ``stats``.
        environment.telemetry.read_through(
            session_id,
            ecocharge_cache_events=lambda: field_readings(self.ranker.cache_stats),
            ecocharge_journal_cache_events=lambda: field_readings(self._accounting),
        )
        self._run: RankingRun | None = None
        #: The last live-graph epoch journaled for this session; segments
        #: journaled after an epoch bump are preceded by an "epoch" record
        #: so crash/resume replays against the correct graph generation.
        self._journaled_epoch = last_epoch
        self._pre_segment: CacheState | None = None
        self._segments_since_snapshot = 0
        self._next_position = next_position
        self.closed = False
        self.completed = False

    # -- public API ---------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.directory / "snapshot.json"

    @property
    def journal_path(self) -> Path:
        return self._journal.path

    @property
    def accounting(self) -> JournalCacheAccounting:
        return self._accounting

    def accounting_ok(self) -> bool:
        """Journaled cache events reconcile with the live counters."""
        return self._accounting.accounts_for(self.ranker.cache_stats)

    def run(self) -> RankingRun:
        """Execute (or continue) the continuous query durably."""
        if self.closed:
            raise SessionStateError(f"session '{self.session_id}' is closed")
        return run_over_trip(
            self.ranker,
            self.environment,
            self.trip,
            segment_km=self.config.segment_km,
            session=self,
        )

    def close(self) -> None:
        """Seal the session: final snapshot, truncated journal, fsynced."""
        if self.closed:
            return
        self._write_snapshot()
        self._journal.truncate_through(self._journal.last_seq)
        self._journal.close()
        self.environment.telemetry.registry.freeze(self.session_id)
        self.closed = True

    # -- SessionLog hooks (called by run_over_trip) -------------------------

    def begin(
        self, ranker: SegmentRanker, trip: Trip, segments: Sequence[TripSegment]
    ) -> tuple[RankingRun, int]:
        if ranker is not self.ranker:
            raise SessionStateError("a session drives exactly its own ranker")
        if self._start_position == 0 and not self._restored_tables:
            self.ranker.reset()
        else:
            # Recovered: per-trip state is what the journal proves it was.
            self.ranker.reset()
            if self._restored_cache is not None:
                self.ranker.restore_state(self._restored_cache)
        self._run = RankingRun(
            ranker_name=self.ranker.name,
            trip=trip,
            tables=list(self._restored_tables),
            failed_segments=list(self._restored_failed),
        )
        self._segments_since_snapshot = 0
        return self._run, self._start_position

    def begin_segment(
        self, position: int, segment: TripSegment, ranker: SegmentRanker
    ) -> None:
        if self._injector is not None:
            self._injector.maybe_crash(CRASH_SEGMENT_START)
        self._journal_epoch_transition()
        if (
            self._segments_since_snapshot >= self.durability.snapshot_every
            and position > self._start_position
        ):
            self.checkpoint()
        self._pre_segment = self.ranker.checkpoint_state()

    def _journal_epoch_transition(self) -> None:
        """Append an "epoch" record when the live graph moved since the
        last journaled epoch, so recovery knows which graph generation
        every subsequent segment was priced on.  A static environment
        (no epoch manager) journals nothing."""
        current_epoch = getattr(self.environment, "current_epoch", None)
        epoch = current_epoch() if callable(current_epoch) else 0
        if epoch == self._journaled_epoch:
            return
        epochs = getattr(self.environment, "epochs", None)
        payload = {
            "epoch": epoch,
            "weights_version": epochs.weights_version if epochs is not None else 0,
        }
        telemetry = self.environment.telemetry
        with telemetry.span("journal.append", tier="journal", record_type="epoch"):
            self._journal.append("epoch", payload)
        telemetry.inc("ecocharge_journal_appends_total", record_type="epoch")
        self._journaled_epoch = epoch

    def record_table(
        self,
        position: int,
        segment: TripSegment,
        table: OfferingTable,
        ranker: SegmentRanker,
    ) -> None:
        if self._injector is not None:
            # The segment is ranked but not yet journaled: dying here must
            # make recovery re-price exactly this segment.
            self._injector.maybe_crash(CRASH_MID_SEGMENT)
        pre = self._pre_segment
        stats = self.ranker.cache_stats
        entry = self.ranker.cache_entry
        stored = 0 if pre is not None and entry is pre.entry else 1
        delta = CacheEventDelta.between(
            pre.stats if pre is not None else CacheStats(), stats, stores=stored
        )
        payload = {
            "position": position,
            "segment_index": segment.index,
            "table": OfferingTableCodec.encode(table),
            "cache_entry": (
                None if entry is None else CachedSolutionCodec.encode(entry)
            ),
            "cache_stats": CacheStatsCodec.encode(stats),
            "events": delta.encode(),
        }
        telemetry = self.environment.telemetry
        with telemetry.span("journal.append", tier="journal", record_type="segment"):
            self._journal.append("segment", payload)
        telemetry.inc("ecocharge_journal_appends_total", record_type="segment")
        self._accounting.apply(delta)
        self._next_position = position + 1
        self._segments_since_snapshot += 1
        self._pre_segment = None

    def record_failure(
        self, position: int, segment: TripSegment, error: UpstreamError
    ) -> None:
        # The ranker state was already rolled back to the pre-segment
        # checkpoint, so this transaction contributes no cache events.
        payload = {
            "position": position,
            "segment_index": segment.index,
            "error": type(error).__name__,
            "endpoint": getattr(error, "endpoint", None),
            "events": CacheEventDelta().encode(),
        }
        telemetry = self.environment.telemetry
        with telemetry.span(
            "journal.append", tier="journal", record_type="segment-failed"
        ):
            self._journal.append("segment-failed", payload)
        telemetry.inc("ecocharge_journal_appends_total", record_type="segment-failed")
        self._next_position = position + 1
        self._segments_since_snapshot += 1
        self._pre_segment = None

    def finish(self, run: RankingRun) -> None:
        telemetry = self.environment.telemetry
        with telemetry.span(
            "journal.append", tier="journal", record_type="session-close"
        ):
            self._journal.append(
                "session-close",
                {
                    "tables": len(run.tables),
                    "failed_segments": list(run.failed_segments),
                    "accounting_ok": self.accounting_ok(),
                },
            )
        telemetry.inc("ecocharge_journal_appends_total", record_type="session-close")
        self.completed = True

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot the session and truncate the covered journal prefix.

        The crash window between the two steps is the classic
        double-coverage hazard: the ``post-snapshot`` crash point lands
        exactly there, and recovery resolves it by skipping journal
        records at or below the snapshot's ``journal_seq``.
        """
        self._write_snapshot()
        if self._injector is not None:
            self._injector.maybe_crash(CRASH_POST_SNAPSHOT)
        self._journal.truncate_through(self._journal.last_seq)
        self._segments_since_snapshot = 0

    def _write_snapshot(self) -> None:
        run = self._run
        tables: tuple[OfferingTable, ...]
        failed: tuple[int, ...]
        if run is not None:
            tables = tuple(run.tables)
            failed = tuple(run.failed_segments)
        else:
            tables = self._restored_tables
            failed = self._restored_failed
        snapshot = SessionSnapshot(
            session_id=self.session_id,
            journal_seq=self._journal.last_seq,
            next_position=self._next_position,
            trip=TripCodec.encode(self.trip),
            config=encode_config(self.config),
            tables=tables,
            failed_segments=failed,
            cache_entry=self.ranker.cache_entry,
            cache_stats=self.ranker.cache_stats,
        )
        telemetry = self.environment.telemetry
        with telemetry.span("journal.snapshot", tier="journal", seq=snapshot.journal_seq):
            write_snapshot(self.snapshot_path, snapshot, fsync=self.durability.fsync)
        telemetry.inc("ecocharge_journal_snapshots_total")


class SessionManager:
    """Factory and registry for durable sessions under one root directory.

    The lifecycle is ``open → run (checkpointing as it goes) → close``;
    after a crash, ``resume`` rebuilds the session from its snapshot and
    journal tail and ``run`` continues where the journal proves the
    session left off.
    """

    def __init__(
        self,
        root: Path | str,
        durability: DurabilityConfig | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.root = Path(root)
        self.durability = durability if durability is not None else DurabilityConfig()
        self.injector = injector
        self.root.mkdir(parents=True, exist_ok=True)

    def session_dir(self, session_id: str) -> Path:
        if not _SESSION_ID_RE.match(session_id):
            raise SessionStateError(
                f"bad session id {session_id!r} (letters, digits, ., _, - only)"
            )
        return self.root / session_id

    def open(
        self,
        session_id: str,
        environment: "ChargingEnvironment",
        trip: Trip,
        config: EcoChargeConfig | None = None,
    ) -> RankingSession:
        """Register a fresh durable session (journal header committed)."""
        config = config if config is not None else EcoChargeConfig()
        directory = self.session_dir(session_id)
        directory.mkdir(parents=True, exist_ok=True)
        journal_path = directory / "journal.jsonl"
        if journal_path.exists():
            if read_journal(journal_path).records:
                raise SessionStateError(
                    f"session '{session_id}' already has a journal — resume it "
                    f"instead of re-opening"
                )
            # Only torn bytes (a crash while appending the header): drop
            # them, or the new header would land behind the tear, where
            # recovery never reads.
            journal_path.unlink()
        journal = SessionJournal(
            journal_path, injector=self.injector, fsync=self.durability.fsync
        )
        header = journal.header_payload()
        header.update(
            {
                "session_id": session_id,
                "trip": TripCodec.encode(trip),
                "config": encode_config(config),
            }
        )
        journal.append("session-open", header)
        return RankingSession(
            session_id=session_id,
            directory=directory,
            environment=environment,
            trip=trip,
            config=config,
            durability=self.durability,
            injector=self.injector,
            journal=journal,
        )

    def resume(
        self, session_id: str, environment: "ChargingEnvironment"
    ) -> RankingSession:
        """Restore snapshot + journal tail; the session continues the trip.

        Torn trailing journal lines are detected by checksum, counted,
        healed out of the file, and never replayed.  Records already
        folded into the snapshot (a crash between snapshot and truncate)
        are skipped by sequence number.
        """
        directory = self.session_dir(session_id)
        journal_path = directory / "journal.jsonl"
        snapshot = load_snapshot(directory / "snapshot.json")
        read_result = read_journal(journal_path)
        if snapshot is None and not read_result.records:
            raise SessionStateError(
                f"session '{session_id}' has neither snapshot nor journal"
            )

        tables: list[OfferingTable] = []
        failed: list[int] = []
        cache_entry = None
        cache_stats = CacheStats()
        base_seq = 0
        next_position = 0
        trip_payload: dict[str, Any] | None = None
        config_payload: dict[str, Any] | None = None
        if snapshot is not None:
            base_seq = snapshot.journal_seq
            next_position = snapshot.next_position
            tables = list(snapshot.tables)
            failed = list(snapshot.failed_segments)
            cache_entry = snapshot.cache_entry
            cache_stats = snapshot.cache_stats
            trip_payload = snapshot.trip
            config_payload = snapshot.config

        accounting = JournalCacheAccounting.from_base(cache_stats)
        replayed = 0
        last_epoch = 0
        for record in read_result.records:
            if record.seq <= base_seq:
                continue
            if record.record_type == "session-open":
                check_codec_versions(
                    record.payload.get("codec_versions", {}), "journal header"
                )
                if trip_payload is None:
                    trip_payload = record.payload.get("trip")
                    config_payload = record.payload.get("config")
                continue
            if record.record_type == "segment":
                tables.append(OfferingTableCodec.decode(record.payload["table"]))
                entry_payload = record.payload.get("cache_entry")
                cache_entry = (
                    None
                    if entry_payload is None
                    else CachedSolutionCodec.decode(entry_payload)
                )
                cache_stats = CacheStatsCodec.decode(record.payload["cache_stats"])
                accounting.apply(CacheEventDelta.decode(record.payload["events"]))
                next_position = int(record.payload["position"]) + 1
                replayed += 1
            elif record.record_type == "segment-failed":
                failed.append(int(record.payload["segment_index"]))
                accounting.apply(CacheEventDelta.decode(record.payload["events"]))
                next_position = int(record.payload["position"]) + 1
                replayed += 1
            elif record.record_type == "epoch":
                last_epoch = int(record.payload["epoch"])
                replayed += 1
            elif record.record_type == "session-close":
                replayed += 1

        if trip_payload is None or config_payload is None:
            raise SessionStateError(
                f"session '{session_id}' journal has no session-open header "
                f"and no snapshot carries the trip"
            )
        trip = TripCodec.decode(trip_payload, environment.network)
        config = decode_config(config_payload)

        # Reconciliation (the ApiUsage-style identity, extended to the
        # journal): the replayed cache admissions must explain the
        # restored counters exactly.
        accounting_ok = accounting.accounts_for(cache_stats)

        # Heal the file: drop torn tail bytes and snapshot-covered records.
        journal = SessionJournal(
            journal_path, injector=self.injector, fsync=self.durability.fsync
        )
        journal.truncate_through(base_seq)
        healed = read_journal(journal_path)
        journal = SessionJournal(
            journal_path,
            injector=self.injector,
            fsync=self.durability.fsync,
            start_seq=max(base_seq, healed.last_seq, read_result.last_seq),
        )

        recovery = RecoveryInfo(
            session_id=session_id,
            snapshot_loaded=snapshot is not None,
            journal_records_replayed=replayed,
            torn_lines_discarded=read_result.torn_lines_discarded,
            segments_restored=len(tables),
            failed_restored=len(failed),
            next_position=next_position,
            accounting_ok=accounting_ok,
            last_epoch=last_epoch,
        )
        return RankingSession(
            session_id=session_id,
            directory=directory,
            environment=environment,
            trip=trip,
            config=config,
            durability=self.durability,
            injector=self.injector,
            journal=journal,
            restored_tables=tables,
            restored_failed=failed,
            restored_cache=CacheState(entry=cache_entry, stats=cache_stats),
            next_position=next_position,
            accounting=accounting,
            recovery=recovery,
            last_epoch=last_epoch,
        )

    def close(self, session: RankingSession) -> None:
        """Seal ``session`` (idempotent)."""
        session.close()

    def has_session(self, session_id: str) -> bool:
        """Can :meth:`resume` restore ``session_id``?

        True iff a readable snapshot or at least one intact journal
        record is on disk, the test ``resume`` applies: a process that
        died while appending the session header leaves a journal file
        with no intact record, and nothing to resume.
        """
        directory = self.session_dir(session_id)
        return bool(read_journal(directory / "journal.jsonl").records) or (
            load_snapshot(directory / "snapshot.json") is not None
        )
