"""Common interface of all per-segment ranking methods.

Every method in the evaluation (Brute-Force, Index-Quadtree, Random, and
EcoCharge itself) answers the same question — "rank the chargers for this
segment" — so the harness, the CkNN-EC driver, and the tests all program
against this protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from ..analysis.contracts import ensure
from ..chargers.charger import Charger
from ..network.path import Trip, TripSegment
from ..observability.deadline import NEVER_EXPIRES, CancellationToken, DeadlineExpired
from ..observability.tracing import trip_correlation_id
from ..resilience.errors import UpstreamError
from .environment import ChargingEnvironment
from .offering import OfferingTable, build_table_from_arrays
from .scoring import Weights, intersect_top_k_batch, sc_score_batch


@runtime_checkable
class SegmentRanker(Protocol):
    """A method that produces an Offering Table for one trip segment."""

    name: str

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        """Rank chargers for ``segment`` reached at ``eta_h``, deciding at
        ``now_h``."""
        ...

    def reset(self) -> None:
        """Clear per-trip state (caches); called between trips."""
        ...


class SessionLog(Protocol):
    """Durability hooks a :class:`~repro.durability.session.RankingSession`
    plugs into :func:`run_over_trip`.

    The protocol lives here (not in ``repro.durability``) so the core
    ranking loop stays import-free of the durability subsystem: core
    defines the transaction boundary, durability implements it.
    """

    def begin(
        self, ranker: SegmentRanker, trip: Trip, segments: Sequence[TripSegment]
    ) -> tuple["RankingRun", int]:
        """Open (or resume) the session; the run so far and the position in
        ``segments`` to rank next."""
        ...

    def begin_segment(
        self, position: int, segment: TripSegment, ranker: SegmentRanker
    ) -> None:
        """Mark the start of one segment transaction."""
        ...

    def record_table(
        self,
        position: int,
        segment: TripSegment,
        table: OfferingTable,
        ranker: SegmentRanker,
    ) -> None:
        """Commit one segment transaction (journal append + snapshot cadence)."""
        ...

    def record_failure(
        self, position: int, segment: TripSegment, error: UpstreamError
    ) -> None:
        """Journal a failed segment (state already rolled back)."""
        ...

    def finish(self, run: "RankingRun") -> None:
        """The trip completed; seal the session."""
        ...


def _state_checkpoint(ranker: SegmentRanker) -> object | None:
    """Pre-segment state token for rankers that support transactional
    rollback (duck-typed so baseline rankers need not implement it)."""
    capture = getattr(ranker, "checkpoint_state", None)
    return capture() if callable(capture) else None


def refine_pool(
    environment: ChargingEnvironment,
    trip: Trip,
    segment: TripSegment,
    pool: Sequence[Charger],
    eta_h: float,
    now_h: float,
    k: int,
    weights: Weights,
    next_segment: TripSegment | None = None,
    search_budget_h: float | None = None,
    radius_km: float | None = None,
) -> OfferingTable:
    """The shared Filtering + Refinement pipeline of Algorithm 1.

    Scores the candidate ``pool`` (lines 4-10), applies the Eq. 6 top-k
    intersection (line 16), sorts (line 17) and assembles the Offering
    Table (line 18).  Every ranker except Random funnels through here.
    The pool stays in flat arrays end to end; dataclasses are built only
    for the ``<= k`` chosen rows.
    """
    if radius_km is None:
        bounds = environment.registry.bounds
        radius_km = max(bounds.width, bounds.height)
    arrays = environment.score_pool(
        segment,
        pool,
        eta_h=eta_h,
        now_h=now_h,
        next_segment=next_segment,
        search_budget_h=search_budget_h,
    )
    sc_min, sc_max = sc_score_batch(arrays, weights)
    chosen_rows = intersect_top_k_batch(arrays.charger_ids, sc_min, sc_max, k)
    return build_table_from_arrays(
        segment_index=segment.index,
        origin=segment.midpoint,
        generated_at_h=now_h,
        radius_km=radius_km,
        components=arrays,
        sc_min=sc_min,
        sc_max=sc_max,
        chosen_rows=chosen_rows,
        chargers=pool,
        eta_h=eta_h,
    )


@dataclass(slots=True)
class RankingRun:
    """The full CkNN-EC answer for one trip: one table per segment.

    ``failed_segments`` lists segment indices whose ranking could not be
    produced even through the degradation ladder (upstream fault past
    every fallback); a clean run has none.
    """

    ranker_name: str
    trip: Trip
    tables: list[OfferingTable] = field(default_factory=list)
    failed_segments: list[int] = field(default_factory=list)

    @property
    def completed_cleanly(self) -> bool:
        return not self.failed_segments

    def table_for(self, segment_index: int) -> OfferingTable:
        """The Offering Table of ``segment_index`` (KeyError if absent)."""
        for table in self.tables:
            if table.segment_index == segment_index:
                return table
        raise KeyError(f"no table for segment {segment_index}")

    @property
    def adapted_count(self) -> int:
        return sum(1 for t in self.tables if t.is_adapted)


@ensure(
    lambda result: len(result.tables) >= 1
    and all(
        a.segment_index < b.segment_index
        for a, b in zip(result.tables, result.tables[1:])
    ),
    "the CkNN-EC answer is one Offering Table per segment, in trip order",
)
def run_over_trip(
    ranker: SegmentRanker,
    environment: ChargingEnvironment,
    trip: Trip,
    segment_km: float | None = None,
    session: SessionLog | None = None,
    cancellation: CancellationToken = NEVER_EXPIRES,
) -> RankingRun:
    """Drive a ranker over every segment of a trip (the continuous query).

    ETAs come from the traffic-aware estimator; the decision time ``now``
    is the trip departure (the driver consults the app when setting off
    and the app re-ranks each upcoming segment, Section IV-A).

    Each segment is one transaction: a segment that raises after partially
    mutating the ranker's per-trip state (dynamic cache) is rolled back to
    its pre-segment checkpoint, so a ``failed_segments`` entry never
    leaves half-applied mutations behind.  With a ``session`` the same
    boundary is journaled (and, on resume, replayed) by the durability
    subsystem; an injected :class:`~repro.resilience.SessionCrash`
    propagates out of this loop uncaught — it models the process dying.

    ``cancellation`` is the scheduler's deadline token: it is polled
    before every segment, so an expired request stops at the next
    segment boundary instead of ranking the rest of the trip.  A
    :class:`~repro.observability.deadline.DeadlineExpired` raised here
    (or deeper, inside the pool/engine checkpoints) first rolls the
    ranker back to its pre-segment checkpoint — expiry must never leak a
    half-mutated dynamic cache into the shard's next request — and then
    propagates to the scheduler, which owns the shed/serve-stale
    decision; it is never recorded as a failed segment.
    """
    from ..network.path import DEFAULT_SEGMENT_KM

    resolved_km = segment_km if segment_km is not None else DEFAULT_SEGMENT_KM
    segments = trip.segments(resolved_km)
    etas = environment.eta.segment_etas(trip, segment_km=resolved_km)
    if session is None:
        ranker.reset()
        run = RankingRun(ranker_name=ranker.name, trip=trip)
        start = 0
    else:
        run, start = session.begin(ranker, trip, segments)
    telemetry = environment.telemetry
    if start == 0:
        # Resumed sessions skip this: the trip was already counted before
        # the crash, and restored segments are not re-ranked below, so a
        # resume never double-counts.
        telemetry.inc("ecocharge_trips_total")
    last_error: UpstreamError | None = None
    with telemetry.span(
        "ranker.trip",
        tier="ranker",
        trace_id=trip_correlation_id(trip),
        ranker=ranker.name,
        segments=len(segments),
        start=start,
    ):
        for i in range(start, len(segments)):
            cancellation.checkpoint("segment")
            segment = segments[i]
            next_segment = segments[i + 1] if i + 1 < len(segments) else None
            checkpoint = _state_checkpoint(ranker)
            if session is not None:
                session.begin_segment(i, segment, ranker)
            started_s = telemetry.clock.monotonic() if telemetry.enabled else 0.0
            with telemetry.span("ranker.segment", tier="ranker", segment=segment.index):
                try:
                    table = ranker.rank_segment(
                        trip,
                        segment,
                        eta_h=etas[i].expected_h,
                        now_h=trip.departure_time_h,
                        next_segment=next_segment,
                    )
                except DeadlineExpired:
                    # Expiry mid-segment (pool or engine checkpoint): roll
                    # the transaction back so no half-applied cache state
                    # survives, then hand the expiry to the scheduler.
                    if checkpoint is not None:
                        ranker.restore_state(checkpoint)  # type: ignore[attr-defined]
                    raise
                except UpstreamError as error:
                    # A ranker running behind the resilience gateway never gets
                    # here (the ladder bottoms out at the fallback interval); a
                    # raw-estimator ranker degrades to skipping the segment, and
                    # the continuous query carries on with the rest of the trip.
                    # The transaction rolls back first: a partially mutated cache
                    # must not leak into the next segment (or the journal).
                    telemetry.mark_error(error)
                    if checkpoint is not None:
                        ranker.restore_state(checkpoint)  # type: ignore[attr-defined]
                    if session is not None:
                        session.record_failure(i, segment, error)
                    run.failed_segments.append(segment.index)
                    last_error = error
                    telemetry.inc("ecocharge_segments_total", outcome="failed")
                    continue
                if session is not None:
                    # A SessionCrash injected here propagates through the
                    # segment (and trip) spans, closing both with error
                    # status — the process is modelled as dying.
                    session.record_table(i, segment, table, ranker)
            run.tables.append(table)
            if telemetry.enabled:
                telemetry.observe(
                    "ecocharge_segment_seconds", telemetry.clock.monotonic() - started_s
                )
                telemetry.inc("ecocharge_segments_total", outcome="ok")
    if not run.tables and last_error is not None:
        # Nothing rankable at all: surface the fault rather than return
        # an answer that violates the one-table-minimum contract.
        raise last_error
    if session is not None:
        session.finish(run)
    return run
