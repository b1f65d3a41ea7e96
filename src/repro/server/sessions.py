"""Durable Mode-2 sessions at the server tier.

``EcoChargeInformationServer.rank_trip`` answers a whole trip in one
shot; this service makes that continuous query *durable*: a vehicle
opens a named session, the server journals every segment transaction,
and if the serving process dies mid-trip the next process resumes the
session and finishes the remaining segments with bitwise-identical
Offering Tables.

Discipline (enforced by ``repro-check`` rule R9): the server tier never
touches session state — cache checkpoints, offering-table lists, journal
files — directly.  Every mutation flows through
:class:`~repro.durability.SessionManager` transactions, so the journal
is a complete record by construction.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..durability import DurabilityConfig, RankingSession, SessionManager
from ..resilience.faults import SessionCrash

if TYPE_CHECKING:
    from ..core.ecocharge import EcoChargeConfig
    from ..core.ranking import RankingRun
    from ..network.path import Trip
    from .eis import EcoChargeInformationServer


class DurableSessionService:
    """Open / resume / close durable ranking sessions for one EIS.

    Sessions rank over the server's fault-tolerant serving environment,
    so the degradation ladder and the durability tier compose: an
    upstream outage degrades a segment (journaled as such), a process
    crash loses nothing that was committed.
    """

    def __init__(
        self,
        server: "EcoChargeInformationServer",
        root: Path | str,
        durability: DurabilityConfig | None = None,
    ) -> None:
        self.server = server
        self.manager = SessionManager(
            root, durability, injector=server.gateway.injector
        )

    def open(
        self,
        session_id: str,
        trip: "Trip",
        config: "EcoChargeConfig | None" = None,
    ) -> RankingSession:
        """Register a durable session for ``trip`` (header committed)."""
        self.server.requests_served += 1
        return self.manager.open(
            session_id, self.server.serving_environment, trip, config
        )

    def resume(self, session_id: str) -> RankingSession:
        """Recover a crashed session from its snapshot + journal tail."""
        self.server.requests_served += 1
        return self.manager.resume(session_id, self.server.serving_environment)

    def close(self, session: RankingSession) -> None:
        """Seal a session: final snapshot, truncated journal, closed file."""
        self.manager.close(session)

    def has_session(self, session_id: str) -> bool:
        """Whether durable state exists on disk for ``session_id``."""
        return self.manager.has_session(session_id)

    def rank_trip_durably(
        self,
        session_id: str,
        trip: "Trip",
        config: "EcoChargeConfig | None" = None,
    ) -> "RankingRun":
        """One-call convenience: open, run to completion, seal."""
        from ..observability.tracing import trip_correlation_id

        with self.server.serving_environment.telemetry.span(
            "server.rank_trip_durably",
            tier="server",
            trace_id=trip_correlation_id(trip),
            session_id=session_id,
        ):
            return self._run_and_seal(self.open(session_id, trip, config))

    def resume_and_finish(self, session_id: str) -> "RankingRun":
        """One-call convenience: resume, finish the trip, seal."""
        from ..observability.tracing import trip_correlation_id

        session = self.resume(session_id)
        # The resumed trace adopts the same content-hashed trip ID the
        # pre-crash run used, so both processes' spans share one trace.
        with self.server.serving_environment.telemetry.span(
            "server.resume_and_finish",
            tier="server",
            trace_id=trip_correlation_id(session.trip),
            session_id=session_id,
        ):
            return self._run_and_seal(session)

    def _run_and_seal(self, session: RankingSession) -> "RankingRun":
        """Run ``session`` to completion and seal it.

        A :class:`~repro.resilience.faults.SessionCrash` leaves the
        session unsealed, as the process death it models would: sealing
        would snapshot cache stats that include the crashed segment's
        unjournaled lookups.  Any other error still seals.
        """
        try:
            run = session.run()
        except SessionCrash:
            raise
        except BaseException:
            self.close(session)
            raise
        self.close(session)
        return run
