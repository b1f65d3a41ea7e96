"""The sharded, overload-safe request scheduler of the serving tier.

Requests are sharded by trip correlation ID over N workers; each shard
owns one :class:`ChargingEnvironment` (and therefore one DistanceEngine
and one DynamicCache per ranker configuration) plus a bounded priority
queue and a per-shard :class:`ResponseCache` of finished Offering
Tables.  Shard affinity is what makes the per-trip caches effective
*and* contention-free: the same trip always lands on the same engine.

The request path is a fixed gauntlet, every exit of which produces
exactly one :class:`RankResponse`:

``submit`` — admission control (per-tenant token bucket, then the
global concurrency cap), deadline pre-check, brownout refresh-shedding,
then the bounded queue (which may displace a lower-priority resident).

``execute`` — overload chaos hooks (stuck worker, slow shard), deadline
checkpoints at dispatch and at serve time, the brownout ladder
(serve-stale, interval widening), and the ranking itself with the
deadline token installed on the shard's environment so expiry
propagates out of the engine/pool/segment loops.

The scheduler runs in two modes.  *Deterministic* mode (`run_one` /
`drain`) executes on the caller's thread in shard round-robin order —
this is what the chaos tests and the experiment driver use, on a
``SimulatedClock``, so every run replays exactly.  *Threaded* mode
(`start` / `stop`) parks one worker per shard on its queue with a
bounded ``poll`` timeout, which is how the wall-clock benchmark
measures real contention.

``SchedulerStats`` is the one store of the request accounting, mutated
only under the scheduler lock; a live metrics registry reads it in place
as ``ecocharge_scheduler_requests_total`` (a read-through family), so
the exported outcome counts cannot drift from the stats.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ...core.ranking import run_over_trip
from ...network.epochs import GraphEpochManager
from ...network.path import Trip
from ...observability.clock import Clock
from ...observability.deadline import NEVER_EXPIRES, Deadline, DeadlineExpired
from ...observability.recorder import NOOP_TELEMETRY, Telemetry
from ...observability.tracing import trip_correlation_id
from ...resilience.errors import UpstreamError
from ...validation import require_finite
from ..cache import ResponseCache
from .admission import AdmissionController
from .brownout import (
    BrownoutController,
    BrownoutLevel,
    floor_for_alert_severities,
    widen_table,
    widen_table_for_epoch,
)
from .queueing import BoundedShardQueue
from .requests import Outcome, Priority, RankRequest, RankResponse

if TYPE_CHECKING:
    from ...core.ecocharge import EcoChargeConfig
    from ...core.environment import ChargingEnvironment
    from ...observability.alerts import AlertManager
    from ...resilience.faults import FaultInjector


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    """Capacity knobs of the serving tier.

    Defaults are sized for the simulated fleet harness; the load
    experiments sweep them (``python -m repro.experiments serving``).
    """

    #: Worker shards; each owns an environment, engine, and caches.
    shards: int = 4
    #: Bounded depth of each shard's priority queue.
    queue_capacity: int = 16
    #: Global cap on requests in the system (queued + executing).
    max_inflight: int = 64
    #: Sustained per-tenant admission rate (token-bucket refill).
    tenant_rate_per_s: float = 8.0
    #: Per-tenant burst allowance (bucket capacity).
    tenant_burst: float = 16.0
    #: Deadline budget stamped on each request at submission.
    deadline_budget_s: float = 30.0
    #: TTL of the per-shard response cache (fresh-serving window).
    response_ttl_h: float = 0.25
    #: Oldest acceptable stale answer during brownout/deadline fallback.
    max_stale_h: float = 2.0
    #: Queue-fill fraction that switches a shard to serve-stale.
    serve_stale_at: float = 0.5
    #: Queue-fill fraction past which served intervals are widened.
    widen_at: float = 0.75
    #: Queue-fill fraction past which refresh/background work is shed.
    shed_refresh_at: float = 0.9
    #: ``Interval.widened`` factor applied at the WIDEN brownout level.
    widen_factor: float = 0.5
    #: Worker queue-poll timeout in threaded mode (bounded, stoppable).
    poll_timeout_s: float = 0.05
    #: When True, :meth:`ShardedScheduler.apply_alert_state` lets firing
    #: SLO alerts raise the brownout floor (alert-driven degradation);
    #: off by default so existing queue-depth-only behaviour is exact.
    alert_driven_brownout: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        for name in (
            "tenant_rate_per_s", "tenant_burst", "deadline_budget_s", "response_ttl_h",
            "max_stale_h", "poll_timeout_s", "serve_stale_at", "widen_at", "shed_refresh_at",
        ):
            require_finite(name, getattr(self, name), above=0.0)
        require_finite("widen_factor", self.widen_factor, at_least=0.0)


#: The terminal ``SchedulerStats`` counter of each outcome.
_OUTCOME_COUNTERS = {
    Outcome.COMPLETED: "completed",
    Outcome.STALE: "served_stale",
    Outcome.SHED_DEADLINE: "sheds_deadline",
    Outcome.SHED_QUEUE: "sheds_queue",
    Outcome.SHED_BROWNOUT: "sheds_brownout",
    Outcome.REJECTED_RATE: "rejected_rate",
    Outcome.REJECTED_CAPACITY: "rejected_capacity",
    Outcome.FAILED: "failed",
}


@dataclass(slots=True)
class SchedulerStats:
    """Exact request accounting; every submission resolves to exactly one
    terminal counter, so :meth:`accounting_ok` can demand equality.

    Mutated only by the owning scheduler under its lock (repro-check
    rule R13 polices outside writers); a live metrics registry reads the
    terminal counters in place, per :class:`Outcome`.
    """

    submitted: int = 0
    completed: int = 0
    served_stale: int = 0
    sheds_deadline: int = 0
    sheds_queue: int = 0
    sheds_brownout: int = 0
    rejected_rate: int = 0
    rejected_capacity: int = 0
    failed: int = 0
    #: Served responses whose intervals were widened (subset of
    #: completed + served_stale, not a terminal outcome).
    widened: int = 0
    #: Served responses answered from a *previous* live-graph epoch with
    #: epoch-bound widening (subset of ``widened``, not a terminal).
    epoch_degraded: int = 0
    #: Fresh results discarded from the response cache because the graph
    #: epoch moved while they were being computed — served to their
    #: requester but never cached as fresh (not a terminal).
    stale_epoch_rejections: int = 0

    _TERMINALS = tuple(_OUTCOME_COUNTERS.values())

    def resolved(self) -> int:
        """Requests that reached a terminal outcome."""
        return sum(getattr(self, name) for name in self._TERMINALS)

    def accounting_ok(self, pending: int = 0) -> bool:
        """Every submission is resolved or still pending — no request is
        ever dropped without a response, and none is counted twice."""
        return self.submitted == self.resolved() + pending

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (experiment report rows)."""
        return {name: getattr(self, name) for name in self._TERMINALS} | {
            "submitted": self.submitted,
            "widened": self.widened,
            "epoch_degraded": self.epoch_degraded,
            "stale_epoch_rejections": self.stale_epoch_rejections,
        }


class _Shard:
    """One worker shard: environment + rankers + queue + response cache."""

    def __init__(
        self,
        shard_id: int,
        environment: "ChargingEnvironment",
        config: SchedulerConfig,
    ) -> None:
        self.shard_id = shard_id
        self.environment = environment
        self.queue = BoundedShardQueue(config.queue_capacity)
        self.responses = ResponseCache(ttl_h=config.response_ttl_h)
        # One ranker per configuration, as in
        # EcoChargeInformationServer.rank_trip: requests with equal
        # configs share the shard's dynamic cache; the cache itself is
        # built by core (rule R9 keeps cache construction out of the
        # server tier).
        self._rankers: dict["EcoChargeConfig", object] = {}

    def ranker_for(self, config: "EcoChargeConfig"):
        from ...core.ecocharge import EcoChargeRanker

        ranker = self._rankers.get(config)
        if ranker is None:
            ranker = EcoChargeRanker(self.environment, config)
            self._rankers[config] = ranker
        return ranker


class ShardedScheduler:
    """Admission → bounded queues → deadline-aware execution → response.

    ``environment_factory`` is called once per shard so that engines and
    dynamic caches are never shared across workers (shard affinity, not
    locking, is the concurrency story for the heavy state; the stats
    objects are additionally lock-protected).
    """

    def __init__(
        self,
        environment_factory: Callable[[], "ChargingEnvironment"],
        config: SchedulerConfig | None = None,
        ranker_config: "EcoChargeConfig | None" = None,
        clock: Clock | None = None,
        telemetry: Telemetry | None = None,
        injector: "FaultInjector | None" = None,
        epochs: GraphEpochManager | None = None,
    ) -> None:
        from ...core.ecocharge import EcoChargeConfig

        self.config = config if config is not None else SchedulerConfig()
        self.ranker_config = (
            ranker_config if ranker_config is not None else EcoChargeConfig()
        )
        self.telemetry = telemetry if telemetry is not None else NOOP_TELEMETRY
        self.clock: Clock = clock if clock is not None else self.telemetry.clock
        self.injector = injector
        self.stats = SchedulerStats()
        self.admission = AdmissionController(
            self.clock,
            rate_per_s=self.config.tenant_rate_per_s,
            burst=self.config.tenant_burst,
            max_inflight=self.config.max_inflight,
        )
        self.brownout = BrownoutController(
            serve_stale_at=self.config.serve_stale_at,
            widen_at=self.config.widen_at,
            shed_refresh_at=self.config.shed_refresh_at,
            widen_factor=self.config.widen_factor,
        )
        self.shards = tuple(
            _Shard(i, environment_factory(), self.config)
            for i in range(self.config.shards)
        )
        #: Live-graph epoch manager shared by every shard (None = static
        #: network).  Requests are stamped with the epoch at admission;
        #: the response cache stores ``(epoch, tables)`` pairs so a
        #: post-bump lookup can widen (or refuse) an old-epoch answer.
        self.epochs = epochs
        if epochs is not None:
            for shard in self.shards:
                shard.environment.set_epochs(epochs)
            epochs.publish(self.telemetry)
        self.telemetry.read_through(
            self, ecocharge_scheduler_requests_total=self._outcome_readings
        )
        self._lock = threading.Lock()
        self._completed: list[RankResponse] = []
        self._next_id = 0
        self._workers: list[threading.Thread] = []
        self._stop_event = threading.Event()

    # -- submission ---------------------------------------------------------

    def shard_for(self, trip: Trip) -> int:
        """Deterministic shard affinity by trip correlation ID (CRC32 —
        Python's ``hash`` of a str is salted per process, which would
        break replay determinism across runs)."""
        return zlib.crc32(trip_correlation_id(trip).encode("ascii")) % len(self.shards)

    def submit(
        self,
        tenant: str,
        trip: Trip,
        priority: Priority = Priority.INTERACTIVE,
        budget_s: float | None = None,
    ) -> RankRequest:
        """Run the admission gauntlet; always returns the stamped request.

        A request that fails admission is *finished immediately* (its
        terminal response is queued for ``drain_responses``); one that
        passes is parked on its shard's bounded queue, possibly
        displacing a lower-priority resident (finished as SHED_QUEUE).
        """
        now_s = self.clock.monotonic()
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            self.stats.submitted += 1
        deadline = Deadline(
            self.clock,
            budget_s if budget_s is not None else self.config.deadline_budget_s,
            issued_s=now_s,
        )
        request = RankRequest(
            request_id=request_id,
            tenant=tenant,
            trip=trip,
            deadline=deadline,
            priority=priority,
            submitted_s=now_s,
            epoch=self._current_epoch(),
        )
        rejection = self.admission.try_admit(tenant)
        if rejection == "rate":
            self._finish(self._response(request, Outcome.REJECTED_RATE), admitted=False)
            return request
        if rejection == "capacity":
            self._finish(
                self._response(request, Outcome.REJECTED_CAPACITY), admitted=False
            )
            return request
        shard = self.shards[self.shard_for(trip)]
        if deadline.expired:
            self._finish(
                self._response(request, Outcome.SHED_DEADLINE, shard=shard.shard_id),
                admitted=True,
            )
            return request
        level = self.brownout.level_for(len(shard.queue), self.config.queue_capacity)
        if level >= BrownoutLevel.SHED_REFRESH and priority < Priority.INTERACTIVE:
            self._finish(
                self._response(
                    request,
                    Outcome.SHED_BROWNOUT,
                    shard=shard.shard_id,
                    brownout=int(level),
                    detail="refresh shed at admission",
                ),
                admitted=True,
            )
            return request
        victim = shard.queue.offer(request)
        if victim is not None:
            # Exactly one request (the newcomer or a displaced resident)
            # leaves the system here; both held an admission slot, and the
            # finish releases exactly one.
            self._finish(
                self._response(
                    victim,
                    Outcome.SHED_QUEUE,
                    shard=shard.shard_id,
                    detail="displaced from full queue"
                    if victim is not request
                    else "queue full",
                ),
                admitted=True,
            )
        return request

    def _current_epoch(self) -> int:
        """The live-graph epoch (0 when no manager is attached)."""
        return self.epochs.epoch if self.epochs is not None else 0

    # -- alert-driven brownout ----------------------------------------------

    def apply_alert_state(self, alerts: "AlertManager") -> BrownoutLevel:
        """Let firing SLO alerts raise the brownout floor (flag-gated).

        Called on the SLO evaluation cadence by the driver that owns the
        alert manager; a no-op (floor unchanged at NORMAL) unless
        ``SchedulerConfig.alert_driven_brownout`` is on.  The mapping
        from firing severities to floor lives in
        :func:`~.brownout.floor_for_alert_severities`; returns the floor
        now in effect.
        """
        if not self.config.alert_driven_brownout:
            return self.brownout.alert_floor
        floor = floor_for_alert_severities(
            [severity for _name, severity in alerts.firing()]
        )
        self.brownout.set_alert_floor(floor)
        return floor

    # -- execution ----------------------------------------------------------

    def run_one(self, shard_id: int) -> bool:
        """Deterministic mode: execute one queued request on the caller's
        thread.  Returns False when the shard's queue is empty."""
        shard = self.shards[shard_id]
        request = shard.queue.pop()
        if request is None:
            return False
        self._run_request(shard, request)
        return True

    def drain(self) -> int:
        """Round-robin every shard until all queues are empty; returns how
        many requests were executed (deterministic mode)."""
        executed = 0
        progressed = True
        while progressed:
            progressed = False
            for shard_id in range(len(self.shards)):
                if self.run_one(shard_id):
                    executed += 1
                    progressed = True
        return executed

    def _run_request(self, shard: _Shard, request: RankRequest) -> None:
        """Execute and resolve one popped request.

        A popped request must reach :meth:`_finish` exactly once whatever
        ``_execute`` raises — a leaked exception would kill the shard's
        worker thread, strand the admission slot, and break the exact
        accounting invariant — so unexpected errors resolve as FAILED
        instead of propagating.

        With live telemetry the execution is wrapped in a
        ``scheduler.request`` root span carrying the trip correlation ID
        and tenant/shard/outcome attributes — the markers the tail
        sampler (:mod:`repro.observability.sampling`) classifies on, and
        the root the ranker/engine/gateway spans nest under.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            response = self._guarded_execute(shard, request)
        else:
            with telemetry.span(
                "scheduler.request",
                tier="server",
                trace_id=trip_correlation_id(request.trip),
                tenant=request.tenant,
                shard=shard.shard_id,
                priority=request.priority.name,
            ) as span:
                response = self._guarded_execute(shard, request)
                if span is not None:
                    span.attributes["outcome"] = response.outcome.value
                    span.attributes["brownout"] = response.brownout
                    span.attributes["widened"] = response.widened
                    span.attributes["epoch_degraded"] = response.epoch_degraded
                    if response.outcome is Outcome.FAILED:
                        span.status = "error"
                        span.error = response.detail
        self._finish(response, admitted=True)

    def _guarded_execute(self, shard: _Shard, request: RankRequest) -> RankResponse:
        try:
            return self._execute(shard, request)
        except Exception as error:  # noqa: BLE001 — the shard must survive
            return self._response(
                request,
                Outcome.FAILED,
                shard=shard.shard_id,
                detail=f"unexpected {type(error).__name__}: {error}",
            )

    def _execute(self, shard: _Shard, request: RankRequest) -> RankResponse:
        deadline = request.deadline
        level = self.brownout.level_for(len(shard.queue), self.config.queue_capacity)
        key = ("tables", trip_correlation_id(request.trip))
        if self.injector is not None:
            if self.injector.shard_stuck(shard.shard_id):
                # A wedged worker burns the whole budget producing nothing.
                self._burn_budget(deadline)
                return self._degraded(
                    shard, request, level, key, detail="stuck worker"
                )
            delay_s = self.injector.shard_delay_s(shard.shard_id)
            if delay_s > 0.0:
                self._advance_clock(delay_s)
        try:
            deadline.checkpoint("dispatch")
        except DeadlineExpired as expiry:
            return self._degraded(shard, request, level, key, detail=str(expiry))
        if level >= BrownoutLevel.SERVE_STALE:
            stale = self._stale_response(shard, request, level, key)
            if stale is not None:
                return stale
        environment = shard.environment
        environment.set_cancellation(deadline)
        # The epoch this execution dispatches on.  Specs capture their
        # factor snapshot at construction, so the computed tables price
        # this epoch (or, if a bump lands mid-request in threaded mode, a
        # prefix of segments on it) — the serve-time re-check below
        # decides whether the result may be cached as fresh.
        epoch_at_dispatch = self._current_epoch()
        try:
            run = run_over_trip(
                shard.ranker_for(self.ranker_config),
                environment,
                request.trip,
                segment_km=self.ranker_config.segment_km,
                cancellation=deadline,
            )
            # A result that lands after the deadline must never be served
            # as fresh — the serve-time checkpoint converts it to a
            # stale/shed outcome like any other expiry.
            deadline.checkpoint("serve")
        except DeadlineExpired as expiry:
            return self._degraded(shard, request, level, key, detail=str(expiry))
        except UpstreamError as error:
            return self._response(
                request,
                Outcome.FAILED,
                shard=shard.shard_id,
                brownout=int(level),
                detail=f"{type(error).__name__}: {error}",
            )
        finally:
            environment.set_cancellation(NEVER_EXPIRES)
        tables = tuple(run.tables)
        epoch_at_serve = self._current_epoch()
        epoch_degraded = False
        bound = (
            self.epochs.bound_since(epoch_at_dispatch)
            if epoch_at_serve != epoch_at_dispatch
            else (1.0, 1.0)
        )
        if bound == (1.0, 1.0):
            # No *weight-changing* transition landed since dispatch (same
            # epoch, or only no-op bumps — whose ratio bound is exactly
            # (1, 1)), so the tables are the fresh truth for the serve
            # epoch too.  The response cache always stores the *unwidened*
            # answer: brownout widening is a per-response serving
            # decision, not a property of the computed result.  Stamp it
            # with the clock *after* the ranking run (and any chaos
            # delay) — a pre-execution timestamp would make the entry look
            # older than it is and shorten its staleness window.  The
            # epoch rides along so a post-bump stale lookup can widen it
            # soundly.
            now_h = self.clock.monotonic() / 3600.0
            shard.responses.put(key, now_h, (epoch_at_serve, tables))
        else:
            # The graph's weights moved while this request was executing:
            # the tables are consistent for their compute epoch(s) but
            # must never be cached as fresh for the new one.  Serve them
            # to their requester widened by the worst-case bound over the
            # missed transitions (a vacuous bound saturates derouting to
            # [0, 1] — still sound, never a lie).
            self._note_stale_epoch_rejection()
            lo, hi = bound
            tables = tuple(
                widen_table_for_epoch(table, lo, hi, self.ranker_config.weights)
                for table in tables
            )
            epoch_degraded = True
        widened = epoch_degraded
        if level >= BrownoutLevel.WIDEN:
            tables = self._widen_tables(tables)
            widened = True
        return self._response(
            request,
            Outcome.COMPLETED,
            tables=tables,
            shard=shard.shard_id,
            brownout=int(level),
            widened=widened,
            epoch_degraded=epoch_degraded,
        )

    def _stale_response(
        self,
        shard: _Shard,
        request: RankRequest,
        level: BrownoutLevel,
        key: tuple,
    ) -> RankResponse | None:
        """A bounded-staleness answer from the shard's response cache, or
        None when nothing acceptable is retained.

        Entries are ``(epoch, tables)`` pairs.  An entry from an older
        live-graph epoch is served only with its derouting intervals
        widened by :meth:`GraphEpochManager.bound_since` — and refused
        outright (None, so the caller computes fresh on the live graph)
        when that bound is vacuous, e.g. a closure landed since.
        """
        now_h = self.clock.monotonic() / 3600.0
        cached = shard.responses.lookup_stale(key, now_h, self.config.max_stale_h)
        if cached is None:
            return None
        entry_epoch, tables = cached.value
        tables = tuple(tables)
        widened = False
        epoch_degraded = False
        current = self._current_epoch()
        if entry_epoch != current:
            lo, hi = self.epochs.bound_since(entry_epoch)
            if hi == float("inf") or lo == 0.0:
                return None
            if (lo, hi) != (1.0, 1.0):
                # Only no-op bumps landed since the entry was cached when
                # the bound is exactly (1, 1): the entry is still the
                # fresh truth and needs no widening.
                tables = tuple(
                    widen_table_for_epoch(table, lo, hi, self.ranker_config.weights)
                    for table in tables
                )
                widened = True
                epoch_degraded = True
        if level >= BrownoutLevel.WIDEN:
            tables = self._widen_tables(tables)
            widened = True
        return self._response(
            request,
            Outcome.STALE,
            tables=tables,
            shard=shard.shard_id,
            brownout=int(level),
            widened=widened,
            epoch_degraded=epoch_degraded,
            stale_age_h=cached.age_h,
        )

    def _degraded(
        self,
        shard: _Shard,
        request: RankRequest,
        level: BrownoutLevel,
        key: tuple,
        detail: str,
    ) -> RankResponse:
        """Expiry/stuck resolution: prefer an honest stale answer over an
        empty one, else shed on the deadline."""
        stale = self._stale_response(shard, request, max(level, BrownoutLevel.SERVE_STALE), key)
        if stale is not None:
            return stale
        return self._response(
            request,
            Outcome.SHED_DEADLINE,
            shard=shard.shard_id,
            brownout=int(level),
            detail=detail,
        )

    def _note_stale_epoch_rejection(self) -> None:
        """Count one fresh result barred from the response cache by an
        epoch bump that landed while it was computing (mutated under the
        scheduler lock like every stats counter)."""
        with self._lock:
            self.stats.stale_epoch_rejections += 1

    def _widen_tables(self, tables: tuple) -> tuple:
        factor = self.brownout.widen_factor
        weights = self.ranker_config.weights
        return tuple(widen_table(table, factor, weights) for table in tables)

    def _burn_budget(self, deadline: Deadline) -> None:
        remaining = deadline.remaining_s()
        if remaining > 0.0 and remaining != float("inf"):
            self._advance_clock(remaining + 1e-6)

    def _advance_clock(self, seconds: float) -> None:
        # Only a SimulatedClock can be advanced; on the system clock the
        # chaos delay is a modelling no-op (R10 keeps ``time.sleep`` out
        # of this tier, and a benchmark must not actually stall).
        advance = getattr(self.clock, "advance", None)
        if advance is not None:
            advance(seconds)

    # -- resolution ---------------------------------------------------------

    def _response(self, request: RankRequest, outcome: Outcome, **kwargs) -> RankResponse:
        latency_s = max(0.0, self.clock.monotonic() - request.submitted_s)
        return RankResponse(
            request=request, outcome=outcome, latency_s=latency_s, **kwargs
        )

    def _finish(self, response: RankResponse, admitted: bool) -> None:
        """The single resolution point: exactly one per request.

        Stats mutation, native telemetry, response delivery, and the
        admission-slot release all happen here, under the scheduler lock
        — which is also what keeps the (lock-free by design) metrics
        registry single-writer in threaded mode.
        """
        with self._lock:
            counter = _OUTCOME_COUNTERS[response.outcome]
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            if response.widened:
                self.stats.widened += 1
            if response.epoch_degraded:
                self.stats.epoch_degraded += 1
            self.telemetry.observe(
                "ecocharge_scheduler_latency_seconds", response.latency_s
            )
            if self.telemetry.enabled:
                # Dimensional families: per-tenant (cardinality-guarded
                # in the registry) and per-shard outcome counts, plus the
                # served-latency histogram with an exemplar linking its
                # bucket to this request's trace.
                outcome = response.outcome.value
                self.telemetry.inc(
                    "ecocharge_tenant_requests_total",
                    tenant=response.request.tenant,
                    outcome=outcome,
                )
                self.telemetry.inc(
                    "ecocharge_shard_requests_total",
                    shard=str(response.shard),
                    outcome=outcome,
                )
                if response.outcome.is_served:
                    self.telemetry.observe(
                        "ecocharge_served_latency_seconds",
                        response.latency_s,
                        exemplar=trip_correlation_id(response.request.trip),
                    )
            self._completed.append(response)
        if admitted:
            self.admission.release()

    def drain_responses(self) -> list[RankResponse]:
        """Take every resolved response accumulated since the last call."""
        with self._lock:
            out = self._completed
            self._completed = []
        return out

    # -- accounting ---------------------------------------------------------

    def _outcome_readings(self) -> dict[tuple[str, ...], float]:
        """Resolved requests per :class:`Outcome` value, read from the stats."""
        return {
            (outcome.value,): float(getattr(self.stats, counter))
            for outcome, counter in _OUTCOME_COUNTERS.items()
        }

    @property
    def pending(self) -> int:
        return sum(len(shard.queue) for shard in self.shards)

    def accounting_ok(self) -> bool:
        """Exact identity: submitted == resolved + still-queued."""
        return self.stats.accounting_ok(pending=self.pending)

    def peak_depths(self) -> tuple[int, ...]:
        """Per-shard high-water queue depths (bounded-growth evidence)."""
        return tuple(shard.queue.peak_depth for shard in self.shards)

    def epoch_cache_invalidations(self) -> int:
        """Entries dropped by live-graph epoch fencing across every
        shard's engine and dynamic caches — the incident-chaos evidence
        that a no-op epoch bump costs nothing."""
        total = 0
        for shard in self.shards:
            total += shard.environment.engine.stats.epoch_invalidations
            total += sum(
                ranker.cache_stats.epoch_invalidations
                for ranker in shard._rankers.values()
            )
        return total

    # -- threaded mode ------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker thread per shard (wall-clock benchmark mode)."""
        if self._workers:
            raise RuntimeError("scheduler already started")
        self._stop_event.clear()
        for shard in self.shards:
            worker = threading.Thread(
                target=self._worker_loop,
                args=(shard,),
                name=f"rank-shard-{shard.shard_id}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    def _worker_loop(self, shard: _Shard) -> None:
        while not self._stop_event.is_set():
            request = shard.queue.poll(self.config.poll_timeout_s)
            if request is None:
                continue
            self._run_request(shard, request)

    def stop(self, drain: bool = True) -> None:
        """Stop workers; with ``drain`` the remaining queued requests are
        then executed on the caller's thread (every admitted request still
        gets its one response).

        Workers are stopped *before* draining: a shard's environment and
        rankers are single-threaded by design, so the caller must never
        execute on a shard while its worker might still be mid-request —
        two concurrent ``_execute`` calls would race on the environment's
        cancellation token and could serve one request against the other's
        deadline.
        """
        self._stop_event.set()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []
        if drain:
            while self.pending:
                for shard in self.shards:
                    request = shard.queue.pop()
                    if request is not None:
                        self._run_request(shard, request)
