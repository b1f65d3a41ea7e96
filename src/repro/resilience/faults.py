"""Deterministic, seedable fault injection for the simulated providers.

Chaos testing needs faults that are *reproducible*: the same seed and the
same call sequence must produce the same failures, or a degraded-mode bug
can never be replayed.  The :class:`FaultInjector` draws per-endpoint
streams from :class:`random.Random` seeded with ``(seed, endpoint)``, so
endpoints fail independently and adding calls on one endpoint never
shifts another's schedule.

Three fault classes mirror what real provider SDKs defend against:

* **transient errors** — per-call probability of an HTTP-5xx-style
  failure (:class:`TransientUpstreamError`);
* **latency spikes** — per-call probability that the response exceeds the
  client timeout (:class:`UpstreamTimeoutError`);
* **outage windows** — scheduled ``[start_h, end_h)`` intervals of
  simulated clock time during which every call fails
  (:class:`UpstreamOutageError`).

The ``Faulty*Api`` wrappers mirror the four provider interfaces of
``server/api.py`` one-to-one and roll the injector *before* delegating
(for a pool call, before every key's fetch):
an injected fault therefore never reaches the real provider and never
increments its :class:`~repro.server.api.ApiUsage` counter — exactly the
accounting a failed network call would produce.

Beyond provider faults, the injector also schedules **process crashes**
for the durability tier (``repro.durability``): a :class:`CrashPoint`
names a code location (``"mid-segment"``, ``"mid-journal-append"``,
``"post-snapshot"``, ...) and the occurrence at which the session dies
there.  Crash points are deterministic by construction — no randomness,
just a counter per point — so a recovery bug found at
``CrashPoint("mid-journal-append", 3)`` replays identically forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Any, Sequence

from ..validation import require_finite
from .errors import TransientUpstreamError, UpstreamOutageError, UpstreamTimeoutError

if TYPE_CHECKING:  # avoid a runtime repro.server import cycle
    from ..chargers.charger import Charger
    from ..server.api import (
        BusyTimesApi,
        ChargerCatalogApi,
        PoolRequest,
        TrafficApi,
        WeatherApi,
    )
    from ..spatial.geometry import Point


@dataclass(frozen=True, slots=True)
class OutageWindow:
    """A scheduled provider outage over simulated clock time."""

    start_h: float
    end_h: float

    def __post_init__(self) -> None:
        if self.end_h <= self.start_h:
            raise ValueError("outage window must end after it starts")

    def covers(self, time_h: float) -> bool:
        return self.start_h <= time_h < self.end_h


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Failure characteristics of one endpoint.

    ``latency_ms`` is the nominal round trip charged on success and on
    transient errors; ``spike_latency_ms`` is what a timed-out call
    costs the caller before it gives up.
    """

    error_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_ms: float = 40.0
    spike_latency_ms: float = 1500.0
    outages: tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("error_rate", "latency_spike_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        require_finite("latency_ms", self.latency_ms, at_least=0.0)
        require_finite("spike_latency_ms", self.spike_latency_ms, at_least=0.0)

    def in_outage(self, now_h: float) -> bool:
        return any(window.covers(now_h) for window in self.outages)


#: A profile that never fails — the default when no chaos is requested.
NO_FAULTS = FaultProfile(latency_ms=0.0)


class SessionCrash(RuntimeError):
    """The simulated process death injected at a named crash point.

    Deliberately *not* an :class:`~repro.resilience.errors.UpstreamError`:
    the degradation ladder must never absorb it — it models the serving
    process itself dying, and the only valid handler is a recovery path
    (``SessionManager.resume``), never a retry.
    """

    def __init__(self, point: str, occurrence: int):
        super().__init__(f"injected crash at '{point}' (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


@dataclass(frozen=True, slots=True)
class CrashPoint:
    """Kill the session the ``at_occurrence``-th time it passes ``point``.

    Occurrences are 1-based and counted per point name across the whole
    injector lifetime, so a plan is an exact, replayable schedule.
    """

    point: str
    at_occurrence: int = 1

    def __post_init__(self) -> None:
        if not self.point:
            raise ValueError("crash point needs a name")
        if self.at_occurrence < 1:
            raise ValueError("at_occurrence is 1-based")


@dataclass(frozen=True, slots=True)
class OverloadChaos:
    """An overload fault plan for the concurrent serving tier.

    Three deterministic pressure sources mirror how real serving tiers
    melt down:

    * **burst arrivals** — the load generator multiplies its sustained
      arrival rate by ``burst_multiplier`` inside
      ``[burst_start_s, burst_start_s + burst_duration_s)``;
    * **slow shard** — every dispatch on ``slow_shard`` is charged an
      extra ``slow_delay_s`` of simulated service time (one worker
      lagging: queue depth grows, brownout must engage);
    * **stuck worker** — ``stuck_shard`` wedges after serving
      ``stuck_after`` requests: later dispatches never complete and the
      scheduler must shed them at the deadline instead of waiting.

    Like :class:`CrashPoint`, there is no randomness here — the plan is
    an exact schedule, so an overload bug replays identically forever.
    """

    burst_multiplier: float = 1.0
    burst_start_s: float = 0.0
    burst_duration_s: float = 0.0
    slow_shard: int | None = None
    slow_delay_s: float = 0.0
    stuck_shard: int | None = None
    stuck_after: int = 0

    def __post_init__(self) -> None:
        # 1 = no burst.
        require_finite("burst_multiplier", self.burst_multiplier, at_least=1.0)
        for name in ("burst_start_s", "burst_duration_s", "slow_delay_s"):
            require_finite(name, getattr(self, name), at_least=0.0)
        if self.stuck_after < 0:
            raise ValueError("stuck_after must be non-negative")

    def in_burst(self, at_s: float) -> bool:
        return (
            self.burst_duration_s > 0
            and self.burst_start_s <= at_s < self.burst_start_s + self.burst_duration_s
        )


@dataclass(frozen=True, slots=True)
class IncidentChaos:
    """A live-graph incident-storm plan (the epoch-chaos mode).

    Seeds a deterministic
    :class:`~repro.network.epochs.IncidentStream` and bounds the storm:
    ``batches`` epoch bumps of ``batch_size`` incidents each, with every
    ``noop_every``-th bump an *empty* batch (epoch advances, no weights
    change) so the chaos run also proves a no-op bump invalidates
    nothing.  Like :class:`CrashPoint` and :class:`OverloadChaos` the
    plan is exact and seeded — a storm that finds an epoch bug replays
    identically forever.
    """

    seed: int = 0
    batches: int = 4
    batch_size: int = 3
    multiplier_lo: float = 1.25
    multiplier_hi: float = 4.0
    closure_rate: float = 0.2
    reopen_rate: float = 0.5
    max_closed: int = 2
    #: Every Nth bump is an empty batch (0 disables no-op bumps).
    noop_every: int = 3

    def __post_init__(self) -> None:
        if self.batches < 1:
            raise ValueError("an incident plan needs at least one batch")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 1.0 <= self.multiplier_lo <= self.multiplier_hi:
            raise ValueError("need 1.0 <= multiplier_lo <= multiplier_hi")
        if not 0.0 <= self.closure_rate <= 1.0 or not 0.0 <= self.reopen_rate <= 1.0:
            raise ValueError("rates must be in [0, 1]")
        if self.max_closed < 0:
            raise ValueError("max_closed must be non-negative")
        if self.noop_every < 0:
            raise ValueError("noop_every must be non-negative (0 disables)")


@dataclass(slots=True)
class FaultStats:
    """Per-endpoint injection accounting."""

    rolls: int = 0
    delivered: int = 0
    transients: int = 0
    timeouts: int = 0
    outage_hits: int = 0
    total_latency_ms: float = 0.0

    @property
    def injected(self) -> int:
        return self.transients + self.timeouts + self.outage_hits


class FaultInjector:
    """Seeded fault source shared by all wrapped endpoints.

    ``profiles`` maps endpoint names to :class:`FaultProfile`; endpoints
    without an entry use ``default`` (no faults unless configured).
    """

    def __init__(
        self,
        seed: int = 0,
        profiles: dict[str, FaultProfile] | None = None,
        default: FaultProfile = NO_FAULTS,
        crash_plan: "tuple[CrashPoint, ...] | list[CrashPoint] | None" = None,
        overload: OverloadChaos | None = None,
        incidents: IncidentChaos | None = None,
    ):
        self._seed = seed
        self._profiles = dict(profiles) if profiles is not None else {}
        self._default = default
        self._rngs: dict[str, Random] = {}
        self.stats: dict[str, FaultStats] = {}
        self._crash_plan: tuple[CrashPoint, ...] = (
            tuple(crash_plan) if crash_plan is not None else ()
        )
        self._crash_counts: dict[str, int] = {}
        self._overload = overload
        self._shard_dispatches: dict[int, int] = {}
        #: Deterministic firing counters per overload fault kind
        #: (``"burst"``, ``"slow"``, ``"stuck"``) for test reconciliation.
        self.overload_events: dict[str, int] = {}
        self._incidents = incidents
        self._incident_stream: Any = None
        self._incident_network: Any = None
        self._incident_batches = 0

    def profile(self, endpoint: str) -> FaultProfile:
        return self._profiles.get(endpoint, self._default)

    def stats_for(self, endpoint: str) -> FaultStats:
        stats = self.stats.get(endpoint)
        if stats is None:
            stats = FaultStats()
            self.stats[endpoint] = stats
        return stats

    def _rng(self, endpoint: str) -> Random:
        rng = self._rngs.get(endpoint)
        if rng is None:
            # Seeding with a string keeps the stream stable across runs
            # and independent per endpoint.
            rng = Random(f"{self._seed}:{endpoint}")
            self._rngs[endpoint] = rng
        return rng

    @property
    def total_injected(self) -> int:
        return sum(stats.injected for stats in self.stats.values())

    # -- crash-point injection (durability chaos) ---------------------------

    def crash_next(self, point: str) -> bool:
        """Would the *next* arrival at ``point`` crash?

        Lets torn-write sites prepare the partial state (e.g. write half a
        journal line) before :meth:`maybe_crash` fires the actual crash.
        Does not advance the occurrence counter.
        """
        upcoming = self._crash_counts.get(point, 0) + 1
        return any(
            cp.point == point and cp.at_occurrence == upcoming
            for cp in self._crash_plan
        )

    def maybe_crash(self, point: str) -> None:
        """Register one arrival at ``point``; die if the plan says so."""
        count = self._crash_counts.get(point, 0) + 1
        self._crash_counts[point] = count
        for cp in self._crash_plan:
            if cp.point == point and cp.at_occurrence == count:
                raise SessionCrash(point, count)

    # -- overload chaos (concurrent serving tier) ---------------------------

    @property
    def overload(self) -> OverloadChaos | None:
        return self._overload

    def burst_factor(self, at_s: float) -> float:
        """Arrival-rate multiplier at scheduler time ``at_s``.

        1.0 outside any burst window; the load generator multiplies its
        sustained rate by this when scheduling arrivals.
        """
        plan = self._overload
        if plan is None or not plan.in_burst(at_s):
            return 1.0
        self.overload_events["burst"] = self.overload_events.get("burst", 0) + 1
        return plan.burst_multiplier

    def shard_delay_s(self, shard_id: int) -> float:
        """Extra simulated service time charged to a dispatch on
        ``shard_id`` (the slow-shard fault; 0.0 for healthy shards)."""
        plan = self._overload
        if plan is None or plan.slow_shard != shard_id or plan.slow_delay_s <= 0:
            return 0.0
        self.overload_events["slow"] = self.overload_events.get("slow", 0) + 1
        return plan.slow_delay_s

    def shard_stuck(self, shard_id: int) -> bool:
        """Register one dispatch on ``shard_id``; True once it is wedged.

        Deterministic by construction — a counter per shard, no
        randomness — so a stuck-worker schedule replays exactly.  A
        wedged dispatch never completes: the scheduler must shed it at
        its deadline rather than wait for the worker.
        """
        plan = self._overload
        if plan is None or plan.stuck_shard != shard_id:
            return False
        count = self._shard_dispatches.get(shard_id, 0) + 1
        self._shard_dispatches[shard_id] = count
        if count <= plan.stuck_after:
            return False
        self.overload_events["stuck"] = self.overload_events.get("stuck", 0) + 1
        return True

    # -- incident chaos (live-graph tier) -----------------------------------

    def next_incidents(self, network: Any) -> "tuple | None":
        """The next incident batch of the plan, or None when exhausted.

        Returns a (possibly empty) tuple of
        :class:`~repro.network.epochs.Incident` — an *empty* tuple is a
        scheduled no-op bump and must still be applied (the epoch
        advances, no weights change).  The underlying seeded stream is
        built lazily on first call against ``network``.
        """
        plan = self._incidents
        if plan is None or self._incident_batches >= plan.batches:
            return None
        from ..network.epochs import IncidentStream

        if self._incident_stream is None or self._incident_network is not network:
            self._incident_stream = IncidentStream(
                network,
                seed=plan.seed,
                multiplier_lo=plan.multiplier_lo,
                multiplier_hi=plan.multiplier_hi,
                closure_rate=plan.closure_rate,
                reopen_rate=plan.reopen_rate,
                max_closed=plan.max_closed,
            )
            self._incident_network = network
        self._incident_batches += 1
        if plan.noop_every and self._incident_batches % plan.noop_every == 0:
            return ()
        return self._incident_stream.next_batch(plan.batch_size)

    def roll(self, endpoint: str, now_h: float) -> float:
        """One provider call at simulated time ``now_h``.

        Returns the simulated latency on success; raises the scheduled
        typed :class:`~repro.resilience.errors.UpstreamError` otherwise.
        """
        profile = self.profile(endpoint)
        stats = self.stats_for(endpoint)
        stats.rolls += 1
        if profile.in_outage(now_h):
            stats.outage_hits += 1
            raise UpstreamOutageError(
                endpoint, f"scheduled outage at t={now_h:.2f}h",
                latency_ms=profile.spike_latency_ms,
            )
        rng = self._rng(endpoint)
        if profile.latency_spike_rate > 0 and rng.random() < profile.latency_spike_rate:
            stats.timeouts += 1
            raise UpstreamTimeoutError(
                endpoint, "latency spike past client timeout",
                latency_ms=profile.spike_latency_ms,
            )
        if profile.error_rate > 0 and rng.random() < profile.error_rate:
            stats.transients += 1
            raise TransientUpstreamError(
                endpoint, "transient provider failure", latency_ms=profile.latency_ms
            )
        stats.delivered += 1
        stats.total_latency_ms += profile.latency_ms
        return profile.latency_ms


# ---------------------------------------------------------------------------
# Faulty wrappers — one per provider interface of server/api.py
# ---------------------------------------------------------------------------


class _FaultyPoolRequest:
    """A :class:`~repro.server.api.PoolRequest` that rolls the injector
    before every fetch, so each key's attempt can fail on its own."""

    __slots__ = ("_inner", "_injector", "_endpoint", "_now_h")

    def __init__(
        self, inner: "PoolRequest", injector: FaultInjector, endpoint: str, now_h: float
    ):
        self._inner = inner
        self._injector = injector
        self._endpoint = endpoint
        self._now_h = now_h

    def fetch(self, row: int) -> Any:
        self._injector.roll(self._endpoint, self._now_h)
        return self._inner.fetch(row)


class FaultyWeatherApi:
    """Fault-injecting proxy over :class:`~repro.server.api.WeatherApi`."""

    ENDPOINT = "weather"

    def __init__(self, inner: "WeatherApi", injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def forecast(self, location: "Point", target_h: float, now_h: float) -> Any:
        self._injector.roll(self.ENDPOINT, now_h)
        return self._inner.forecast(location, target_h, now_h)

    def window_forecast_pool(
        self, locations: "Sequence[Point]", start_h: float, end_h: float, now_h: float
    ) -> _FaultyPoolRequest:
        return _FaultyPoolRequest(
            self._inner.window_forecast_pool(locations, start_h, end_h, now_h),
            self._injector,
            self.ENDPOINT,
            now_h,
        )


class FaultyBusyTimesApi:
    """Fault-injecting proxy over :class:`~repro.server.api.BusyTimesApi`."""

    ENDPOINT = "busy"

    def __init__(self, inner: "BusyTimesApi", injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def availability_pool(
        self, chargers: "Sequence[Charger]", eta_h: float, now_h: float
    ) -> _FaultyPoolRequest:
        return _FaultyPoolRequest(
            self._inner.availability_pool(chargers, eta_h, now_h),
            self._injector,
            self.ENDPOINT,
            now_h,
        )


class FaultyTrafficApi:
    """Fault-injecting proxy over :class:`~repro.server.api.TrafficApi`."""

    ENDPOINT = "traffic"

    def __init__(self, inner: "TrafficApi", injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def model_snapshot(self, time_h: float) -> Any:
        self._injector.roll(self.ENDPOINT, time_h)
        return self._inner.model_snapshot(time_h)


class FaultyChargerCatalogApi:
    """Fault-injecting proxy over :class:`~repro.server.api.ChargerCatalogApi`."""

    ENDPOINT = "catalog"

    def __init__(self, inner: "ChargerCatalogApi", injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def nearby(
        self, location: "Point", radius_km: float, now_h: float = 0.0
    ) -> list["Charger"]:
        self._injector.roll(self.ENDPOINT, now_h)
        return self._inner.nearby(location, radius_km)
