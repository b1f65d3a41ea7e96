"""Load generator: drive the sharded scheduler with a synthetic tenant mix.

Feeds a :class:`~repro.server.scheduling.ShardedScheduler` a seeded
arrival process over real fleet trips and reports what came back —
latency percentiles, throughput, shed/brownout composition, and an
exact check of the responses delivered against the per-outcome counts
the metrics registry reads from the scheduler's stats.

Two modes, matching the scheduler's:

* :func:`run_load` — deterministic.  The scheduler runs on a
  ``SimulatedClock``; arrivals are exponential inter-arrival gaps whose
  rate is scaled by the fault injector's ``burst_factor`` (so an
  :class:`~repro.resilience.OverloadChaos` burst window compresses
  arrivals), and service is a fixed-cadence tick that executes one
  request per shard — when the burst outruns the service cadence the
  queues fill, brownout engages, and the run replays identically for a
  given seed.
* :func:`run_load_threaded` — wall-clock.  Workers are real threads;
  arrivals are submitted back-to-back, so the run checks liveness and
  exact accounting under real thread races.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..observability.metrics import MetricsRegistry
from ..server.scheduling import Outcome, Priority, RankResponse, ShardedScheduler

if TYPE_CHECKING:
    from ..network.path import Trip


@dataclass(frozen=True, slots=True)
class LoadProfile:
    """Shape of one synthetic load run (all randomness is seeded)."""

    #: Total requests submitted.
    requests: int = 64
    #: Base arrival rate; the injector's burst window multiplies it.
    arrival_rate_per_s: float = 8.0
    #: Deterministic-mode service cadence: every ``service_interval_s``
    #: of simulated time, each shard executes one queued request.
    service_interval_s: float = 0.15
    #: Distinct tenants (round-robined through the token buckets).
    tenants: int = 4
    #: Fraction of arrivals submitted as REFRESH priority.
    refresh_fraction: float = 0.4
    #: Fraction submitted as BACKGROUND (the rest are INTERACTIVE).
    background_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be positive")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be positive")
        if self.service_interval_s <= 0:
            raise ValueError("service_interval_s must be positive")
        if self.tenants < 1:
            raise ValueError("tenants must be positive")
        if not 0.0 <= self.refresh_fraction + self.background_fraction <= 1.0:
            raise ValueError("priority fractions must sum to at most 1")


@dataclass(frozen=True)
class LoadReport:
    """Everything a load run measured, ready for the experiment tables."""

    requests: int
    elapsed_s: float
    outcomes: dict[str, int]
    #: Nearest-rank (:func:`percentile`) quantiles of served latencies.
    p50_latency_s: float
    p99_latency_s: float
    served_per_s: float
    widened: int
    peak_depths: tuple[int, ...]
    peak_inflight: int
    overload_events: dict[str, int]
    accounting_exact: bool
    reconciliation: tuple[str, ...]
    #: Every resolved response, in resolution order — for invariant
    #: assertions (deadline honesty, interval soundness); deliberately
    #: excluded from :meth:`as_dict` so reports stay JSON-sized.
    responses: tuple[RankResponse, ...] = ()

    @property
    def served(self) -> int:
        return self.outcomes.get("completed", 0) + self.outcomes.get("stale", 0)

    @property
    def shed(self) -> int:
        return sum(
            count
            for name, count in self.outcomes.items()
            if name.startswith("shed-") or name.startswith("rejected-")
        )

    def as_dict(self) -> dict:
        """JSON-ready projection (omits the raw response objects)."""
        return {
            "requests": self.requests,
            "elapsed_s": round(self.elapsed_s, 6),
            "outcomes": dict(sorted(self.outcomes.items())),
            "served": self.served,
            "shed": self.shed,
            "p50_latency_s": round(self.p50_latency_s, 6),
            "p99_latency_s": round(self.p99_latency_s, 6),
            "served_per_s": round(self.served_per_s, 3),
            "widened": self.widened,
            "peak_depths": list(self.peak_depths),
            "peak_inflight": self.peak_inflight,
            "overload_events": dict(sorted(self.overload_events.items())),
            "accounting_exact": self.accounting_exact,
            "reconciliation": list(self.reconciliation),
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation).

    Load reports take their p50/p99 from it over the served latencies,
    so a reported quantile is an observed latency.  It is also the
    exact-rank reference the bucket-interpolated
    :func:`repro.observability.histogram_quantile` is property-tested
    against: with a few dozen samples the p99 rank is the top one, which
    the histogram path can only place at its bucket's upper bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def outcome_drift(registry: MetricsRegistry, outcomes: Mapping[str, int]) -> list[str]:
    """Each outcome whose ``ecocharge_scheduler_requests_total`` count
    (read from ``SchedulerStats``) differs from the responses actually
    delivered — two independent tallies of "one response per request"."""
    problems: list[str] = []
    for outcome in Outcome:
        counted = registry.sample_value(
            "ecocharge_scheduler_requests_total", {"outcome": outcome.value}
        )
        delivered = float(outcomes.get(outcome.value, 0))
        if counted != delivered:
            problems.append(
                f"ecocharge_scheduler_requests_total{{outcome={outcome.value}}}: "
                f"counted={counted} responses={delivered}"
            )
    return problems


def _priority_for(rng: random.Random, profile: LoadProfile) -> Priority:
    draw = rng.random()
    if draw < profile.background_fraction:
        return Priority.BACKGROUND
    if draw < profile.background_fraction + profile.refresh_fraction:
        return Priority.REFRESH
    return Priority.INTERACTIVE


def _submit_one(
    scheduler: ShardedScheduler,
    trips: Sequence["Trip"],
    rng: random.Random,
    profile: LoadProfile,
) -> None:
    scheduler.submit(
        tenant=f"tenant-{rng.randrange(profile.tenants)}",
        trip=trips[rng.randrange(len(trips))],
        priority=_priority_for(rng, profile),
    )


def run_load(
    scheduler: ShardedScheduler,
    trips: Sequence["Trip"],
    profile: LoadProfile | None = None,
) -> LoadReport:
    """Deterministic load run on the scheduler's ``SimulatedClock``.

    The injector's burst window divides the inter-arrival gaps, so a
    ``burst_multiplier`` of 4 really does deliver 4x the arrivals per
    service tick — the overload the chaos tests assert the tier
    survives.  After the last arrival the service tick keeps running
    (simulated time keeps passing, so queued-too-long requests still
    expire honestly) until every queue is empty.
    """
    profile = profile if profile is not None else LoadProfile()
    if not trips:
        raise ValueError("load generation needs at least one trip")
    clock = scheduler.clock
    advance = getattr(clock, "advance", None)
    if advance is None:
        raise ValueError(
            "run_load needs an advanceable (simulated) clock; "
            "use run_load_threaded for wall-clock runs"
        )
    rng = random.Random(profile.seed)
    injector = scheduler.injector
    start_s = clock.monotonic()
    next_service_s = start_s + profile.service_interval_s

    def service_until(now_s: float) -> None:
        nonlocal next_service_s
        while next_service_s <= now_s:
            for shard_id in range(len(scheduler.shards)):
                scheduler.run_one(shard_id)
            next_service_s += profile.service_interval_s

    for _ in range(profile.requests):
        now_s = clock.monotonic()
        rate = profile.arrival_rate_per_s
        if injector is not None:
            rate *= injector.burst_factor(now_s - start_s)
        gap_s = rng.expovariate(rate)
        advance(gap_s)
        service_until(clock.monotonic())
        _submit_one(scheduler, trips, rng, profile)
    # Tail drain: keep the service cadence (and simulated time) honest
    # until every queue is empty.
    while scheduler.pending:
        advance(profile.service_interval_s)
        service_until(clock.monotonic())
    elapsed_s = clock.monotonic() - start_s
    return _report(scheduler, scheduler.drain_responses(), elapsed_s)


def run_load_threaded(
    scheduler: ShardedScheduler,
    trips: Sequence["Trip"],
    profile: LoadProfile | None = None,
) -> LoadReport:
    """Wall-clock load run with one real worker thread per shard.

    Arrivals are submitted back-to-back (the admission gate, not the
    generator, decides what the tier accepts); ``stop(drain=True)``
    guarantees every admitted request resolves before the report is
    taken.  The burst/slow/stuck chaos hooks still apply — only the
    simulated-time delays become modelling no-ops on a system clock.
    """
    profile = profile if profile is not None else LoadProfile()
    if not trips:
        raise ValueError("load generation needs at least one trip")
    rng = random.Random(profile.seed)
    clock = scheduler.clock
    start_s = clock.monotonic()
    scheduler.start()
    try:
        for _ in range(profile.requests):
            _submit_one(scheduler, trips, rng, profile)
    finally:
        scheduler.stop(drain=True)
    elapsed_s = clock.monotonic() - start_s
    return _report(scheduler, scheduler.drain_responses(), elapsed_s)


def _report(
    scheduler: ShardedScheduler,
    responses: list[RankResponse],
    elapsed_s: float,
) -> LoadReport:
    outcomes: dict[str, int] = {}
    served_latencies: list[float] = []
    for response in responses:
        outcomes[response.outcome.value] = outcomes.get(response.outcome.value, 0) + 1
        if response.outcome.is_served:
            served_latencies.append(response.latency_s)
    served = sum(1 for r in responses if r.outcome.is_served)
    problems = (
        outcome_drift(scheduler.telemetry.registry, outcomes)
        if scheduler.telemetry.enabled
        else []
    )
    return LoadReport(
        requests=scheduler.stats.submitted,
        elapsed_s=elapsed_s,
        outcomes=outcomes,
        p50_latency_s=percentile(served_latencies, 0.5),
        p99_latency_s=percentile(served_latencies, 0.99),
        served_per_s=served / elapsed_s if elapsed_s > 0 else 0.0,
        widened=scheduler.stats.widened,
        peak_depths=scheduler.peak_depths(),
        peak_inflight=scheduler.admission.limiter.peak_inflight,
        overload_events=dict(scheduler.injector.overload_events)
        if scheduler.injector is not None
        else {},
        accounting_exact=scheduler.accounting_ok(),
        reconciliation=tuple(problems),
        responses=tuple(responses),
    )
