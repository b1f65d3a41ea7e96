"""Load generator: the one arrival and service loop of the serving tier.

Feeds a :class:`~repro.server.scheduling.ShardedScheduler` seeded
arrivals over real fleet trips and returns every response in resolution
order; :func:`repro.simulation.chaos.check` grades them.  Nothing here
is timed: wall-clock serving speed is measured by ``bench/``.

* :func:`run_load` — deterministic, on a ``SimulatedClock``: a
  :class:`LoadProfile`'s :class:`Phase` stretches of Poisson arrivals,
  compressed by the injector's burst factor, against a fixed service
  tick of one request per shard.  When a burst outruns the tick the
  queues fill and brownout engages, and the run replays identically.
* :func:`run_load_threaded` — wall-clock liveness: real worker threads,
  arrivals submitted back-to-back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..server.scheduling import Priority, RankResponse, ShardedScheduler
from ..validation import require_finite

if TYPE_CHECKING:
    from ..network.path import Trip

#: Distinct tenants of a phase unless it says otherwise.
TENANTS = 4

#: Cadence of :func:`run_load`'s ``on_tick`` callback, in simulated seconds.
TICK_S = 1.0

#: How long after its last phase :func:`run_load` keeps ticking while
#: ``on_tick`` still asks for time (the queues drain regardless).
MAX_SETTLE_S = 75.0


@dataclass(frozen=True, slots=True)
class Phase:
    """One stretch of Poisson arrivals."""

    #: Simulated length of the stretch.
    duration_s: float
    #: Base arrival rate; the injector's burst window multiplies it.
    arrival_rate_per_s: float
    #: Distinct tenants, drawn uniformly (``tenant-0``, ``tenant-1``, ...).
    tenants: int = TENANTS
    #: Indices of the trips the arrivals draw from (None: every trip).
    trips: range | None = None

    def __post_init__(self) -> None:
        require_finite("duration_s", self.duration_s, above=0.0)
        require_finite("arrival_rate_per_s", self.arrival_rate_per_s, above=0.0)
        if self.tenants < 1:
            raise ValueError("tenants must be positive")
        if self.trips is not None and not self.trips:
            raise ValueError("a phase needs at least one trip")


@dataclass(frozen=True, slots=True)
class LoadProfile:
    """Shape of one synthetic load run: its phases and request mix."""

    #: The arrival stretches, played back to back.
    phases: tuple[Phase, ...] = (Phase(duration_s=8.0, arrival_rate_per_s=8.0),)
    #: Deterministic-mode service cadence: every ``service_interval_s``
    #: of simulated time, each shard executes one queued request.
    service_interval_s: float = 0.15
    #: Fraction of arrivals submitted as REFRESH priority.
    refresh_fraction: float = 0.4
    #: Fraction submitted as BACKGROUND (the rest are INTERACTIVE).
    background_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a load needs at least one phase")
        require_finite("service_interval_s", self.service_interval_s, above=0.0)
        require_finite("refresh_fraction", self.refresh_fraction, at_least=0.0)
        require_finite("background_fraction", self.background_fraction, at_least=0.0)
        if self.refresh_fraction + self.background_fraction > 1.0:
            raise ValueError("priority fractions must sum to at most 1")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation).

    The exact-rank reference the bucket-interpolated
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
    tenants: int,
    profile: LoadProfile,
) -> None:
    scheduler.submit(
        tenant=f"tenant-{rng.randrange(tenants)}",
        trip=trips[rng.randrange(len(trips))],
        priority=_priority_for(rng, profile),
    )


def run_load(
    scheduler: ShardedScheduler,
    trips: Sequence["Trip"],
    profile: LoadProfile | None = None,
    seed: int = 0,
    on_phase: Callable[[int], None] | None = None,
    on_tick: Callable[[ShardedScheduler], bool] | None = None,
) -> list[RankResponse]:
    """Deterministic load run on the scheduler's ``SimulatedClock``.

    ``on_phase(index)`` runs as each phase starts.  ``on_tick(scheduler)``
    runs every :data:`TICK_S`, after a service tick due at the same time,
    and answers whether it still needs time.  After the last phase the
    service tick keeps running (so queued-too-long requests still expire
    honestly) until every queue is empty, and for at most
    :data:`MAX_SETTLE_S` more while ``on_tick`` asks for it.
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
    rng = random.Random(seed)
    injector = scheduler.injector
    start_s = clock.monotonic()
    next_service_s = start_s + profile.service_interval_s
    next_tick_s = start_s + TICK_S if on_tick is not None else math.inf
    settling = False

    def advance_to(target_s: float) -> None:
        delta = target_s - clock.monotonic()
        if delta > 0:
            advance(delta)

    def pump(until_s: float) -> None:
        """Fire every service and evaluation tick due by ``until_s`` in
        time order, then move the clock to ``until_s``."""
        nonlocal next_service_s, next_tick_s, settling
        while min(next_service_s, next_tick_s) <= until_s:
            if next_service_s <= next_tick_s:
                advance_to(next_service_s)
                for shard_id in range(len(scheduler.shards)):
                    scheduler.run_one(shard_id)
                next_service_s += profile.service_interval_s
            else:
                advance_to(next_tick_s)
                settling = on_tick(scheduler)
                next_tick_s += TICK_S
        advance_to(until_s)

    end_s = start_s
    for index, phase in enumerate(profile.phases):
        if on_phase is not None:
            on_phase(index)
        end_s += phase.duration_s
        pool = trips if phase.trips is None else [trips[i] for i in phase.trips]
        while True:
            now_s = clock.monotonic()
            rate = phase.arrival_rate_per_s
            if injector is not None:
                rate *= injector.burst_factor(now_s - start_s)
            arrival_s = now_s + rng.expovariate(rate)
            if arrival_s >= end_s:
                pump(end_s)
                break
            pump(arrival_s)
            _submit_one(scheduler, pool, rng, phase.tenants, profile)
    while scheduler.pending or (settling and clock.monotonic() < end_s + MAX_SETTLE_S):
        pump(min(next_service_s, next_tick_s))
    return scheduler.drain_responses()


def run_load_threaded(
    scheduler: ShardedScheduler,
    trips: Sequence["Trip"],
    requests: int,
    seed: int = 0,
) -> list[RankResponse]:
    """Wall-clock load run with one real worker thread per shard:
    ``requests`` arrivals back-to-back in the default mix, and every
    admitted one resolved (``stop(drain=True)``) before the responses
    are taken.  The chaos hooks' simulated delays are no-ops here."""
    if requests < 1:
        raise ValueError("requests must be positive")
    if not trips:
        raise ValueError("load generation needs at least one trip")
    rng = random.Random(seed)
    profile = LoadProfile()
    scheduler.start()
    try:
        for _ in range(requests):
            _submit_one(scheduler, trips, rng, TENANTS, profile)
    finally:
        scheduler.stop(drain=True)
    return scheduler.drain_responses()

