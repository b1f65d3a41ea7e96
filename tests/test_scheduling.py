"""The overload-safe serving tier: admission, queues, brownout, scheduler.

Three layers of evidence, all on deterministic clocks:

* hypothesis property/stateful tests of the admission arithmetic
  (token-bucket refill, deadline countdown) under ``SimulatedClock``;
* unit tests of the bounded queue's shed-exactly-one invariant and the
  brownout ladder's interval-soundness;
* a seeded 4x burst-overload chaos run asserting the tier's global
  contract: queues never exceed capacity, deadline-expired work is
  never served as fresh, every served Offering Table stays
  interval-sound (brownout widens, never lies), and the accounting
  reconciles exactly against the metrics registry.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.ecocharge import EcoChargeConfig
from repro.core.environment import ChargingEnvironment
from repro.observability.clock import SYSTEM_CLOCK, SimulatedClock
from repro.observability.deadline import NEVER_EXPIRES, Deadline, DeadlineExpired
from repro.observability.recorder import Telemetry
from repro.resilience import FaultInjector, OverloadChaos
from repro.server.scheduling import (
    AdmissionController,
    BoundedShardQueue,
    BrownoutController,
    BrownoutLevel,
    ConcurrencyLimiter,
    Outcome,
    Priority,
    RankRequest,
    SchedulerConfig,
    ShardedScheduler,
    TokenBucket,
    widen_table,
)
from repro.simulation.load import LoadProfile, Phase, percentile, run_load, run_load_threaded


def _clock() -> SimulatedClock:
    return SimulatedClock(start_s=0.0, tick_s=0.0)


def _request(
    clock,
    request_id: int = 1,
    priority: Priority = Priority.INTERACTIVE,
    budget_s: float = 60.0,
) -> RankRequest:
    """A queue-level request; the queue never dereferences the trip."""
    return RankRequest(
        request_id=request_id,
        tenant="t",
        trip=None,
        deadline=Deadline(clock, budget_s),
        priority=priority,
        submitted_s=clock.monotonic(),
    )


# ---------------------------------------------------------------------------
# token bucket — hypothesis properties + stateful machine
# ---------------------------------------------------------------------------


class TestTokenBucket:
    @given(
        rate=st.floats(0.1, 50.0),
        burst=st.floats(1.0, 20.0),
        gaps=st.lists(st.floats(0.0, 5.0), max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_burst_and_conserves_tokens(self, rate, burst, gaps):
        clock = _clock()
        bucket = TokenBucket(rate, burst, clock)
        granted = 0
        elapsed = 0.0
        for gap in gaps:
            clock.advance(gap)
            elapsed += gap
            assert bucket.available <= burst + 1e-9
            if bucket.try_acquire():
                granted += 1
        # Conservation: nothing granted beyond the initial burst plus
        # what the refill arithmetic could have accrued.
        assert granted <= burst + elapsed * rate + 1e-6

    @given(
        rate=st.floats(0.1, 50.0),
        burst=st.floats(1.0, 20.0),
        idle_s=st.floats(0.0, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_refill_is_proportional_to_elapsed_time(self, rate, burst, idle_s):
        clock = _clock()
        bucket = TokenBucket(rate, burst, clock)
        while bucket.try_acquire():
            pass
        leftover = bucket.available
        assert leftover < 1.0 + 1e-9
        clock.advance(idle_s)
        expected = min(burst, leftover + idle_s * rate)
        assert bucket.available == pytest.approx(expected, abs=1e-9)

    def test_starts_full_and_rejects_when_empty(self):
        clock = _clock()
        bucket = TokenBucket(rate_per_s=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.5)  # one token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_validates_arguments(self):
        clock = _clock()
        with pytest.raises(ValueError):
            TokenBucket(0.0, 4.0, clock)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0.5, clock)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 4.0, clock).try_acquire(0.0)


class TokenBucketMachine(RuleBasedStateMachine):
    """Random advance/acquire interleavings against the analytic bound."""

    RATE = 4.0
    BURST = 8.0

    def __init__(self):
        super().__init__()
        self.clock = _clock()
        self.bucket = TokenBucket(self.RATE, self.BURST, self.clock)
        self.granted = 0
        self.elapsed = 0.0

    @rule(gap=st.floats(0.0, 2.0))
    def advance(self, gap):
        self.clock.advance(gap)
        self.elapsed += gap

    @rule()
    def acquire(self):
        if self.bucket.try_acquire():
            self.granted += 1

    @invariant()
    def conservation(self):
        assert self.bucket.available <= self.BURST + 1e-9
        assert self.granted <= self.BURST + self.elapsed * self.RATE + 1e-6


TestTokenBucketMachine = TokenBucketMachine.TestCase
TestTokenBucketMachine.settings = settings(max_examples=25, deadline=None)


# ---------------------------------------------------------------------------
# deadline arithmetic
# ---------------------------------------------------------------------------


class TestDeadline:
    @given(
        budget_s=st.floats(0.001, 100.0),
        steps=st.lists(st.floats(0.0, 10.0), max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_countdown_matches_advanced_time(self, budget_s, steps):
        clock = _clock()
        deadline = Deadline(clock, budget_s)
        spent = 0.0
        for step in steps:
            clock.advance(step)
            spent += step
            remaining = deadline.remaining_s()
            assert remaining == pytest.approx(budget_s - spent, abs=1e-9)
            assert deadline.expired == (remaining < 0.0)
            if deadline.expired:
                with pytest.raises(DeadlineExpired) as err:
                    deadline.checkpoint("test")
                assert err.value.where == "test"
                assert err.value.overrun_s == pytest.approx(-remaining, abs=1e-9)
            else:
                deadline.checkpoint("test")  # must not raise

    def test_infinite_budget_never_expires(self):
        clock = _clock()
        deadline = Deadline(clock, math.inf)
        clock.advance(1e9)
        assert deadline.remaining_s() == math.inf
        assert not deadline.expired
        deadline.checkpoint("forever")

    def test_never_expires_token_is_inert(self):
        NEVER_EXPIRES.checkpoint("anywhere")

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(_clock(), 0.0)


# ---------------------------------------------------------------------------
# bounded queue — shed exactly one, never exceed capacity
# ---------------------------------------------------------------------------


class TestBoundedShardQueue:
    def test_depth_never_exceeds_capacity(self):
        clock = _clock()
        queue = BoundedShardQueue(capacity=3)
        shed = 0
        for i in range(10):
            if queue.offer(_request(clock, i, Priority.INTERACTIVE)) is not None:
                shed += 1
            assert len(queue) <= 3
        assert queue.peak_depth == 3
        assert shed == 7  # exactly one request leaves per overflowing offer

    def test_displaces_the_lowest_priority_latest_arrival(self):
        clock = _clock()
        queue = BoundedShardQueue(capacity=3)
        early_bg = _request(clock, 1, Priority.BACKGROUND)
        late_bg = _request(clock, 2, Priority.BACKGROUND)
        refresh = _request(clock, 3, Priority.REFRESH)
        for request in (early_bg, late_bg, refresh):
            assert queue.offer(request) is None
        newcomer = _request(clock, 4, Priority.INTERACTIVE)
        assert queue.offer(newcomer) is late_bg
        assert len(queue) == 3

    def test_refuses_newcomer_when_everything_outranks_it(self):
        clock = _clock()
        queue = BoundedShardQueue(capacity=2)
        queue.offer(_request(clock, 1, Priority.INTERACTIVE))
        queue.offer(_request(clock, 2, Priority.INTERACTIVE))
        loser = _request(clock, 3, Priority.BACKGROUND)
        assert queue.offer(loser) is loser
        # Equal priority: the resident incumbents win too (FIFO fairness).
        tie = _request(clock, 4, Priority.INTERACTIVE)
        assert queue.offer(tie) is tie

    def test_pop_orders_by_priority_then_deadline_then_fifo(self):
        clock = _clock()
        queue = BoundedShardQueue(capacity=8)
        relaxed = _request(clock, 1, Priority.INTERACTIVE, budget_s=60.0)
        urgent = _request(clock, 2, Priority.INTERACTIVE, budget_s=5.0)
        refresh_a = _request(clock, 3, Priority.REFRESH, budget_s=30.0)
        refresh_b = _request(clock, 4, Priority.REFRESH, budget_s=30.0)
        background = _request(clock, 5, Priority.BACKGROUND)
        for request in (relaxed, urgent, refresh_a, refresh_b, background):
            queue.offer(request)
        order = [queue.pop().request_id for _ in range(5)]
        assert order == [2, 1, 3, 4, 5]
        assert queue.pop() is None

    def test_poll_requires_a_positive_timeout(self):
        queue = BoundedShardQueue(capacity=1)
        with pytest.raises(ValueError):
            queue.poll(0.0)
        assert queue.poll(0.01) is None  # brief real wait, then gives up

    def test_drain_empties_best_first(self):
        clock = _clock()
        queue = BoundedShardQueue(capacity=4)
        queue.offer(_request(clock, 1, Priority.BACKGROUND))
        queue.offer(_request(clock, 2, Priority.INTERACTIVE))
        drained = queue.drain()
        assert [r.request_id for r in drained] == [2, 1]
        assert len(queue) == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BoundedShardQueue(0)


# ---------------------------------------------------------------------------
# admission controller
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_rate_is_checked_before_capacity(self):
        clock = _clock()
        admission = AdmissionController(
            clock, rate_per_s=1.0, burst=1.0, max_inflight=1
        )
        assert admission.try_admit("a") is None
        # a's bucket is empty: rejected on its own budget even though the
        # shared capacity is also exhausted.
        assert admission.try_admit("a") == "rate"
        # b still has tokens, so it reaches — and hits — the global cap.
        assert admission.try_admit("b") == "capacity"
        # A capacity rejection refunds b's token: the global overload must
        # not also drain the well-behaved tenant's rate budget.
        assert admission.bucket_for("b").available == pytest.approx(1.0)
        admission.release()
        assert admission.try_admit("b") is None
        admission.release()
        clock.advance(1.0)
        assert admission.try_admit("a") is None
        assert admission.tenants == ("a", "b")

    def test_limiter_tracks_peak_and_balances(self):
        limiter = ConcurrencyLimiter(max_inflight=2)
        assert limiter.try_enter() and limiter.try_enter()
        assert not limiter.try_enter()
        limiter.exit()
        assert limiter.try_enter()
        assert limiter.peak_inflight == 2
        limiter.exit()
        limiter.exit()
        with pytest.raises(RuntimeError):
            limiter.exit()


# ---------------------------------------------------------------------------
# brownout ladder
# ---------------------------------------------------------------------------


class TestBrownout:
    def test_level_thresholds(self):
        brownout = BrownoutController()  # 0.5 / 0.75 / 0.9
        levels = {
            0: BrownoutLevel.NORMAL,
            7: BrownoutLevel.NORMAL,
            8: BrownoutLevel.SERVE_STALE,
            11: BrownoutLevel.SERVE_STALE,
            12: BrownoutLevel.WIDEN,
            14: BrownoutLevel.WIDEN,
            15: BrownoutLevel.SHED_REFRESH,
            16: BrownoutLevel.SHED_REFRESH,
        }
        for depth, expected in levels.items():
            assert brownout.level_for(depth, 16) is expected

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            BrownoutController(serve_stale_at=0.8, widen_at=0.5)
        with pytest.raises(ValueError):
            BrownoutController(serve_stale_at=0.0)
        with pytest.raises(ValueError):
            BrownoutController().level_for(1, 0)
        for factor in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="widen_factor"):
                BrownoutController(widen_factor=factor)


# ---------------------------------------------------------------------------
# scheduler — deterministic integration on the simulated clock
# ---------------------------------------------------------------------------


CHAOS = OverloadChaos(
    burst_multiplier=4.0,
    burst_start_s=0.2,
    burst_duration_s=5.0,
    slow_shard=1,
    slow_delay_s=0.2,
    stuck_shard=0,
    stuck_after=3,
)


def _scheduler(
    network,
    registry,
    config: SchedulerConfig,
    injector: FaultInjector | None = None,
    telemetry: Telemetry | None = None,
) -> ShardedScheduler:
    telemetry = (
        telemetry if telemetry is not None else Telemetry.simulated(tick_s=0.0)
    )

    def factory() -> ChargingEnvironment:
        return ChargingEnvironment(network, registry, seed=5)

    return ShardedScheduler(
        factory,
        config,
        EcoChargeConfig(k=3, segment_km=6.0),
        clock=telemetry.clock,
        telemetry=telemetry,
        injector=injector,
    )


@pytest.fixture(scope="module")
def trips(small_network):
    from repro.network.path import Trip

    nodes = sorted(small_network.node_ids())
    pairs = [
        (nodes[0], nodes[-1]),
        (nodes[1], nodes[-2]),
        (nodes[2], nodes[-3]),
        (nodes[len(nodes) // 2], nodes[-1]),
    ]
    return [
        Trip.route(small_network, a, b, departure_time_h=9.0 + i)
        for i, (a, b) in enumerate(pairs)
    ]


@pytest.fixture(scope="module")
def fresh_tables(small_network, small_registry, trips):
    """Unwidened ground truth: one completed ranking's Offering Tables."""
    scheduler = _scheduler(
        small_network, small_registry, SchedulerConfig(shards=1, queue_capacity=8)
    )
    scheduler.submit("tenant", trips[0])
    scheduler.drain()
    (response,) = scheduler.drain_responses()
    assert response.outcome is Outcome.COMPLETED
    assert response.tables
    return response.tables


def _assert_interval_sound(tables):
    for table in tables:
        for entry in table.entries:
            for component in (entry.sustainable, entry.availability, entry.derouting):
                assert component.within_bounds(0.0, 1.0, tol=1e-9)
        assert [e.rank for e in table.entries] == list(range(1, len(table) + 1))


class TestWidening:
    def test_widened_table_contains_the_original(self, fresh_tables):
        weights = EcoChargeConfig().weights
        for table in fresh_tables:
            widened = widen_table(table, factor=0.5, weights=weights)
            assert len(widened) == len(table)
            for original, wide in zip(table.entries, widened.entries):
                assert wide.charger_id == original.charger_id
                assert wide.eta_h == original.eta_h
                for before, after in (
                    (original.sustainable, wide.sustainable),
                    (original.availability, wide.availability),
                    (original.derouting, wide.derouting),
                ):
                    assert after.lo <= before.lo + 1e-12
                    assert after.hi >= before.hi - 1e-12
            _assert_interval_sound([widened])

    def test_zero_factor_is_identity_on_components(self, fresh_tables):
        weights = EcoChargeConfig().weights
        table = fresh_tables[0]
        widened = widen_table(table, factor=0.0, weights=weights)
        for original, wide in zip(table.entries, widened.entries):
            assert wide.sustainable == original.sustainable
            assert wide.availability == original.availability
            assert wide.derouting == original.derouting


class TestSchedulerPath:
    def test_happy_path_completes_with_exact_accounting(
        self, small_network, small_registry, trips
    ):
        scheduler = _scheduler(
            small_network, small_registry, SchedulerConfig(shards=2, queue_capacity=8)
        )
        for i, trip in enumerate(trips):
            scheduler.submit(f"tenant-{i}", trip)
        executed = scheduler.drain()
        responses = scheduler.drain_responses()
        assert executed == len(trips) == len(responses)
        assert all(r.outcome is Outcome.COMPLETED for r in responses)
        assert all(r.tables for r in responses)
        _assert_interval_sound([t for r in responses for t in r.tables])
        assert scheduler.accounting_ok()
        assert scheduler.stats.completed == len(trips)

    def test_rate_and_capacity_rejections(self, small_network, small_registry, trips):
        scheduler = _scheduler(
            small_network,
            small_registry,
            SchedulerConfig(
                shards=1,
                queue_capacity=8,
                max_inflight=2,
                tenant_rate_per_s=1.0,
                tenant_burst=1.0,
            ),
        )
        scheduler.submit("hammer", trips[0])
        scheduler.submit("hammer", trips[0])  # bucket empty -> rate
        scheduler.submit("other", trips[1])
        scheduler.submit("third", trips[2])  # inflight cap -> capacity
        outcomes = [r.outcome for r in scheduler.drain_responses()]
        assert outcomes == [Outcome.REJECTED_RATE, Outcome.REJECTED_CAPACITY]
        assert scheduler.stats.rejected_rate == 1
        assert scheduler.stats.rejected_capacity == 1

    def test_unexpected_error_resolves_as_failed(
        self, small_network, small_registry, trips, monkeypatch
    ):
        """A bug below the scheduler must not strand the request: it
        resolves as FAILED, releases the admission slot, and keeps the
        exact-accounting invariant (a worker thread would otherwise die
        silently and leak its inflight slot forever)."""
        scheduler = _scheduler(
            small_network, small_registry, SchedulerConfig(shards=1, queue_capacity=8)
        )

        def boom(shard, request):
            raise RuntimeError("ranker bug")

        monkeypatch.setattr(scheduler, "_execute", boom)
        scheduler.submit("tenant", trips[0])
        scheduler.drain()
        (response,) = scheduler.drain_responses()
        assert response.outcome is Outcome.FAILED
        assert "RuntimeError" in (response.detail or "")
        assert scheduler.stats.failed == 1
        assert scheduler.accounting_ok()
        assert scheduler.admission.limiter.inflight == 0
        scheduler.drain()
        assert scheduler.accounting_ok()

    def test_expired_request_is_shed_never_served_fresh(
        self, small_network, small_registry, trips
    ):
        scheduler = _scheduler(
            small_network, small_registry, SchedulerConfig(shards=1, queue_capacity=8)
        )
        scheduler.submit("tenant", trips[0], budget_s=0.5)
        scheduler.clock.advance(1.0)  # queued past its whole budget
        scheduler.drain()
        (response,) = scheduler.drain_responses()
        assert response.outcome is Outcome.SHED_DEADLINE
        assert response.tables == ()
        assert scheduler.stats.sheds_deadline == 1

    def test_brownout_serves_stale_then_widens_then_sheds_refresh(
        self, small_network, small_registry, trips
    ):
        scheduler = _scheduler(
            small_network, small_registry, SchedulerConfig(shards=1, queue_capacity=4)
        )
        # Prime the shard's response cache with a fresh answer.
        scheduler.submit("tenant", trips[0])
        scheduler.drain()
        (fresh,) = scheduler.drain_responses()
        assert fresh.outcome is Outcome.COMPLETED
        # Fill the queue to capacity: depth 4/4 puts admission at
        # SHED_REFRESH, so a REFRESH submission is dropped outright...
        for _ in range(4):
            scheduler.submit("tenant", trips[0])
        scheduler.submit("tenant", trips[0], priority=Priority.REFRESH)
        (browned,) = scheduler.drain_responses()
        assert browned.outcome is Outcome.SHED_BROWNOUT
        # ...and execution at depth 3/4 sits at WIDEN: the queued work is
        # answered stale-and-widened from the cache, marked, never lied.
        assert scheduler.run_one(0)
        (stale,) = scheduler.drain_responses()
        assert stale.outcome is Outcome.STALE
        assert stale.widened and stale.brownout >= int(BrownoutLevel.WIDEN)
        assert stale.stale_age_h is not None
        assert stale.stale_age_h <= scheduler.config.max_stale_h
        _assert_interval_sound(stale.tables)
        # The widened stale answer contains the fresh truth it came from.
        for fresh_table, stale_table in zip(fresh.tables, stale.tables):
            for original, wide in zip(fresh_table.entries, stale_table.entries):
                assert wide.sustainable.lo <= original.sustainable.lo + 1e-12
                assert wide.sustainable.hi >= original.sustainable.hi - 1e-12
        scheduler.drain()
        assert scheduler.accounting_ok()

    def test_full_queue_displaces_lower_priority_work(
        self, small_network, small_registry, trips
    ):
        scheduler = _scheduler(
            small_network,
            small_registry,
            SchedulerConfig(shards=1, queue_capacity=2, shed_refresh_at=1.0),
        )
        scheduler.submit("tenant", trips[0], priority=Priority.BACKGROUND)
        scheduler.submit("tenant", trips[0], priority=Priority.BACKGROUND)
        scheduler.submit("tenant", trips[0], priority=Priority.INTERACTIVE)
        (victim,) = scheduler.drain_responses()
        assert victim.outcome is Outcome.SHED_QUEUE
        assert victim.request.priority is Priority.BACKGROUND
        assert scheduler.pending == 2
        scheduler.drain()
        assert scheduler.accounting_ok()

    def test_rankers_are_keyed_by_the_whole_config(self, small_network, small_registry):
        shard = _scheduler(small_network, small_registry, SchedulerConfig(shards=1)).shards[0]
        plain = EcoChargeConfig(k=3)
        limited = EcoChargeConfig(k=3, cache_pool_limit=6, cache_ttl_h=0.1)
        assert shard.ranker_for(plain) is shard.ranker_for(EcoChargeConfig(k=3))
        ranker = shard.ranker_for(limited)
        assert ranker is not shard.ranker_for(plain)
        assert ranker.config == limited


# ---------------------------------------------------------------------------
# the burst-overload chaos run (acceptance: ISSUE.md)
# ---------------------------------------------------------------------------


def _chaos_run(small_network, small_registry, trips):
    telemetry = Telemetry.simulated(tick_s=0.0)
    scheduler = _scheduler(
        small_network,
        small_registry,
        SchedulerConfig(
            shards=2,
            queue_capacity=4,
            max_inflight=16,
            deadline_budget_s=2.0,
            tenant_rate_per_s=6.0,
            tenant_burst=8.0,
        ),
        injector=FaultInjector(seed=3, overload=CHAOS),
        telemetry=telemetry,
    )
    # 27 arrivals: each slow dispatch and each stuck worker's burnt
    # budget takes simulated time from the phase.
    responses = run_load(
        scheduler,
        trips,
        LoadProfile(phases=(Phase(duration_s=5.0, arrival_rate_per_s=24.0),)),
        seed=11,
    )
    return scheduler, responses


def _outcomes(responses) -> Counter:
    return Counter(response.outcome.value for response in responses)


class TestBurstOverloadChaos:
    def test_overload_contract_holds_under_seeded_burst(
        self, small_network, small_registry, trips
    ):
        scheduler, responses = _chaos_run(small_network, small_registry, trips)
        budget_s = scheduler.config.deadline_budget_s
        outcomes = _outcomes(responses)
        # The burst actually fired and actually hurt.
        assert scheduler.injector.overload_events.get("burst", 0) > 0
        assert any(name.startswith(("shed-", "rejected-", "stale")) for name in outcomes)
        # 1. No unbounded queue growth: bounded queues held their line.
        assert all(depth <= 4 for depth in scheduler.peak_depths())
        assert scheduler.admission.limiter.peak_inflight <= 16
        # 2. Zero deadline-expired responses served as fresh: a COMPLETED
        #    response passed its serve-time checkpoint, so its latency
        #    cannot exceed the budget.
        for response in responses:
            if response.outcome is Outcome.COMPLETED:
                assert response.latency_s <= budget_s + 1e-9
            if response.outcome is Outcome.STALE:
                assert response.stale_age_h is not None
                assert response.stale_age_h <= scheduler.config.max_stale_h
        # 3. Every served Offering Table is interval-sound, widened or not.
        _assert_interval_sound(
            [t for r in responses if r.outcome.is_served for t in r.tables]
        )
        # 4. The accounting reconciles exactly: one response per request,
        #    stats == registry, native counters == response counts.
        assert scheduler.accounting_ok()
        for outcome in Outcome:
            counted = scheduler.telemetry.registry.sample_value(
                "ecocharge_scheduler_requests_total", {"outcome": outcome.value}
            )
            assert counted == outcomes[outcome.value], outcome
        assert len(responses) == scheduler.stats.submitted >= 24

    def test_chaos_run_replays_identically(self, small_network, small_registry, trips):
        first_scheduler, first = _chaos_run(small_network, small_registry, trips)
        second_scheduler, second = _chaos_run(small_network, small_registry, trips)
        assert _outcomes(first) == _outcomes(second)
        assert first_scheduler.peak_depths() == second_scheduler.peak_depths()
        assert (
            first_scheduler.injector.overload_events
            == second_scheduler.injector.overload_events
        )
        assert [(r.outcome, r.latency_s) for r in first] == [
            (r.outcome, r.latency_s) for r in second
        ]

    def test_nan_rate_is_refused_before_the_run_starts(
        self, small_network, small_registry, trips
    ):
        # Either NaN used to make run_load loop forever.
        scheduler = _scheduler(small_network, small_registry, SchedulerConfig(shards=1))
        with pytest.raises(ValueError, match="arrival_rate_per_s"):
            run_load(scheduler, trips, LoadProfile(phases=(Phase(1.0, math.nan),)))
        with pytest.raises(ValueError, match="burst_multiplier"):
            run_load(
                _scheduler(
                    small_network,
                    small_registry,
                    SchedulerConfig(shards=1),
                    injector=FaultInjector(overload=OverloadChaos(burst_multiplier=math.nan)),
                ),
                trips,
            )
        assert scheduler.stats.submitted == 0


# ---------------------------------------------------------------------------
# threaded mode — liveness and exact accounting under real races
# ---------------------------------------------------------------------------


class TestThreadedMode:
    def test_threaded_run_resolves_everything_exactly_once(
        self, small_network, small_registry, trips
    ):
        scheduler = _scheduler(
            small_network,
            small_registry,
            SchedulerConfig(
                shards=2,
                queue_capacity=16,
                max_inflight=64,
                deadline_budget_s=300.0,
                tenant_rate_per_s=10_000.0,
                tenant_burst=64.0,
            ),
            telemetry=Telemetry(SYSTEM_CLOCK, enabled=False),
        )
        responses = run_load_threaded(scheduler, trips, requests=8, seed=0)
        assert scheduler.stats.submitted == 8
        assert len(responses) == 8
        assert scheduler.accounting_ok()
        assert scheduler.pending == 0

    def test_start_twice_is_an_error(self, small_network, small_registry):
        scheduler = _scheduler(
            small_network, small_registry, SchedulerConfig(shards=1, queue_capacity=2)
        )
        scheduler.start()
        try:
            with pytest.raises(RuntimeError):
                scheduler.start()
        finally:
            scheduler.stop()


# ---------------------------------------------------------------------------
# load arithmetic and profile validation
# ---------------------------------------------------------------------------


class TestPercentile:
    def test_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile(values, 0.5) == 0.2
        assert percentile(values, 0.99) == 0.4
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LoadProfile(phases=())
        with pytest.raises(ValueError):
            Phase(duration_s=1.0, arrival_rate_per_s=1.0, tenants=0)
        with pytest.raises(ValueError):
            Phase(duration_s=1.0, arrival_rate_per_s=1.0, trips=range(0))
        with pytest.raises(ValueError):
            LoadProfile(refresh_fraction=0.8, background_fraction=0.4)
        with pytest.raises(ValueError):
            LoadProfile(refresh_fraction=1.5, background_fraction=-0.5)
