"""Model-based (stateful) testing of the dynamic cache.

Hypothesis drives random sequences of store/lookup/advance operations
against :class:`DynamicCache` while a simple reference model predicts
hit/miss outcomes; any divergence is a cache bug.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.caching import CachedSolution, DynamicCache
from repro.interval_array import ComponentArrays
from repro.spatial.geometry import Point

RANGE_KM = 5.0
TTL_H = 1.0


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = DynamicCache(range_km=RANGE_KM, ttl_h=TTL_H)
        self.clock = 10.0
        self.model_origin: Point | None = None
        self.model_stored_at: float | None = None
        self.expected_hits = 0
        self.expected_misses = 0

    @rule(x=st.floats(0, 40), y=st.floats(0, 40))
    def store(self, x, y):
        origin = Point(x, y)
        self.cache.store(
            CachedSolution(
                segment_index=0,
                origin=origin,
                generated_at_h=self.clock,
                eta_h=self.clock,
                radius_km=50.0,
                pool=(),
                components=ComponentArrays.from_scores(()),
            )
        )
        self.model_origin = origin
        self.model_stored_at = self.clock

    @rule(dt=st.floats(0.01, 0.6))
    def advance(self, dt):
        self.clock += dt

    @rule(x=st.floats(0, 40), y=st.floats(0, 40))
    def lookup(self, x, y):
        probe = Point(x, y)
        result = self.cache.lookup(probe, now_h=self.clock, epoch=0)
        fresh = (
            self.model_stored_at is not None
            and self.clock - self.model_stored_at <= TTL_H
        )
        near = (
            self.model_origin is not None
            and probe.distance_to(self.model_origin) <= RANGE_KM
        )
        if fresh and near:
            self.expected_hits += 1
            assert result is not None
        else:
            self.expected_misses += 1
            assert result is None
            if self.model_stored_at is not None and not fresh:
                # Expiry evicts the entry in both model and implementation.
                self.model_origin = None
                self.model_stored_at = None

    @invariant()
    def stats_match_model(self):
        assert self.cache.stats.hits == self.expected_hits
        assert self.cache.stats.misses == self.expected_misses


CacheMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestDynamicCacheStateful = CacheMachine.TestCase
