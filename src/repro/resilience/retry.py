"""Retry policy: exponential backoff with jitter under a per-call deadline.

The policy is pure configuration plus a deterministic delay schedule; the
actual retry loop lives in :class:`~repro.resilience.endpoint.ResilientEndpoint`
so attempts, breaker transitions, and health counters stay in one place.

Time here is *simulated* milliseconds: failed-attempt latencies (carried
by the typed errors) and backoff sleeps are charged against
``deadline_ms`` without ever sleeping for real, which keeps chaos tests
fast and exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator

from ..validation import require_finite


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Backoff schedule and budget for one endpoint.

    ``max_attempts`` bounds upstream tries per logical call (1 = no
    retries).  Delay before retry ``i`` (1-based) is
    ``base_delay_ms * multiplier**(i-1)`` capped at ``max_delay_ms``,
    with up to ``jitter`` of the delay randomised away (full-jitter
    style, so synchronized clients de-correlate their retries).
    ``deadline_ms`` caps the *total* simulated time a logical call may
    consume across attempt latencies and backoff sleeps.
    """

    max_attempts: int = 3
    base_delay_ms: float = 50.0
    multiplier: float = 2.0
    max_delay_ms: float = 1000.0
    jitter: float = 0.5
    deadline_ms: float = 4000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        require_finite("base_delay_ms", self.base_delay_ms, at_least=0.0)
        require_finite("multiplier", self.multiplier, at_least=1.0)
        require_finite("max_delay_ms", self.max_delay_ms, at_least=0.0)
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        require_finite("deadline_ms", self.deadline_ms, above=0.0)

    def backoff_ms(self, retry_index: int, rng: Random) -> float:
        """Simulated sleep before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        raw = min(
            self.max_delay_ms, self.base_delay_ms * self.multiplier ** (retry_index - 1)
        )
        if self.jitter == 0.0:
            return raw
        # Full-jitter on the jittered fraction: deterministic under a
        # seeded Random, decorrelated across endpoints.
        fixed = raw * (1.0 - self.jitter)
        return fixed + rng.random() * (raw - fixed)

    def delays_ms(self, rng: Random) -> Iterator[float]:
        """The backoff delays between successive attempts."""
        for retry_index in range(1, self.max_attempts):
            yield self.backoff_ms(retry_index, rng)


#: No retries at all — first failure is final (useful as a baseline).
NO_RETRY = RetryPolicy(max_attempts=1)
