"""Per-endpoint circuit breaker over simulated clock time.

Standard three-state machine:

* **CLOSED** — calls flow; ``failure_threshold`` *consecutive* failures
  trip the breaker.
* **OPEN** — calls are rejected locally (no upstream attempt) until
  ``cooldown_h`` of simulated time has passed.
* **HALF_OPEN** — a limited number of probe calls are admitted;
  ``close_after`` consecutive probe successes close the breaker, any
  probe failure re-opens it (with a fresh cooldown).

The breaker runs on the simulation clock (``now_h`` hours), not wall
time, so chaos scenarios are deterministic and breaker recovery composes
with scheduled outage windows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..validation import require_finite


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Trip/recovery thresholds for one endpoint's breaker."""

    failure_threshold: int = 5
    cooldown_h: float = 0.25
    close_after: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        require_finite("cooldown_h", self.cooldown_h, above=0.0)
        if self.close_after < 1:
            raise ValueError("close_after must be at least 1")


class CircuitBreaker:
    """One endpoint's breaker; all transitions take the simulated clock."""

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config if config is not None else BreakerConfig()
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.half_open_successes = 0
        self.opened_at_h: float | None = None
        self.times_opened = 0
        self.rejections = 0

    def allow(self, now_h: float) -> bool:
        """Whether a call may go upstream at ``now_h``.

        An OPEN breaker whose cooldown has elapsed transitions to
        HALF_OPEN and admits the call as a probe.  Rejections are
        counted here — the caller must not contact the provider after a
        ``False``.
        """
        if self.state is BreakerState.OPEN:
            assert self.opened_at_h is not None
            if now_h - self.opened_at_h >= self.config.cooldown_h:
                self.state = BreakerState.HALF_OPEN
                self.half_open_successes = 0
            else:
                self.rejections += 1
                return False
        return True

    def record_success(self, now_h: float) -> None:
        """A call (or probe) completed successfully at ``now_h``."""
        if self.state is BreakerState.HALF_OPEN:
            self.half_open_successes += 1
            if self.half_open_successes >= self.config.close_after:
                self.state = BreakerState.CLOSED
                self.consecutive_failures = 0
        else:
            self.consecutive_failures = 0

    def record_failure(self, now_h: float) -> None:
        """A call (or probe) failed at ``now_h``."""
        if self.state is BreakerState.HALF_OPEN:
            self._open(now_h)
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.config.failure_threshold:
            self._open(now_h)

    def _open(self, now_h: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at_h = now_h
        self.times_opened += 1
        self.consecutive_failures = 0
        self.half_open_successes = 0
