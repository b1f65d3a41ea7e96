"""Per-endpoint resilience configuration.

Each of the four provider endpoints gets its own retry policy, breaker
thresholds, and staleness bound, because the providers degrade very
differently: a charger catalog is near-static infrastructure (stale
entries stay useful for hours), while a weather window forecast sours
within its cache slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..validation import require_finite
from .breaker import BreakerConfig
from .retry import RetryPolicy

WEATHER = "weather"
BUSY = "busy"
TRAFFIC = "traffic"
CATALOG = "catalog"

ENDPOINTS = (WEATHER, BUSY, TRAFFIC, CATALOG)


@dataclass(frozen=True, slots=True)
class StalenessPolicy:
    """How far past its TTL a cached response may be served on error.

    ``max_stale_h`` bounds the *age* (time since the entry was stored)
    an error-path serve may use; ``None`` means unbounded — reserved for
    quasi-static data like the charger catalog.
    """

    max_stale_h: float | None = 2.0

    def __post_init__(self) -> None:
        if self.max_stale_h is not None:
            require_finite("max_stale_h", self.max_stale_h, above=0.0)

    def admits(self, age_h: float) -> bool:
        return self.max_stale_h is None or age_h <= self.max_stale_h


@dataclass(frozen=True, slots=True)
class EndpointPolicy:
    """The full resilience stance of one endpoint."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    staleness: StalenessPolicy = field(default_factory=StalenessPolicy)


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Per-endpoint policies plus the seed for retry jitter streams."""

    weather: EndpointPolicy = field(default_factory=EndpointPolicy)
    busy: EndpointPolicy = field(default_factory=EndpointPolicy)
    traffic: EndpointPolicy = field(default_factory=EndpointPolicy)
    catalog: EndpointPolicy = field(
        default_factory=lambda: EndpointPolicy(
            staleness=StalenessPolicy(max_stale_h=None)
        )
    )
    seed: int = 0

    def for_endpoint(self, endpoint: str) -> EndpointPolicy:
        if endpoint not in ENDPOINTS:
            raise KeyError(f"unknown endpoint '{endpoint}' (expected one of {ENDPOINTS})")
        policy: EndpointPolicy = getattr(self, endpoint)
        return policy


#: The default stance used by the EIS when none is supplied.
DEFAULT_RESILIENCE = ResilienceConfig()
