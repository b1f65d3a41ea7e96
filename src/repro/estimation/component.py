"""Estimated Component (EC) abstraction.

An EC is "a function that can have a fuzzy value based on some estimates"
(Section I): the value is an :class:`~repro.intervals.Interval` whose
width reflects forecast confidence.  This module defines the common
horizon-dependent confidence model quoted by the paper for GFS/ECMWF
weather products — 95-96 % accuracy up to 12 hours out, 85-95 % up to
three days — and the small protocol every estimator implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..intervals import Interval

HOURS_12 = 12.0
HOURS_3_DAYS = 72.0

@dataclass(frozen=True, slots=True)
class ForecastConfidence:
    """Piecewise-linear forecast accuracy as a function of horizon.

    ``accuracy(h)`` is interpreted as the probability mass captured by the
    estimate; the interval half-width applied to a normalised quantity is
    ``1 - accuracy``.  Defaults follow the paper's quoted model figures.
    """

    near_accuracy: float = 0.955  # up to 12 hours (95-96 %)
    far_accuracy: float = 0.90  # at 3 days (85-95 %)
    floor_accuracy: float = 0.75  # beyond 3 days, degrade toward this

    def __post_init__(self) -> None:
        for value in (self.near_accuracy, self.far_accuracy, self.floor_accuracy):
            if not 0.0 < value <= 1.0:
                raise ValueError("accuracies must be in (0, 1]")
        if not self.floor_accuracy <= self.far_accuracy <= self.near_accuracy:
            raise ValueError("accuracy must be non-increasing with horizon")

    def accuracy(self, horizon_h: float) -> float:
        """Forecast accuracy for a prediction ``horizon_h`` hours out."""
        horizon = max(0.0, horizon_h)
        if horizon <= HOURS_12:
            return self.near_accuracy
        if horizon <= HOURS_3_DAYS:
            frac = (horizon - HOURS_12) / (HOURS_3_DAYS - HOURS_12)
            return self.near_accuracy + frac * (self.far_accuracy - self.near_accuracy)
        # Exponential-free long tail: linear decay over the next week,
        # clipped at the floor.
        frac = min(1.0, (horizon - HOURS_3_DAYS) / (7 * 24.0))
        return max(
            self.floor_accuracy,
            self.far_accuracy + frac * (self.floor_accuracy - self.far_accuracy),
        )

    def half_width(self, horizon_h: float) -> float:
        """Interval half-width for a unit-normalised estimated quantity."""
        return 1.0 - self.accuracy(horizon_h)

    def interval_around(
        self, center: float, horizon_h: float, lo: float = 0.0, hi: float = 1.0
    ) -> Interval:
        """Symmetric horizon-widened interval around a normalised value,
        clamped into the admissible range ``[lo, hi]``."""
        return Interval.around(center, self.half_width(horizon_h)).clamp(lo, hi)

    # -- graceful degradation (serve-stale / no-data fallbacks) -------------

    def degraded_half_width(self, age_h: float = 0.0) -> float:
        """Extra half-width for an estimate served *past* its validity.

        The floor tail mass ``1 - floor_accuracy`` is the uncertainty we
        admit even at infinite forecast horizon; staleness compounds it
        linearly with the age of the served data, because a stale
        estimate suffers both forecast error *and* drift since it was
        fetched.
        """
        if age_h < 0:
            raise ValueError("age_h must be non-negative")
        return (1.0 - self.floor_accuracy) * (1.0 + age_h)

    def stale_interval(
        self, stale: Interval, age_h: float, lo: float = 0.0, hi: float = 1.0
    ) -> Interval:
        """Honest widening of a stale estimate served on upstream error.

        The served interval contains the original and grows by
        :meth:`degraded_half_width` on each side — wider-but-correct
        rather than fresh-but-unavailable.
        """
        margin = self.degraded_half_width(age_h)
        return Interval(stale.lo - margin, stale.hi + margin).clamp(lo, hi)

    def fallback_interval(self, lo: float = 0.0, hi: float = 1.0) -> Interval:
        """The no-data degradation floor.

        With neither a fresh response nor a stale one there is nothing
        to centre an estimate on, so the only interval guaranteed to
        contain the truth is the whole admissible range ``[lo, hi]`` —
        the conservative bound every estimator degrades to when its
        provider is fully unavailable.
        """
        if lo > hi:
            raise ValueError("fallback bounds must satisfy lo <= hi")
        return Interval(lo, hi)


#: Shared default used by every estimator unless overridden.
DEFAULT_CONFIDENCE = ForecastConfidence()


@runtime_checkable
class EstimatedComponent(Protocol):
    """Anything that produces a normalised interval for (charger, time)."""

    def estimate(self, charger_id: int, time_h: float, now_h: float) -> Interval:
        """Interval estimate for ``charger_id`` at clock time ``time_h``
        when the forecast is made at ``now_h``."""
        ...
