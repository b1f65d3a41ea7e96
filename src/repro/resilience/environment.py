"""A :class:`ChargingEnvironment` whose estimators survive upstream faults.

The ranking algorithms (``core/ranking.py``) query the environment's
estimators directly, so making ``run_over_trip`` fault-tolerant means the
*estimator* layer — not just the snapshot layer — must ride the
degradation ladder.  :class:`FaultTolerantEnvironment` shares the inner
environment's network/registry/ground-truth models but swaps the three
Estimated Component services for proxies that fetch their upstream inputs
through a :class:`~repro.resilience.gateway.ResilienceGateway`:

* sustainable ``L`` — the clear-sky envelope is local computation; only
  the weather attenuation travels the ladder, so a weather outage costs
  interval width, never the diurnal shape;
* availability ``A`` — the busy-times interval travels the ladder and
  degrades to the full ``[0, 1]`` admissible range;
* derouting ``D`` — computed on the on-board map, but when the traffic
  feed is stale or down the congestion-derived intervals are widened to
  honour what the client genuinely no longer knows.

The oracle view (``true_components*``) intentionally bypasses the ladder:
evaluation grades against ground truth, which no outage can corrupt.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from ..core.environment import ChargingEnvironment
from ..estimation.derouting import DeroutingArrays
from ..interval_array import IntervalArray
from ..intervals import Interval
from .gateway import ResilienceGateway, ServiceLevel

if TYPE_CHECKING:
    from ..chargers.charger import Charger
    from ..estimation.availability import AvailabilityEstimator
    from ..estimation.derouting import DeroutingEstimator
    from ..estimation.sustainable import SustainableChargingEstimator, SustainableLevel
    from ..network.epochs import GraphEpochManager
    from ..network.path import TripSegment
    from ..observability.deadline import CancellationToken
    from ..observability.recorder import Telemetry


class _ResilientSustainable:
    """``L`` estimator fetching weather attenuation through the ladder.

    One gateway pass per pool: the ladder walks the pool's keys in pool
    order, one descent per charger, and the weather provider prices the
    rows with one window hull; the per-row attenuations then feed the
    inner estimator's array kernel.  Sharing one descent per weather
    cell would change answers under faults: the ladder does not cache a
    failed fetch, so the next charger in the cell gets its own upstream
    try.
    """

    def __init__(self, inner: "SustainableChargingEstimator", gateway: ResilienceGateway):
        self._inner = inner
        self._gateway = gateway

    def _power_kw(
        self, chargers: "Sequence[Charger]", eta_h: float, now_h: float, window_h: float
    ) -> IntervalArray:
        attenuation = IntervalArray.from_intervals(
            fetch.value
            for fetch in self._gateway.window_attenuation(
                chargers, eta_h, eta_h + window_h, now_h
            )
        )
        return self._inner.power_kw(chargers, eta_h, window_h, attenuation)

    def batch_estimate(
        self,
        chargers: "Sequence[Charger]",
        eta_h: float,
        now_h: float,
        window_h: float = 1.0,
    ) -> IntervalArray:
        return self._inner.normalise(self._power_kw(chargers, eta_h, now_h, window_h))

    def estimate(
        self, charger: "Charger", eta_h: float, now_h: float, window_h: float = 1.0
    ) -> "SustainableLevel":
        return self._inner.level(charger, self._power_kw([charger], eta_h, now_h, window_h))

    def __getattr__(self, name: str) -> Any:
        # Oracle methods and parameters (true_power_kw, max_power_kw, ...)
        # pass straight through to the real estimator.
        return getattr(self._inner, name)


class _ResilientAvailability:
    """``A`` estimator fetching busy-times intervals through the ladder.

    One gateway pass per pool, one descent per charger in pool order;
    the busy-times provider prices every row with one
    :meth:`~repro.estimation.availability.AvailabilityEstimator.batch_estimate`
    call at the first key that reaches it.
    """

    def __init__(self, inner: "AvailabilityEstimator", gateway: ResilienceGateway):
        self._inner = inner
        self._gateway = gateway

    def batch_estimate(
        self, chargers: "Sequence[Charger]", eta_h: float, now_h: float
    ) -> IntervalArray:
        return IntervalArray.from_intervals(
            fetch.value for fetch in self._gateway.availability(chargers, eta_h, now_h)
        )

    def estimate(self, charger: "Charger", eta_h: float, now_h: float) -> Interval:
        return self._gateway.availability([charger], eta_h, now_h)[0].value

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _ResilientDerouting:
    """``D`` estimator honouring traffic-feed degradation.

    Routing always runs on the on-board static map (a real navigator
    keeps working offline), but the *congestion* bounds come from the
    traffic feed — so a stale feed widens the cost intervals with age,
    and a dead feed degrades them to the full admissible range.
    """

    def __init__(self, inner: "DeroutingEstimator", gateway: ResilienceGateway):
        self._inner = inner
        self._gateway = gateway

    def batch_estimate(
        self,
        segment: "TripSegment",
        chargers: Iterable["Charger"],
        time_h: float,
        now_h: float,
        next_segment: "TripSegment | None" = None,
        search_budget_h: float | None = None,
    ) -> DeroutingArrays:
        fetch = self._gateway.traffic_snapshot(now_h)
        base = self._inner.batch_estimate(
            segment,
            chargers,
            time_h=time_h,
            now_h=now_h,
            next_segment=next_segment,
            search_budget_h=search_budget_h,
        )
        conf = self._gateway.confidence
        max_h = self._inner.max_derouting_h
        if fetch.level is ServiceLevel.FALLBACK:
            floor = conf.fallback_interval(0.0, 1.0)
            rows = len(base.charger_ids)
            return replace(
                base,
                hours=IntervalArray(np.zeros(rows), np.full(rows, max_h)),
                normalised=IntervalArray(
                    np.full(rows, floor.lo), np.full(rows, floor.hi)
                ),
            )
        if fetch.level is ServiceLevel.STALE:
            # Absolute margins, not IntervalArray.widened (which scales the
            # width and so would leave a saturated exact cost un-widened);
            # the normalised rows are ForecastConfidence.stale_interval.
            margin = conf.degraded_half_width(fetch.age_h)
            margin_h = margin * max_h
            hours, normalised = base.hours, base.normalised
            return replace(
                base,
                hours=IntervalArray(
                    hours.lo - margin_h, hours.hi + margin_h
                ).clamp(0.0, max_h),
                normalised=IntervalArray(
                    normalised.lo - margin, normalised.hi + margin
                ).clamp(0.0, 1.0),
            )
        return base

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class FaultTolerantEnvironment(ChargingEnvironment):
    """The inner environment with ladder-backed estimators.

    Everything the oracle and the routing layer need (network, registry,
    ground-truth weather/traffic, ETA) is shared with the inner
    environment; only the three forecast-view estimators are proxied.
    """

    def __init__(self, inner: ChargingEnvironment, gateway: ResilienceGateway):
        # Deliberately no super().__init__(): the inner environment
        # already built and validated every component; re-running the
        # constructor would duplicate estimator state and RNG streams.
        self.inner = inner
        self.gateway = gateway
        self.network = inner.network
        self.registry = inner.registry
        self.engine = inner.engine
        self.weather = inner.weather
        self.traffic = inner.traffic
        self.eta = inner.eta
        self.charging_window_h = inner.charging_window_h
        self.telemetry = inner.telemetry
        self.cancellation = inner.cancellation
        self.epochs = inner.epochs
        self.sustainable = _ResilientSustainable(inner.sustainable, gateway)
        self.availability = _ResilientAvailability(inner.availability, gateway)
        self.derouting = _ResilientDerouting(inner.derouting, gateway)

    def set_telemetry(self, telemetry: "Telemetry") -> None:
        """Install telemetry on this view *and* the inner environment (the
        gateway reads the inner environment's recorder at fetch time,
        and a live one reads the gateway's counters in place)."""
        self.telemetry = telemetry
        self.inner.set_telemetry(telemetry)
        self.gateway.publish(telemetry)

    def set_cancellation(self, token: "CancellationToken") -> None:
        """Install the deadline token on this view *and* the inner
        environment (the gateway polls the inner environment's token
        before every upstream descent)."""
        self.cancellation = token
        self.inner.set_cancellation(token)

    def set_epochs(self, epochs: "GraphEpochManager") -> None:
        """Attach the live-graph epoch manager on this view *and* the
        inner environment (which owns the traffic model that prices
        against it)."""
        self.inner.set_epochs(epochs)
        self.epochs = epochs

    @classmethod
    def build(
        cls, inner: ChargingEnvironment, gateway: ResilienceGateway | None = None, **kwargs: Any
    ) -> "FaultTolerantEnvironment":
        """Wrap ``inner``; extra kwargs go to :meth:`ResilienceGateway.build`."""
        if gateway is None:
            gateway = ResilienceGateway.build(inner, **kwargs)
        return cls(inner, gateway)
