"""Markov-chain weather process and forecast service.

Substitute for OpenWeatherMap: a seeded hourly Markov chain over sky
states drives the true solar attenuation, and the forecast service returns
the true state blurred by the horizon-dependent confidence model — exactly
the behaviour that makes ``L`` an interval rather than a number.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..intervals import Interval
from .component import DEFAULT_CONFIDENCE, ForecastConfidence


class SkyState(enum.Enum):
    """Discrete sky conditions, ordered from clearest to darkest."""

    SUNNY = 0
    PARTLY_CLOUDY = 1
    CLOUDY = 2
    OVERCAST = 3
    RAIN = 4


#: Fraction of clear-sky PV output achieved under each state.
ATTENUATION: dict[SkyState, float] = {
    SkyState.SUNNY: 1.0,
    SkyState.PARTLY_CLOUDY: 0.75,
    SkyState.CLOUDY: 0.45,
    SkyState.OVERCAST: 0.25,
    SkyState.RAIN: 0.10,
}

#: Hourly transition matrix.  Weather is sticky (strong diagonal) and moves
#: mostly to adjacent states, which produces realistic multi-hour spells.
_TRANSITIONS = np.array(
    [
        # SUNNY  PARTLY CLOUDY OVERC. RAIN
        [0.80, 0.15, 0.04, 0.01, 0.00],  # from SUNNY
        [0.15, 0.65, 0.15, 0.04, 0.01],  # from PARTLY_CLOUDY
        [0.04, 0.16, 0.60, 0.15, 0.05],  # from CLOUDY
        [0.01, 0.05, 0.18, 0.60, 0.16],  # from OVERCAST
        [0.00, 0.02, 0.10, 0.28, 0.60],  # from RAIN
    ]
)


@dataclass(frozen=True, slots=True)
class WeatherForecast:
    """A forecast for a single future hour.

    ``degraded`` marks forecasts assembled by the resilient serving path
    from stale or absent provider data (interval widened accordingly)
    rather than from a live upstream response.
    """

    time_h: float
    expected_state: SkyState
    attenuation: Interval
    degraded: bool = False

    @property
    def horizon_certain(self) -> bool:
        return self.attenuation.is_exact


class WeatherModel:
    """Ground-truth weather realisation plus a forecast interface.

    The realisation is generated lazily in whole-day blocks so arbitrarily
    long simulations stay cheap; everything is a pure function of the seed.
    """

    def __init__(
        self,
        seed: int = 0,
        initial_state: SkyState = SkyState.SUNNY,
        confidence: ForecastConfidence = DEFAULT_CONFIDENCE,
    ):
        self._seed = seed
        self._initial = initial_state
        self.confidence = confidence
        self._days: dict[int, tuple[SkyState, ...]] = {}

    def cold_copy(self) -> "WeatherModel":
        """The same weather process with nothing generated yet."""
        return WeatherModel(self._seed, self._initial, self.confidence)

    def _day_states(self, day: int) -> tuple[SkyState, ...]:
        """The 24 hourly states of ``day`` (generated deterministically)."""
        if day < 0:
            raise ValueError("day must be non-negative")
        if day in self._days:
            return self._days[day]
        # Generate forward from the last materialised day (or day 0).
        start_day = max((d for d in self._days if d < day), default=-1)
        state = self._initial if start_day < 0 else self._days[start_day][-1]
        for d in range(start_day + 1, day + 1):
            rng = np.random.default_rng((self._seed, d))
            states = []
            for __ in range(24):
                row = _TRANSITIONS[state.value]
                state = SkyState(int(rng.choice(len(row), p=row)))
                states.append(state)
            self._days[d] = tuple(states)
        return self._days[day]

    def state_at(self, time_h: float) -> SkyState:
        """True sky state at clock time ``time_h``."""
        if time_h < 0:
            raise ValueError("time must be non-negative")
        day, hour = divmod(int(time_h), 24)
        return self._day_states(day)[hour]

    def attenuation_at(self, time_h: float) -> float:
        """True solar attenuation factor at ``time_h``."""
        return ATTENUATION[self.state_at(time_h)]

    def forecast(self, target_h: float, now_h: float) -> WeatherForecast:
        """Forecast for ``target_h`` issued at ``now_h``.

        The centre of the attenuation interval is the true value (the
        simulated provider is unbiased); its width follows the quoted
        GFS/ECMWF accuracy-vs-horizon curve.  Forecasts are never narrower
        than the present-time observation error (exact at horizon <= 0).
        """
        state = self.state_at(max(target_h, 0.0))
        truth = ATTENUATION[state]
        horizon = target_h - now_h
        if horizon <= 0:
            return WeatherForecast(target_h, state, Interval.exact(truth))
        interval = self.confidence.interval_around(truth, horizon)
        return WeatherForecast(target_h, state, interval)

    def window_attenuation(self, start_h: float, end_h: float, now_h: float) -> Interval:
        """Hull of hourly forecast attenuations over ``[start_h, end_h]``.

        Used when a charging session spans multiple hours: the optimistic
        bound assumes the best forecast hour, the pessimistic the worst.
        """
        if end_h < start_h:
            raise ValueError("window end before start")
        hours = range(int(start_h), int(end_h) + 1)
        forecasts = [self.forecast(float(h) + 0.5, now_h) for h in hours] or [
            self.forecast(start_h, now_h)
        ]
        lo = min(f.attenuation.lo for f in forecasts)
        hi = max(f.attenuation.hi for f in forecasts)
        return Interval(lo, hi)
