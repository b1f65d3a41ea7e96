"""Sustainable Charging Level ``L`` estimator (Eq. 1, Algorithm 1 lines 5-6).

``L`` is the clean power a charger can deliver around the vehicle's ETA:
the site's solar production (clear-sky curve x forecast attenuation),
capped by the charger's rated power — the paper considers only solar
excess, never grid imports.  The result is an interval because the weather
attenuation is an interval, normalised by the environment maximum so it is
comparable with ``A`` and ``D`` in the weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chargers.charger import Charger
from ..chargers.registry import ChargerRegistry
from ..chargers.solar import SolarProfile
from ..intervals import Interval
from ..lru import LRU
from .component import MEMO_ENTRIES_PER_CHARGER
from .weather import WeatherModel


@dataclass(frozen=True, slots=True)
class SustainableLevel:
    """Raw and normalised ``L`` for one charger at one ETA."""

    charger_id: int
    power_kw: Interval
    normalised: Interval


class SustainableChargingEstimator:
    """Computes ``[L_min, L_max]`` per charger.

    Parameters
    ----------
    registry:
        The charger set ``B``; its maximum rate provides the paper's
        "environment maximum charging level" normaliser.
    weather:
        Ground-truth-plus-forecast weather service.
    sunrise_h / sunset_h / peak_fraction:
        Regional clear-sky parameters shared by all sites.
    """

    def __init__(
        self,
        registry: ChargerRegistry,
        weather: WeatherModel,
        sunrise_h: float = 6.0,
        sunset_h: float = 20.0,
        peak_fraction: float = 0.85,
    ):
        self._registry = registry
        self._weather = weather
        self._sunrise_h = sunrise_h
        self._sunset_h = sunset_h
        self._peak_fraction = peak_fraction
        self._profiles: dict[int, SolarProfile] = {}
        #: Memoised estimates: the model is a deterministic function of
        #: (charger, eta, now, window), and continuous serving re-asks the
        #: same question every warm pass — a warm segment's ``L`` is one
        #: LRU probe.  The memo sits *below* the resilience proxies, so
        #: fault injection and the degradation ladder see every call.
        #: Bounded per catalog charger (see ``MEMO_ENTRIES_PER_CHARGER``).
        self._memo: LRU[tuple[int, float, float, float], SustainableLevel] = LRU(
            MEMO_ENTRIES_PER_CHARGER * max(1, len(registry))
        )
        # Environment maximum deliverable clean power: the best any charger
        # could do under clear sky, bounded by its rate.
        self._max_power_kw = max(
            min(c.rate_kw, c.solar_capacity_kw * peak_fraction) for c in registry
        )
        if self._max_power_kw <= 0:
            raise ValueError("registry has no charger able to deliver clean power")

    @property
    def max_power_kw(self) -> float:
        return self._max_power_kw

    def _profile(self, charger: Charger) -> SolarProfile:
        profile = self._profiles.get(charger.charger_id)
        if profile is None:
            profile = SolarProfile(
                capacity_kw=charger.solar_capacity_kw,
                sunrise_h=self._sunrise_h,
                sunset_h=self._sunset_h,
                peak_fraction=self._peak_fraction,
            )
            self._profiles[charger.charger_id] = profile
        return profile

    def power_interval_kw(
        self, charger: Charger, eta_h: float, now_h: float, window_h: float = 1.0
    ) -> Interval:
        """Deliverable clean power (kW interval) during the charging window
        ``[eta_h, eta_h + window_h]`` as forecast from ``now_h``."""
        attenuation = self._weather.window_attenuation(eta_h, eta_h + window_h, now_h)
        return self.power_with_attenuation(charger, eta_h, window_h, attenuation)

    def power_with_attenuation(
        self, charger: Charger, eta_h: float, window_h: float, attenuation: Interval
    ) -> Interval:
        """Deliverable clean power for a *given* attenuation interval.

        The clear-sky envelope is pure local computation; only the
        attenuation needs the weather provider — which is why the
        resilient serving stack can keep the diurnal shape even when the
        weather endpoint is down and the attenuation degrades to its
        conservative bounds.
        """
        if window_h <= 0:
            raise ValueError("charging window must be positive")
        profile = self._profile(charger)
        # Clear-sky envelope over the window: min and max of the diurnal
        # curve bound the achievable production regardless of weather.
        samples = [
            profile.clear_sky_kw(eta_h + window_h * i / 4.0) for i in range(5)
        ]
        clear_sky = Interval(min(samples), max(samples))
        produced = clear_sky * attenuation
        # A charger can never push more than its rated power.
        return Interval(
            min(produced.lo, charger.rate_kw), min(produced.hi, charger.rate_kw)
        )

    def normalised_level(self, charger: Charger, power: Interval) -> SustainableLevel:
        """Assemble a :class:`SustainableLevel` from a power interval."""
        return SustainableLevel(
            charger_id=charger.charger_id,
            power_kw=power,
            normalised=power.scaled_by_max(self._max_power_kw).clamp(0.0, 1.0),
        )

    def estimate(
        self, charger: Charger, eta_h: float, now_h: float, window_h: float = 1.0
    ) -> SustainableLevel:
        """Full ``L`` estimate: raw kW interval plus the normalised one."""
        key = (charger.charger_id, eta_h, now_h, window_h)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        power = self.power_interval_kw(charger, eta_h, now_h, window_h)
        level = self.normalised_level(charger, power)
        self._memo.put(key, level)
        return level

    def true_power_kw(self, charger: Charger, time_h: float) -> float:
        """Ground-truth deliverable clean power (no forecast error) —
        the quantity the evaluation's oracle SC uses."""
        produced = self._profile(charger).clear_sky_kw(time_h) * self._weather.attenuation_at(
            time_h
        )
        return min(produced, charger.rate_kw)
