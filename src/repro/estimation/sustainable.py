"""Sustainable Charging Level ``L`` estimator (Eq. 1, Algorithm 1 lines 5-6).

``L`` is the clean power a charger can deliver around the vehicle's ETA:
the site's solar production (clear-sky curve x forecast attenuation),
capped by the charger's rated power — the paper considers only solar
excess, never grid imports.  The result is an interval because the weather
attenuation is an interval, normalised by the environment maximum so it is
comparable with ``A`` and ``D`` in the weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..chargers.charger import Charger
from ..chargers.registry import ChargerRegistry
from ..chargers.solar import SolarProfile
from ..interval_array import IntervalArray
from ..intervals import Interval
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
        #: The regional clear-sky curve; a site's profile is this one at
        #: the site's capacity.
        self._sky = SolarProfile(
            capacity_kw=0.0,
            sunrise_h=sunrise_h,
            sunset_h=sunset_h,
            peak_fraction=peak_fraction,
        )
        self._profiles: dict[int, SolarProfile] = {}
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
            profile = replace(self._sky, capacity_kw=charger.solar_capacity_kw)
            self._profiles[charger.charger_id] = profile
        return profile

    def power_kw(
        self,
        chargers: Sequence[Charger],
        eta_h: float,
        window_h: float,
        attenuation: Interval | IntervalArray,
    ) -> IntervalArray:
        """Deliverable clean power (kW intervals, pool order) during the
        charging window ``[eta_h, eta_h + window_h]`` for a given weather
        attenuation: one interval for the whole pool, or one per row.

        The clear-sky envelope is pure local computation; only the
        attenuation needs the weather provider, which is why the
        resilient serving stack keeps the diurnal shape even when the
        weather endpoint is down and the attenuation degrades to its
        conservative bounds.
        """
        if window_h <= 0:
            raise ValueError("charging window must be positive")
        rows = len(chargers)
        if isinstance(attenuation, Interval):
            attenuation = IntervalArray(
                np.full(rows, attenuation.lo), np.full(rows, attenuation.hi)
            )
        capacity = np.array([c.solar_capacity_kw for c in chargers], dtype=np.float64)
        rate = np.array([c.rate_kw for c in chargers], dtype=np.float64)
        # SolarProfile.clear_sky_kw's association: (capacity * peak) * bell,
        # with the bell a Python scalar shared by every site (math.sin, not
        # np.sin, whose SIMD paths may differ from libm by an ulp).
        peak_kw = capacity * self._sky.peak_fraction
        samples = []
        for i in range(5):
            bell = self._sky.bell(eta_h + window_h * i / 4.0)
            samples.append(np.zeros(rows) if bell is None else peak_kw * bell)
        # Clear-sky envelope over the window: the min and max of the
        # samples (first wins ties, as builtin min/max) bound the
        # achievable production regardless of weather.
        lo = hi = samples[0]
        for sample in samples[1:]:
            lo = np.where(sample < lo, sample, lo)
            hi = np.where(sample > hi, sample, hi)
        produced = IntervalArray(lo, hi).mul(attenuation)
        # A charger can never push more than its rated power.
        return produced.capped_at(rate)

    def normalise(self, power: IntervalArray) -> IntervalArray:
        """Power intervals scaled by the environment maximum into [0, 1]."""
        return power.scaled_by_max(self._max_power_kw).clamp(0.0, 1.0)

    def level(self, charger: Charger, power: IntervalArray) -> SustainableLevel:
        """The :class:`SustainableLevel` of a one-row :meth:`power_kw`."""
        return SustainableLevel(
            charger_id=charger.charger_id,
            power_kw=power.at(0),
            normalised=self.normalise(power).at(0),
        )

    def batch_estimate(
        self,
        chargers: Sequence[Charger],
        eta_h: float,
        now_h: float,
        window_h: float = 1.0,
    ) -> IntervalArray:
        """Normalised ``L`` for every charger of a pool, in pool order.

        Every site shares the forecast, so the window attenuation is
        fetched once per pool.
        """
        attenuation = self._weather.window_attenuation(eta_h, eta_h + window_h, now_h)
        return self.normalise(self.power_kw(chargers, eta_h, window_h, attenuation))

    def estimate(
        self, charger: Charger, eta_h: float, now_h: float, window_h: float = 1.0
    ) -> SustainableLevel:
        """Full ``L`` estimate for one charger: raw kW interval plus the
        normalised one (a one-row :meth:`power_kw`)."""
        attenuation = self._weather.window_attenuation(eta_h, eta_h + window_h, now_h)
        return self.level(charger, self.power_kw([charger], eta_h, window_h, attenuation))

    def true_power_kw(self, charger: Charger, time_h: float) -> float:
        """Ground-truth deliverable clean power (no forecast error) —
        the quantity the evaluation's oracle SC uses."""
        produced = self._profile(charger).clear_sky_kw(time_h) * self._weather.attenuation_at(
            time_h
        )
        return min(produced, charger.rate_kw)
