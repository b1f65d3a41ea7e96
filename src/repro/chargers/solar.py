"""Solar photovoltaic production curves.

Substitute for the "California Distributed Generation Statistics" dataset
(15-minute solar generation, 2016-2018) the paper feeds its simulator: a
parametric clear-sky diurnal bell attenuated by weather, sampled on the
same 15-minute lattice.  The shape is what the ``L`` component consumes —
production ramps after sunrise, peaks at solar noon, and dies at dusk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: CDGS records production every 15 minutes.
SAMPLES_PER_HOUR = 4
HOURS_PER_DAY = 24


@dataclass(frozen=True, slots=True)
class SolarProfile:
    """Parametric clear-sky production model for one site.

    ``sunrise_h``/``sunset_h`` bound the production window;
    ``peak_fraction`` is the fraction of nameplate capacity achieved at
    solar noon under clear sky (accounts for tilt/temperature losses).
    """

    capacity_kw: float
    sunrise_h: float = 6.0
    sunset_h: float = 20.0
    peak_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.capacity_kw < 0:
            raise ValueError("capacity must be non-negative")
        if not 0.0 <= self.sunrise_h < self.sunset_h <= 24.0:
            raise ValueError("need 0 <= sunrise < sunset <= 24")
        if not 0.0 < self.peak_fraction <= 1.0:
            raise ValueError("peak_fraction must be in (0, 1]")

    def bell(self, time_h: float) -> float | None:
        """The clear-sky shape ``sin(pi * phase) ** 2`` at clock time
        ``time_h``, or None outside the daylight window.

        Independent of capacity, so one evaluation serves every site that
        shares the regional sunrise and sunset.
        """
        hour = time_h % HOURS_PER_DAY
        if hour <= self.sunrise_h or hour >= self.sunset_h:
            return None
        phase = (hour - self.sunrise_h) / (self.sunset_h - self.sunrise_h)
        return math.sin(math.pi * phase) ** 2

    def clear_sky_kw(self, time_h: float) -> float:
        """Clear-sky production at clock time ``time_h`` (hours, any day).

        Zero outside the daylight window; a squared half-sine inside, which
        matches the flattened bell of measured PV output.
        """
        shape = self.bell(time_h)
        if shape is None:
            return 0.0
        return self.capacity_kw * self.peak_fraction * shape

    def daily_energy_kwh(self) -> float:
        """Clear-sky energy over one day, by quadrature on the 15-min grid."""
        step = 1.0 / SAMPLES_PER_HOUR
        hours = np.arange(0.0, HOURS_PER_DAY, step)
        return float(sum(self.clear_sky_kw(h) for h in hours) * step)


@dataclass(frozen=True, slots=True)
class SolarSeries:
    """A concrete production time series on the 15-minute lattice.

    ``values_kw[i]`` is the average production during the i-th quarter-hour
    since ``start_h``.  This mirrors the CDGS file layout and is what the
    trace-replay tests feed through the ``L`` estimator.
    """

    start_h: float
    values_kw: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values_kw):
            raise ValueError("production values must be non-negative")

    @property
    def end_h(self) -> float:
        return self.start_h + len(self.values_kw) / SAMPLES_PER_HOUR

    def at(self, time_h: float) -> float:
        """Production at ``time_h``; zero outside the recorded window."""
        if time_h < self.start_h or time_h >= self.end_h:
            return 0.0
        index = int((time_h - self.start_h) * SAMPLES_PER_HOUR)
        return self.values_kw[min(index, len(self.values_kw) - 1)]

    def window_max(self, start_h: float, end_h: float) -> float:
        """Peak production within ``[start_h, end_h)``."""
        if end_h <= start_h:
            return 0.0
        lo = max(0, int((start_h - self.start_h) * SAMPLES_PER_HOUR))
        hi = min(len(self.values_kw), math.ceil((end_h - self.start_h) * SAMPLES_PER_HOUR))
        if hi <= lo:
            return 0.0
        return max(self.values_kw[lo:hi])

    def window_energy_kwh(self, start_h: float, end_h: float) -> float:
        """Energy produced within ``[start_h, end_h)``."""
        if end_h <= start_h:
            return 0.0
        step = 1.0 / SAMPLES_PER_HOUR
        lo = max(0, int((start_h - self.start_h) * SAMPLES_PER_HOUR))
        hi = min(len(self.values_kw), math.ceil((end_h - self.start_h) * SAMPLES_PER_HOUR))
        return float(sum(self.values_kw[lo:hi]) * step)


def generate_solar_series(
    profile: SolarProfile,
    days: int = 1,
    cloud_attenuation: float = 0.0,
    noise_std: float = 0.02,
    seed: int = 0,
) -> SolarSeries:
    """Generate a CDGS-style series from a profile.

    ``cloud_attenuation`` in [0, 1] scales the whole series down (0 = clear
    sky); ``noise_std`` adds multiplicative measurement noise so replay
    tests do not see an analytically perfect curve.
    """
    if days < 1:
        raise ValueError("days must be at least 1")
    if not 0.0 <= cloud_attenuation <= 1.0:
        raise ValueError("cloud_attenuation must be in [0, 1]")
    rng = np.random.default_rng(seed)
    step = 1.0 / SAMPLES_PER_HOUR
    count = days * HOURS_PER_DAY * SAMPLES_PER_HOUR
    values = []
    for i in range(count):
        base = profile.clear_sky_kw(i * step) * (1.0 - cloud_attenuation)
        noisy = base * max(0.0, 1.0 + rng.normal(0.0, noise_std)) if base > 0 else 0.0
        values.append(min(noisy, profile.capacity_kw))
    return SolarSeries(start_h=0.0, values_kw=tuple(values))
