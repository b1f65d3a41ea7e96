"""Charger availability ``A`` estimator (Eq. 2, Algorithm 1 lines 7-8).

Substitute for Google-Maps-style "popular times": every charger carries a
weekly 168-bin busy histogram with commuter peaks and weekend structure.
Availability at the ETA is ``1 - busyness`` adjusted for plug count, and
the returned interval widens with forecast horizon exactly like the other
ECs.  The paper expresses busyness in percent (0 % free, 100 % busy); we
keep the [0, 1] normalised form and expose ``A`` directly (1 = surely
free) so that bigger is better in the weighted sum.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..chargers.charger import Charger
from ..chargers.pool import ChargerColumns, ChargerPool
from ..chargers.registry import ChargerRegistry
from ..interval_array import IntervalArray
from ..intervals import Interval
from ..lru import LRU
from .component import DEFAULT_CONFIDENCE, ForecastConfidence

HOURS_PER_WEEK = 168

#: Hour-of-week availability columns an estimator keeps over its
#: registry's store: a day of hours covers every ETA of a trip and of the
#: trips departing around it, at 8 bytes per charger and hour.
HOUR_COLUMNS = 24


@dataclass(frozen=True, slots=True)
class BusyTimetable:
    """Weekly busy profile: ``busyness[h]`` in [0, 1] for h in 0..167.

    Hour 0 is Monday midnight.
    """

    busyness: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.busyness) != HOURS_PER_WEEK:
            raise ValueError(f"timetable needs {HOURS_PER_WEEK} hourly bins")
        if any(not 0.0 <= b <= 1.0 for b in self.busyness):
            raise ValueError("busyness values must be in [0, 1]")

    def busy_at(self, time_h: float) -> float:
        """Busyness at clock time ``time_h`` (hours since day-0 Monday)."""
        return self.busyness[int(time_h) % HOURS_PER_WEEK]

    @classmethod
    def generate(cls, seed: int, **params: float) -> "BusyTimetable":
        """Synthesise one site's weekly profile (a one-seed
        :meth:`generate_many` with the same shape parameters)."""
        return cls.generate_many([seed], **params)[0]

    @classmethod
    def generate_many(
        cls,
        seeds: Sequence[int],
        base_load: float = 0.25,
        morning_peak: float = 0.5,
        midday_peak: float = 0.55,
        evening_peak: float = 0.65,
        weekend_scale: float = 0.8,
    ) -> list["BusyTimetable"]:
        """Synthesise one realistic weekly profile per seed, in seed order.

        Weekday shape: low overnight, a commuter bump around 08:00, a
        commercial midday bump around 13:00 (shopping-centre chargers are
        busiest exactly when hoarding trips happen), and the strongest
        evening bump around 18:00.  Weekends flatten and shift later.
        Per-site multiplicative noise differentiates sites: each seed's
        generator draws a site factor, then one noise value per hour.

        The shape is shared by every site, so it is computed once per
        call, one scalar ``np.exp`` per bump and hour (``math.exp``
        differs from it in the last bit on some inputs).  Each seed's
        generator fills one row of noise; the product and the clamp then
        run in place over all rows at once.  Each hour's level is
        ``shape * (site * noise)``, the association of the per-hour form,
        and the clamp is the builtin ``min(1.0, max(0.0, level))``: first
        wins on ties, so ``-0.0`` (a negative shape times a zero
        ``weekend_scale``) becomes ``0.0``, which ``np.maximum`` would not do.
        """
        shape = np.empty(HOURS_PER_WEEK)
        for hour in range(HOURS_PER_WEEK):
            day, hod = divmod(hour, 24)
            weekend = day >= 5
            morning_centre = 10.0 if weekend else 8.0
            midday_centre = 14.0 if weekend else 13.0
            evening_centre = 16.0 if weekend else 18.0
            level = base_load
            level += morning_peak * np.exp(-((hod - morning_centre) ** 2) / (2 * 2.0**2))
            level += midday_peak * np.exp(-((hod - midday_centre) ** 2) / (2 * 2.0**2))
            level += evening_peak * np.exp(-((hod - evening_centre) ** 2) / (2 * 2.5**2))
            if weekend:
                level *= weekend_scale
            shape[hour] = level

        site = np.empty((len(seeds), 1))
        levels = np.empty((len(seeds), HOURS_PER_WEEK))
        for row, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            site[row, 0] = rng.uniform(0.5, 1.4)
            levels[row] = rng.uniform(0.85, 1.15, HOURS_PER_WEEK)
        levels *= site
        levels *= shape
        np.copyto(levels, 0.0, where=~(levels > 0.0))
        np.copyto(levels, 1.0, where=~(levels < 1.0))
        return [cls(tuple(row.tolist())) for row in levels]


class AvailabilityEstimator:
    """Computes ``[A_min, A_max]`` per charger at the ETA."""

    def __init__(
        self,
        registry: ChargerRegistry,
        seed: int = 0,
        confidence: ForecastConfidence = DEFAULT_CONFIDENCE,
    ):
        self._registry = registry
        self.confidence = confidence
        self._seed = seed
        self._timetables: dict[int, BusyTimetable] = {}
        self._generate([charger.charger_id for charger in registry])
        #: ``1 - busy ** plugs`` over every row of the registry's store,
        #: per (store, hour of the week).
        self._hours: LRU[tuple[ChargerColumns, int], np.ndarray] = LRU(HOUR_COLUMNS)
        self._lock = threading.Lock()

    def _generate(self, ids: Sequence[int]) -> None:
        """Build the timetables of ``ids`` in one pass.  A site's profile
        depends on its own seed only, so a site registered after the
        estimator was built gets the profile a fresh estimator would."""
        fresh = BusyTimetable.generate_many([self._seed * 1_000_003 + i for i in ids])
        self._timetables.update(zip(ids, fresh))

    def timetable(self, charger_id: int) -> BusyTimetable:
        """The weekly busy profile backing ``charger_id``."""
        return self._timetables[charger_id]

    def _free_rows(self, ids: Sequence[int], plugs: Sequence[int], hour: int) -> np.ndarray:
        """True availability ``1 - busy ** plugs`` per row at ``hour``.

        Multi-plug sites stay available at higher busyness: the chance all
        plugs are taken falls roughly geometrically with plug count.  The
        power is Python float ``**`` per row, not ``np.power``, whose SIMD
        path may differ by an ulp.
        """
        timetables = self._timetables
        missing = [i for i in ids if i not in timetables]
        if missing:
            self._generate(missing)
        return np.array(
            [1.0 - timetables[i].busyness[hour] ** p for i, p in zip(ids, plugs)],
            dtype=np.float64,
        )

    def _free(self, chargers: Sequence[Charger], time_h: float) -> np.ndarray:
        """True availability per charger at ``time_h``, in pool order.

        A pool the registry cut gathers its rows from the hour's column
        over the whole store, computed on first use; any other pool is
        priced row by row."""
        pool = ChargerPool.of(chargers)
        hour = int(time_h) % HOURS_PER_WEEK
        columns = pool.columns
        if columns is not self._registry.columns():
            return self._free_rows(pool.charger_ids.tolist(), pool.plugs.tolist(), hour)
        key = (columns, hour)
        with self._lock:
            column = self._hours.get(key)
        if column is None:
            column = self._free_rows(columns.charger_id.tolist(), columns.plugs.tolist(), hour)
            with self._lock:
                self._hours.put(key, column)
        return column[pool.rows]

    def true_availability(self, charger: Charger, time_h: float) -> float:
        """Ground-truth availability in [0, 1] (oracle view)."""
        hour = int(time_h) % HOURS_PER_WEEK
        return float(self._free_rows((charger.charger_id,), (charger.plugs,), hour)[0])

    def batch_estimate(
        self, chargers: Sequence[Charger], eta_h: float, now_h: float
    ) -> IntervalArray:
        """``[A_min, A_max]`` for every charger of a pool, in pool order:
        true availability widened by the one horizon the pool shares."""
        truth = self._free(chargers, eta_h)
        horizon = eta_h - now_h
        if horizon <= 0:
            return IntervalArray.exact(truth)
        # ForecastConfidence.interval_around, one shared half-width.
        half_width = self.confidence.half_width(horizon)
        return IntervalArray(truth - half_width, truth + half_width).clamp(0.0, 1.0)

    def estimate(self, charger: Charger, eta_h: float, now_h: float) -> Interval:
        """``[A_min, A_max]`` for one charger (a one-row
        :meth:`batch_estimate`)."""
        return self.batch_estimate([charger], eta_h, now_h).at(0)
