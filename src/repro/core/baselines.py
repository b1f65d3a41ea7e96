"""The evaluation's baseline methods (Section V-A).

* :class:`BruteForceRanker` — exhaustive search over the entire charger
  pool; defines the 100 % Sustainability Score reference.
* :class:`QuadtreeRanker` — prunes the pool to the spatially nearest
  candidates via a PR quadtree before refinement, trading SC for speed.
* :class:`RandomRanker` — fills the Offering Table with random chargers
  inside the radius ``R``, ignoring the objectives entirely.
"""

from __future__ import annotations

import numpy as np

from ..interval_array import ComponentArrays, IntervalArray
from ..network.path import Trip, TripSegment
from .environment import ChargingEnvironment
from .offering import OfferingTable, build_table_from_arrays
from .ranking import refine_pool
from .scoring import Weights


class BruteForceRanker:
    """Exhaustive search over all of ``B`` with unbounded path searches."""

    name = "brute-force"

    def __init__(self, environment: ChargingEnvironment, k: int = 5, weights: Weights | None = None) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self._env = environment
        self.k = k
        self.weights = weights if weights is not None else Weights.equal()

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        """Rank the entire charger set for one segment (no pruning)."""
        return refine_pool(
            self._env,
            trip,
            segment,
            pool=self._env.registry.all(),
            eta_h=eta_h,
            now_h=now_h,
            k=self.k,
            weights=self.weights,
            next_segment=next_segment,
            search_budget_h=None,  # whole environment
        )

    def reset(self) -> None:
        """Stateless: nothing to clear."""


class QuadtreeRanker:
    """Index-pruned search: refine only the spatially nearest candidates.

    ``candidate_count`` controls the pruning aggressiveness: more
    candidates means better SC and more refinement work.  The quadtree
    answers the candidate query in ``O(log n)``, which is where the
    baseline's speedup over Brute Force comes from.
    """

    name = "index-quadtree"

    def __init__(
        self,
        environment: ChargingEnvironment,
        k: int = 5,
        weights: Weights | None = None,
        candidate_count: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self._env = environment
        self.k = k
        self.weights = weights if weights is not None else Weights.equal()
        if candidate_count is None:
            # Aggressive spatial pruning: a flat 4k candidates regardless
            # of environment size.  This is the baseline's defining
            # trade-off — the top-SC chargers (great solar, quiet site)
            # are frequently *not* among the spatially nearest, which is
            # what costs it the 15-20 % SC the paper reports.
            candidate_count = max(4 * k, 20)
        if candidate_count < k:
            raise ValueError("candidate_count must be at least k")
        self.candidate_count = candidate_count

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        """Rank only the spatially nearest candidates for one segment."""
        pool = self._env.registry.nearest(segment.midpoint, k=self.candidate_count)
        # Unlike EcoCharge, this method has no radius parameter, so its
        # path searches are unbudgeted (whole environment) — the index
        # only shrinks the refinement pool, not the routing work.
        return refine_pool(
            self._env,
            trip,
            segment,
            pool=pool,
            eta_h=eta_h,
            now_h=now_h,
            k=self.k,
            weights=self.weights,
            next_segment=next_segment,
            search_budget_h=None,
        )

    def reset(self) -> None:
        """Stateless: nothing to clear."""


class RandomRanker:
    """Random Offering Tables within radius ``R`` (objectives ignored).

    The scores recorded in the table are placeholders (zero scores and
    the vacuous ``[0, 1]`` interval for every component); the evaluation
    grades the *selection* against ground truth, which is where this
    method collapses to its ~35-40 % SC.
    """

    name = "random"

    def __init__(
        self,
        environment: ChargingEnvironment,
        k: int = 5,
        radius_km: float = 50.0,
        seed: int = 0,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if radius_km <= 0:
            raise ValueError("radius_km must be positive")
        self._env = environment
        self.k = k
        self.radius_km = radius_km
        self._rng = np.random.default_rng(seed)
        self._seed = seed

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        """Fill the table with random chargers inside the radius."""
        pool = self._env.registry.within_radius(segment.midpoint, self.radius_km)
        if not pool:
            pool = self._env.registry.nearest(segment.midpoint, k=self.k)
        picks = list(pool)
        self._rng.shuffle(picks)
        picks = picks[: self.k]
        n = len(picks)
        unknown = IntervalArray(np.zeros(n), np.ones(n))
        placeholder = np.zeros(n)
        return build_table_from_arrays(
            segment_index=segment.index,
            origin=segment.midpoint,
            generated_at_h=now_h,
            radius_km=self.radius_km,
            components=ComponentArrays(
                np.array([charger.charger_id for charger in picks], dtype=np.int64),
                unknown,
                unknown,
                unknown,
            ),
            sc_min=placeholder,
            sc_max=placeholder,
            chosen_rows=range(n),
            chargers=picks,
            eta_h=eta_h,
        )

    def reset(self) -> None:
        """Re-seed so repeated runs over the same trip are reproducible."""
        self._rng = np.random.default_rng(self._seed)
