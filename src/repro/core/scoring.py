"""Sustainability Score ``SC`` (Eq. 4-6) and weight configurations.

``SC`` blends the three Estimated Components with user-configurable
weights:

    SC_min = L_min * w1 + A_min * w2 + (1 - D_min) * w3     (Eq. 4)
    SC_max = L_max * w1 + A_max * w2 + (1 - D_max) * w3     (Eq. 5)
    SC(B)  = sort(top-k by SC_max  intersect  top-k by SC_min)   (Eq. 6)

Note the paper's convention: ``SC_min`` plugs in each component's *lower*
estimate and ``SC_max`` each component's *upper* estimate.  Because the
derouting term enters as ``1 - D``, the two values are *not* ordered
endpoints of an interval — they are two coherent scenarios ("all lower
estimates" vs "all upper estimates"), and the ranking intersects the two
scenario top-k sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.contracts import ensure, require
from ..interval_array import ComponentArrays


@dataclass(frozen=True, slots=True)
class Weights:
    """Objective weights ``(w1, w2, w3)`` for ``(L, A, D)``.

    Must be non-negative and sum to 1 (the paper's evaluation always uses
    normalised weights).
    """

    sustainable: float
    availability: float
    derouting: float

    def __post_init__(self) -> None:
        values = (self.sustainable, self.availability, self.derouting)
        if any(w < 0 for w in values):
            raise ValueError("weights must be non-negative")
        if abs(sum(values) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(values)}")

    def as_tuple(self) -> tuple[float, float, float]:
        """The weights as ``(w1, w2, w3)``."""
        return (self.sustainable, self.availability, self.derouting)

    @classmethod
    def equal(cls) -> "Weights":
        """AWE — all weights equal, EcoCharge's default (Section V-E)."""
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    @classmethod
    def only_sustainable(cls) -> "Weights":
        """OSC — only the Sustainable Charging Level objective."""
        return cls(1.0, 0.0, 0.0)

    @classmethod
    def only_availability(cls) -> "Weights":
        """OA — only the Availability objective."""
        return cls(0.0, 1.0, 0.0)

    @classmethod
    def only_derouting(cls) -> "Weights":
        """ODC — only the Derouting Cost objective."""
        return cls(0.0, 0.0, 1.0)


#: Named ablation configurations of Section V-E.
ABLATION_CONFIGS: dict[str, Weights] = {
    "AWE": Weights.equal(),
    "OSC": Weights.only_sustainable(),
    "OA": Weights.only_availability(),
    "ODC": Weights.only_derouting(),
}


@dataclass(frozen=True, slots=True)
class ScScore:
    """The two scenario scores of Eq. 4-5 plus derived ranking keys."""

    charger_id: int
    sc_min: float
    sc_max: float

    @property
    def midpoint(self) -> float:
        return (self.sc_min + self.sc_max) / 2.0

    @property
    def pessimistic(self) -> float:
        """The worst of the two scenarios — a conservative ranking key."""
        return min(self.sc_min, self.sc_max)


def sc_exact(
    sustainable: float, availability: float, derouting: float, weights: Weights
) -> float:
    """Point-valued SC for ground-truth component values (the oracle view
    the evaluation normalises against)."""
    w1, w2, w3 = weights.as_tuple()
    return sustainable * w1 + availability * w2 + (1.0 - derouting) * w3


def _scores_normalised(components: ComponentArrays) -> bool:
    return all(
        bool(component.within_bounds(0.0, 1.0, tol=1e-9).all())
        for component in (
            components.sustainable,
            components.availability,
            components.derouting,
        )
    )


def _ranked_top_k(
    result: np.ndarray,
    charger_ids: np.ndarray,
    sc_min: np.ndarray,
    sc_max: np.ndarray,
    k: int,
    pad: bool,
) -> bool:
    ids = charger_ids[result].tolist()
    keys = list(zip(sc_max[result].tolist(), sc_min[result].tolist()))
    return (
        len(ids) <= k
        and len(set(ids)) == len(ids)
        and all(a >= b for a, b in zip(keys, keys[1:]))
        and (not pad or len(ids) == min(k, len(charger_ids)))
    )


@require(_scores_normalised, "Eq. 4-5 need all three EC intervals normalised into [0, 1]")
@ensure(
    lambda result: all(
        bool(((scores >= -1e-9) & (scores <= 1.0 + 1e-9)).all()) for scores in result
    ),
    "scenario scores must stay in [0, 1] for normalised weights",
)
def sc_score_batch(
    components: ComponentArrays, weights: Weights
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 4 and Eq. 5 over a whole pool in six elementwise operations.

    Returns ``(sc_min, sc_max)`` float64 arrays aligned with
    ``components.charger_ids``.  Each element is evaluated with the
    association ``(a*w1 + b*w2) + (1-d)*w3``, so it is bitwise equal to
    the per-charger reference in ``tests/scalar_oracle.py`` — asserted by
    the property tests.
    """
    w1, w2, w3 = weights.as_tuple()
    sc_min = (
        components.sustainable.lo * w1
        + components.availability.lo * w2
        + (1.0 - components.derouting.lo) * w3
    )
    sc_max = (
        components.sustainable.hi * w1
        + components.availability.hi * w2
        + (1.0 - components.derouting.hi) * w3
    )
    return sc_min, sc_max


@ensure(
    _ranked_top_k,
    "Eq. 6 must return at most k unique chargers sorted highest-to-lowest",
)
def intersect_top_k_batch(
    charger_ids: np.ndarray,
    sc_min: np.ndarray,
    sc_max: np.ndarray,
    k: int,
    pad: bool = True,
) -> np.ndarray:
    """Eq. 6: intersect the SC_min top-k with the SC_max top-k; returns
    *row indices* in final order.

    The paper states the intersection "contains k chargers"; with noisy
    intervals it can contain fewer, so with ``pad=True`` (the default, and
    what EcoCharge uses) the result is topped up with the best remaining
    chargers by midpoint score until ``k`` entries are reached.  The
    result is sorted by descending SC_max, tie-broken by SC_min then id —
    "highest to lowest rank" per Algorithm 1 line 17.  Every sort is a
    stable ``np.lexsort`` with the charger id as the last key, and ids
    are unique within a pool, so the order is fully determined.  The
    caller materialises :class:`ScScore` dataclasses only for the
    ``<= k`` selected rows.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    by_min = np.lexsort((charger_ids, -sc_min))[:k]
    by_max = np.lexsort((charger_ids, -sc_max))[:k]
    min_ids = set(charger_ids[by_min].tolist())
    chosen = [int(i) for i in by_max if int(charger_ids[i]) in min_ids]
    if pad and len(chosen) < k:
        chosen_ids = {int(charger_ids[i]) for i in chosen}
        midpoint = (sc_min + sc_max) / 2.0
        for i in np.lexsort((charger_ids, -midpoint)):
            if len(chosen) >= k:
                break
            if int(charger_ids[i]) not in chosen_ids:
                chosen.append(int(i))
    if not chosen:
        return np.empty(0, dtype=np.int64)
    rows = np.array(chosen, dtype=np.int64)
    order = np.lexsort((charger_ids[rows], -sc_min[rows], -sc_max[rows]))
    return rows[order][:k]
