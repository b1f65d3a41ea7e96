"""Brownout: graceful degradation under queue pressure.

Instead of collapsing when a shard's queue fills, the scheduler walks a
degradation ladder keyed to queue depth — the serving-tier twin of the
resilience gateway's upstream ladder (``docs/resilience.md``):

1. **NORMAL** — compute fresh answers.
2. **SERVE_STALE** — prefer a bounded-staleness answer from the shard's
   response cache over fresh computation (explicitly marked stale).
3. **WIDEN** — additionally widen every served interval: the system
   keeps answering, but honestly reports the extra uncertainty that
   skipped refreshes introduce.  Widening is *sound by construction* —
   a widened interval contains the original, and every original
   forecast interval contains its ground truth — so a brownout answer
   is never a lie, just a humbler truth.
4. **SHED_REFRESH** — additionally drop refresh/background submissions
   at admission, reserving the remaining capacity for interactive work.

Thresholds are deterministic fractions of queue capacity, so a seeded
burst replays the exact same brownout trajectory every run.
"""

from __future__ import annotations

import math
from enum import IntEnum

from ...core.offering import OfferingTable, build_table
from ...core.scoring import ComponentScores, Weights, sc_score
from ...intervals import Interval


class BrownoutLevel(IntEnum):
    """The degradation ladder, ordered: higher levels include the lower
    ones' behaviour (WIDEN also serves stale; SHED_REFRESH does both)."""

    NORMAL = 0
    SERVE_STALE = 1
    WIDEN = 2
    SHED_REFRESH = 3


class BrownoutController:
    """Maps a shard's queue depth to a :class:`BrownoutLevel`.

    ``level_for(depth, capacity)`` is a pure function of its arguments
    *and* the controller's explicit alert floor — there is still no
    hidden hysteresis, which keeps the chaos tests' expected
    trajectories derivable by hand.  The floor (default NORMAL, i.e. no
    effect) is the alert-driven degradation hook: when the scheduler's
    ``alert_driven_brownout`` flag is on, firing SLO alerts raise the
    floor via :meth:`set_alert_floor` and the served level is the *max*
    of the queue-derived level and the floor — burn-rate evidence can
    only deepen degradation, never mask queue pressure.
    """

    def __init__(
        self,
        serve_stale_at: float = 0.5,
        widen_at: float = 0.75,
        shed_refresh_at: float = 0.9,
        widen_factor: float = 0.5,
    ) -> None:
        if not 0.0 < serve_stale_at <= widen_at <= shed_refresh_at <= 1.0:
            raise ValueError(
                "brownout thresholds must satisfy 0 < serve_stale <= widen <= shed <= 1"
            )
        if widen_factor < 0:
            raise ValueError("widen_factor must be non-negative")
        self.serve_stale_at = serve_stale_at
        self.widen_at = widen_at
        self.shed_refresh_at = shed_refresh_at
        self.widen_factor = widen_factor
        self.alert_floor = BrownoutLevel.NORMAL

    def set_alert_floor(self, level: BrownoutLevel) -> None:
        """Install the alert-driven minimum ladder level (NORMAL clears)."""
        self.alert_floor = BrownoutLevel(level)

    def level_for(self, depth: int, capacity: int) -> BrownoutLevel:
        """The ladder level for a queue at ``depth`` of ``capacity``."""
        if capacity < 1:
            raise ValueError("capacity must be positive")
        fill = depth / capacity
        if fill >= self.shed_refresh_at:
            level = BrownoutLevel.SHED_REFRESH
        elif fill >= self.widen_at:
            level = BrownoutLevel.WIDEN
        elif fill >= self.serve_stale_at:
            level = BrownoutLevel.SERVE_STALE
        else:
            level = BrownoutLevel.NORMAL
        return max(level, self.alert_floor)


def floor_for_alert_severities(severities: "list[str] | tuple[str, ...]") -> BrownoutLevel:
    """The brownout floor implied by the currently-firing alert set.

    Deterministic mapping, deliberately conservative: a single firing
    **page** (fast-burn) alert forces serve-stale — shed load by
    answering from cache; two or more pages force interval widening on
    top.  **Ticket** (slow-burn) alerts alone do not degrade serving —
    they exist to open work items, not to change behaviour.
    """
    pages = sum(1 for severity in severities if severity == "page")
    if pages >= 2:
        return BrownoutLevel.WIDEN
    if pages == 1:
        return BrownoutLevel.SERVE_STALE
    return BrownoutLevel.NORMAL


def widen_table(table: OfferingTable, factor: float, weights: Weights) -> OfferingTable:
    """``table`` with every component interval widened by ``factor``.

    Each entry's L/A/D interval grows via ``Interval.widened`` (which
    contains the original by contract) and is clamped back into the
    admissible ``[0, 1]`` range; the ground truth lay inside both the
    original interval and ``[0, 1]``, so it lies inside the widened
    clamp too — interval soundness survives brownout.  Scores are
    re-evaluated from the widened components with the same Eq. 4-5
    weights so ``sc_min``/``sc_max`` honestly span the wider scenarios,
    while the *ordering* of entries is preserved: the ranking decision
    was made at compute time and widening must not quietly re-rank.
    """
    rows = []
    for entry in table.entries:
        sustainable = entry.sustainable.widened(factor).clamp(0.0, 1.0)
        availability = entry.availability.widened(factor).clamp(0.0, 1.0)
        derouting = entry.derouting.widened(factor).clamp(0.0, 1.0)
        score = sc_score(
            ComponentScores(
                charger_id=entry.charger_id,
                sustainable=sustainable,
                availability=availability,
                derouting=derouting,
            ),
            weights,
        )
        rows.append(
            (score, entry.charger, sustainable, availability, derouting, entry.eta_h)
        )
    return build_table(
        segment_index=table.segment_index,
        origin=table.origin,
        generated_at_h=table.generated_at_h,
        radius_km=table.radius_km,
        ranked=rows,
        adapted_from=table.adapted_from,
    )


def widen_table_for_epoch(
    table: OfferingTable, ratio_lo: float, ratio_hi: float, weights: Weights
) -> OfferingTable:
    """``table`` (computed on an older live-graph epoch) with derouting
    intervals widened to cover every graph the incidents since could have
    produced.

    ``[ratio_lo, ratio_hi]`` is the :meth:`GraphEpochManager.bound_since`
    bracket: any shortest-path cost ``d`` on the old epoch satisfies
    ``d_new ∈ [ratio_lo * d, ratio_hi * d]`` on the new one, and the
    normalised derouting component is a clamp of ``hours / max_h`` — a
    monotone map — so scaling the old interval's endpoints by the bracket
    and re-clamping to ``[0, 1]`` yields an interval that contains the
    fresh-epoch value (widened ⊇ true).  ``L`` and ``A`` do not depend on
    the road graph and pass through untouched.  Entry *order* is
    preserved exactly as :func:`widen_table` does: the ranking decision
    stays the admission epoch's, honestly re-scored over the wider
    scenarios.

    A closure makes ``ratio_hi`` infinite (the bound is vacuous — the
    caller should recompute on the live graph instead); if called anyway
    the non-finite endpoint saturates to the admissible bound, which is
    still sound for the ``[0, 1]``-clamped component.

    **Adapted tables degrade to the vacuous bound.**  The multiplicative
    bracket is a theorem about pure sums of shortest-path legs; a table
    built by dynamic-cache adaptation (``adapted_from`` set) carries a
    straight-line *additive* shift on every derouting value, and for a
    negative shift ``ratio_lo * d`` can overshoot the fresh value
    (scaling the shift term, which incidents never touched).  Rather
    than serve a plausible-but-unsound interval, adapted tables get the
    full ``[0, 1]`` derouting range — maximally uncertain, trivially
    containing the fresh epoch, and still honestly re-scored.
    """
    if math.isnan(ratio_lo) or math.isnan(ratio_hi):
        raise ValueError("epoch ratio bounds must not be NaN")
    if not 0.0 <= ratio_lo <= 1.0 <= ratio_hi:
        raise ValueError("epoch ratio bounds must bracket 1.0 with ratio_lo >= 0")
    if table.adapted_from is not None and (ratio_lo, ratio_hi) != (1.0, 1.0):
        ratio_lo, ratio_hi = 0.0, math.inf
    rows = []
    for entry in table.entries:
        lo = entry.derouting.lo * ratio_lo
        hi = entry.derouting.hi * ratio_hi
        if math.isinf(hi) or math.isnan(hi):  # inf * 0 -> nan; saturate
            hi = 1.0
        derouting = Interval(lo, hi).clamp(0.0, 1.0)
        score = sc_score(
            ComponentScores(
                charger_id=entry.charger_id,
                sustainable=entry.sustainable,
                availability=entry.availability,
                derouting=derouting,
            ),
            weights,
        )
        rows.append(
            (score, entry.charger, entry.sustainable, entry.availability, derouting, entry.eta_h)
        )
    return build_table(
        segment_index=table.segment_index,
        origin=table.origin,
        generated_at_h=table.generated_at_h,
        radius_km=table.radius_km,
        ranked=rows,
        adapted_from=table.adapted_from,
    )
