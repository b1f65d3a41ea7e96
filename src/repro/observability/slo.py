"""SLO objectives and multi-window, multi-burn-rate evaluation.

An *SLO* here is a target fraction of good events (availability of
served-fresh answers, requests under a latency bound, zero unsound
tables), and a *burn rate* is how fast the error budget is being spent:

    burn = (bad fraction over a window) / (1 - target)

``burn == 1`` consumes exactly the budget over the SLO period;
``burn == 14.4`` (the SRE-workbook page threshold) exhausts a 30-day
budget in two days.  One window alone either pages too slowly (long
window) or flaps (short window), so each severity evaluates a *pair*:
the alert condition is ``burn(long) >= threshold AND burn(short) >=
threshold`` — the long window proves sustained damage, the short window
proves it is still happening (and lets the alert resolve quickly once
the bleeding stops).

Everything reads through a :class:`~.windows.WindowedAggregator` on the
injected clock, so a seeded storm produces the same burn numbers — and
therefore the same alert transitions (:mod:`.alerts`) — every run.
Burn rates are capped at :data:`BURN_CAP` rather than returned as
``inf`` (a zero-budget objective with any bad event would otherwise
poison the canonical-JSON artifacts, which reject NaN/Inf).

This module is rank-low by design (repro-check R14): objectives over
serving-tier metrics name outcome strings literally instead of
importing ``repro.server``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..validation import require_finite
from .metrics import MetricError
from .windows import WindowedAggregator

#: Finite stand-in for an infinite burn rate (zero-budget SLO violated).
BURN_CAP = 1e6

#: Terminal serving outcomes: the scheduler's ``Outcome`` values spelled
#: as literals (importing the server tier here would invert the R14
#: layering — observability must stay importable from below).  A test
#: holds them equal to the enum and to the scheduler's exported labels.
SERVING_OUTCOMES: tuple[str, ...] = (
    "completed",
    "stale",
    "shed-deadline",
    "shed-queue",
    "shed-brownout",
    "rejected-rate",
    "rejected-capacity",
    "failed",
)


@dataclass(frozen=True, slots=True)
class BurnWindowPair:
    """One severity's (long, short) burn-rate windows.

    The canonical SRE-workbook pairs — page at 14.4x over 1h/5m, ticket
    at 6x over 6h/30m — are the defaults; the simulated storm driver
    passes scaled-down pairs so a CI run measured in simulated seconds
    exercises the same machinery.
    """

    severity: str
    long_s: float
    short_s: float
    threshold: float
    #: How long the condition must hold before pending becomes firing.
    for_s: float

    def __post_init__(self) -> None:
        require_finite("short_s", self.short_s, above=0.0)
        require_finite("long_s", self.long_s, at_least=self.short_s)
        require_finite("threshold", self.threshold, above=0.0)
        require_finite("for_s", self.for_s, at_least=0.0)


DEFAULT_PAIRS: tuple[BurnWindowPair, ...] = (
    BurnWindowPair(severity="page", long_s=3600.0, short_s=300.0, threshold=14.4, for_s=120.0),
    BurnWindowPair(severity="ticket", long_s=21600.0, short_s=1800.0, threshold=6.0, for_s=900.0),
)


@dataclass(frozen=True, slots=True)
class BurnSignal:
    """One (objective, severity) evaluation at one tick — the alert
    state machine's input."""

    alert: str
    severity: str
    active: bool
    burn_long: float
    burn_short: float
    for_s: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "alert": self.alert,
            "severity": self.severity,
            "active": self.active,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
        }


class ServiceLevelObjective:
    """Base: a named target over good/bad event counts per window."""

    def __init__(
        self,
        name: str,
        target: float,
        description: str = "",
        pairs: Sequence[BurnWindowPair] = DEFAULT_PAIRS,
    ) -> None:
        if not 0.0 < target <= 1.0:
            raise ValueError("SLO target must be in (0, 1]")
        if not pairs:
            raise ValueError("an SLO needs at least one burn-window pair")
        self.name = name
        self.target = target
        self.description = description
        self.pairs = tuple(pairs)

    def good_bad(
        self, windows: WindowedAggregator, window_s: float
    ) -> tuple[float, float]:
        raise NotImplementedError

    def burn_rate(self, windows: WindowedAggregator, window_s: float) -> float:
        """Error-budget burn over one trailing window (capped, finite)."""
        good, bad = self.good_bad(windows, window_s)
        total = good + bad
        if total <= 0:
            return 0.0
        budget = 1.0 - self.target
        if budget <= 0.0:
            return BURN_CAP if bad > 0 else 0.0
        return min(BURN_CAP, (bad / total) / budget)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "target": self.target,
            "description": self.description,
            "pairs": [
                {
                    "severity": pair.severity,
                    "long_s": pair.long_s,
                    "short_s": pair.short_s,
                    "threshold": pair.threshold,
                    "for_s": pair.for_s,
                }
                for pair in self.pairs
            ],
        }


class EventRatioSLO(ServiceLevelObjective):
    """Good = selected label sets of one counter; total = a wider set.

    E.g. availability of served-fresh: good is
    ``scheduler_requests_total{outcome="completed"}``, total is the same
    family summed over every terminal outcome.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        good_labels: Sequence[Mapping[str, str]],
        total_labels: Sequence[Mapping[str, str]],
        target: float,
        description: str = "",
        pairs: Sequence[BurnWindowPair] = DEFAULT_PAIRS,
    ) -> None:
        super().__init__(name, target, description, pairs)
        self.metric = metric
        self.good_labels = tuple(dict(labels) for labels in good_labels)
        self.total_labels = tuple(dict(labels) for labels in total_labels)

    def good_bad(
        self, windows: WindowedAggregator, window_s: float
    ) -> tuple[float, float]:
        good = sum(
            windows.counter_delta(self.metric, labels, window_s)
            for labels in self.good_labels
        )
        total = sum(
            windows.counter_delta(self.metric, labels, window_s)
            for labels in self.total_labels
        )
        return good, max(0.0, total - good)


class LatencyBucketSLO(ServiceLevelObjective):
    """Good = observations at-or-under a bucket bound of one histogram.

    ``threshold_s`` must be an exact bucket bound — the cumulative count
    at that bound *is* the good count, no interpolation, no estimation
    error in the SLI itself.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        threshold_s: float,
        target: float,
        labels: Mapping[str, str] | None = None,
        description: str = "",
        pairs: Sequence[BurnWindowPair] = DEFAULT_PAIRS,
    ) -> None:
        super().__init__(name, target, description, pairs)
        self.metric = metric
        self.threshold_s = threshold_s
        self.labels = dict(labels) if labels else None

    def good_bad(
        self, windows: WindowedAggregator, window_s: float
    ) -> tuple[float, float]:
        window = windows.histogram_delta(self.metric, self.labels, window_s)
        try:
            index = window.bounds.index(self.threshold_s)
        except ValueError:
            raise MetricError(
                f"latency SLO '{self.name}': threshold {self.threshold_s} is not "
                f"a bucket bound of '{self.metric}' {window.bounds}"
            ) from None
        good = float(window.cumulative[index])
        return good, max(0.0, float(window.count) - good)


class ZeroEventSLO(ServiceLevelObjective):
    """A forbidden-event objective: the budget is zero, any occurrence
    in the window burns at :data:`BURN_CAP` (interval soundness — one
    unsound table is one too many)."""

    def __init__(
        self,
        name: str,
        metric: str,
        labels: Mapping[str, str] | None = None,
        description: str = "",
        pairs: Sequence[BurnWindowPair] = DEFAULT_PAIRS,
    ) -> None:
        super().__init__(name, 1.0, description, pairs)
        self.metric = metric
        self.labels = dict(labels) if labels else None

    def good_bad(
        self, windows: WindowedAggregator, window_s: float
    ) -> tuple[float, float]:
        bad = windows.counter_delta(self.metric, self.labels, window_s)
        # ``good`` is a synthetic 1 so burn_rate's total is never zero:
        # the objective is about the *presence* of bad events, not a
        # ratio over traffic.
        return 1.0, max(0.0, bad)


class SLOEngine:
    """Evaluates every objective's burn-window pairs at one tick."""

    def __init__(self, windows: WindowedAggregator, objectives: Sequence[ServiceLevelObjective]) -> None:
        if not objectives:
            raise ValueError("the SLO engine needs at least one objective")
        names = [slo.name for slo in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.windows = windows
        self.objectives = tuple(objectives)

    def evaluate(self) -> list[BurnSignal]:
        """Burn signals for every (objective, severity), in declaration
        order — deterministic input order for the alert state machine."""
        signals: list[BurnSignal] = []
        for slo in self.objectives:
            for pair in slo.pairs:
                burn_long = slo.burn_rate(self.windows, pair.long_s)
                burn_short = slo.burn_rate(self.windows, pair.short_s)
                signals.append(
                    BurnSignal(
                        alert=f"{slo.name}:{pair.severity}",
                        severity=pair.severity,
                        active=(
                            burn_long >= pair.threshold
                            and burn_short >= pair.threshold
                        ),
                        burn_long=burn_long,
                        burn_short=burn_short,
                        for_s=pair.for_s,
                    )
                )
        return signals

    def as_dict(self) -> dict[str, Any]:
        return {"objectives": [slo.as_dict() for slo in self.objectives]}


def default_serving_slos(
    availability_target: float = 0.95,
    latency_threshold_s: float = 1.0,
    latency_target: float = 0.95,
    pairs: Sequence[BurnWindowPair] = DEFAULT_PAIRS,
    soundness_pairs: Sequence[BurnWindowPair] | None = None,
) -> list[ServiceLevelObjective]:
    """The serving tier's canonical objectives over its native families:

    * **availability** — fresh completions over all terminal outcomes of
      ``ecocharge_scheduler_requests_total``;
    * **latency** — served answers under ``latency_threshold_s`` per
      ``ecocharge_served_latency_seconds`` buckets;
    * **soundness** — zero ``ecocharge_unsound_tables_total`` events.
    """
    return [
        EventRatioSLO(
            name="serving-availability",
            metric="ecocharge_scheduler_requests_total",
            good_labels=[{"outcome": "completed"}],
            total_labels=[{"outcome": outcome} for outcome in SERVING_OUTCOMES],
            target=availability_target,
            description="fraction of requests served fresh (completed)",
            pairs=pairs,
        ),
        LatencyBucketSLO(
            name="serving-latency",
            metric="ecocharge_served_latency_seconds",
            threshold_s=latency_threshold_s,
            target=latency_target,
            description=f"fraction of served answers under {latency_threshold_s}s",
            pairs=pairs,
        ),
        ZeroEventSLO(
            name="interval-soundness",
            metric="ecocharge_unsound_tables_total",
            description="no served table may carry an unsound interval",
            pairs=soundness_pairs if soundness_pairs is not None else pairs,
        ),
    ]
