"""Tail-based trace sampling: keep the traces that explain the burn.

The tracer's retention ring is bounded (``max_traces``), and head-based
FIFO eviction — drop the oldest — is exactly wrong under overload: a
storm produces so many traces that the anomalous ones (errors, deadline
sheds, degraded serves) are flushed out by the healthy ones that follow.
Tail-based sampling decides *after* a trace finishes, when its outcome
is known:

* **must-keep** — any trace containing an error span, a
  deadline-expired outcome, or a degraded serve (brownout level > 0,
  widened intervals, epoch-degraded, stale) is always retained and is
  *never* evicted, even if that means the ring temporarily exceeds its
  bound during an incident — the invariant the retention tests pin;
* **top-K slowest** — the K slowest traces per time window are kept
  (latency outliers explain p99 burn even when nothing errored);
* **hash-sampled rest** — everything else is kept at ``sample_rate``,
  decided by a deterministic blake2s hash of the trace ID, so two runs
  of the same storm retain the byte-identical trace set (no PRNG, no
  wall clock).

Exemplar support closes the loop: histogram buckets carry the trace ID
of a recent observation (:meth:`~.metrics.Histogram.observe`), and
:func:`collect_exemplars` filters those links down to retained traces,
so a latency bucket in the exposition points at a trace that is
actually still in the ring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..validation import require_finite
from .metrics import MetricsRegistry
from .tracing import Span

#: Classification reasons that make a trace unevictable.
MUST_KEEP_REASONS = frozenset({"error", "deadline", "degraded"})

#: The root-span attribute the sampler stamps its decision on.
REASON_ATTRIBUTE = "sampling.reason"


@dataclass(frozen=True, slots=True)
class SamplingPolicy:
    """Knobs of the tail sampler (all deterministic)."""

    #: Top-K slowest traces retained per ``slow_window_s`` window.
    slow_k: int = 4
    slow_window_s: float = 60.0
    #: Keep probability for unremarkable traces (hash-derived, seedless).
    sample_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.slow_k < 0:
            raise ValueError("slow_k must be non-negative")
        require_finite("slow_window_s", self.slow_window_s, above=0.0)
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")


@dataclass(slots=True)
class SamplerStats:
    """Exact retention accounting: every finished root trace is either
    kept (by reason) or dropped, and evictions only ever remove
    previously-kept non-must-keep traces."""

    kept: dict[str, int] = field(default_factory=dict)
    dropped: int = 0
    evicted: int = 0

    def kept_total(self) -> int:
        return sum(self.kept.values())

    def must_keep_total(self) -> int:
        return sum(self.kept.get(reason, 0) for reason in sorted(MUST_KEEP_REASONS))

    def as_dict(self) -> dict[str, Any]:
        return {
            "kept": dict(sorted(self.kept.items())),
            "dropped": self.dropped,
            "evicted": self.evicted,
        }


def hash_fraction(trace_id: str) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from a trace ID —
    blake2s, like :func:`~.tracing.trip_correlation_id`, never a PRNG."""
    digest = hashlib.blake2s(trace_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class TailSampler:
    """The retention decision the tracer delegates to at root-span exit.

    The tracer appends the finished root to its ring and then calls
    :meth:`admit`; the sampler either blesses it with a keep reason
    (stamped on the root's attributes) or pops it back off, then evicts
    oldest evictable traces while the ring exceeds its bound.  Must-keep
    traces are structurally unevictable: eviction skips them, and when
    only must-keeps remain the ring is allowed to exceed ``max_traces``.
    """

    def __init__(self, policy: SamplingPolicy | None = None) -> None:
        self.policy = policy if policy is not None else SamplingPolicy()
        self.stats = SamplerStats()
        #: Durations of kept top-K traces per slow window, sorted
        #: ascending (index 0 is the eviction candidate).
        self._slow: dict[int, list[float]] = {}

    def admit(self, traces: list[Span], root: Span, max_traces: int) -> str | None:
        """Decide the just-appended ``root``'s fate; returns the keep
        reason or None (dropped)."""
        reason = self._classify(root)
        if reason is None:
            traces.pop()
            self.stats.dropped += 1
            return None
        root.attributes[REASON_ATTRIBUTE] = reason
        self.stats.kept[reason] = self.stats.kept.get(reason, 0) + 1
        self._evict(traces, max_traces)
        return reason

    def _classify(self, root: Span) -> str | None:
        if any(span.status == "error" for span in root.walk()):
            return "error"
        attrs = root.attributes
        if attrs.get("outcome") == "shed-deadline":
            return "deadline"
        if (
            attrs.get("outcome") == "stale"
            or bool(attrs.get("widened"))
            or bool(attrs.get("epoch_degraded"))
            or int(attrs.get("brownout") or 0) > 0
        ):
            return "degraded"
        if self._is_slow(root):
            return "slow"
        if hash_fraction(root.trace_id) < self.policy.sample_rate:
            return "sampled"
        return None

    def _is_slow(self, root: Span) -> bool:
        if self.policy.slow_k == 0:
            return False
        end_s = root.end_s if root.end_s is not None else root.start_s
        window = int(end_s // self.policy.slow_window_s)
        kept = self._slow.setdefault(window, [])
        duration = root.duration_s
        if len(kept) < self.policy.slow_k:
            kept.append(duration)
            kept.sort()
            return True
        if duration > kept[0]:
            # The displaced duration's trace stays in the ring but loses
            # its top-K seat — it becomes an ordinary eviction candidate.
            kept[0] = duration
            kept.sort()
            return True
        return False

    def _evict(self, traces: list[Span], max_traces: int) -> None:
        while len(traces) > max_traces:
            victim_index = None
            for i, trace in enumerate(traces):
                if trace.attributes.get(REASON_ATTRIBUTE) not in MUST_KEEP_REASONS:
                    victim_index = i
                    break
            if victim_index is None:
                # Only must-keep traces remain: the ring may exceed its
                # bound rather than lose the evidence.
                return
            del traces[victim_index]
            self.stats.evicted += 1


def retained_trace_ids(traces: Iterable[Span]) -> set[str]:
    """The distinct trace IDs currently retained in a tracer's ring."""
    return {trace.trace_id for trace in traces}


def collect_exemplars(
    registry: MetricsRegistry, retained: set[str]
) -> list[dict[str, Any]]:
    """Histogram-bucket → trace links restricted to retained traces.

    Each entry is ``{metric, labels, le, trace_id}``; buckets whose
    exemplar trace was dropped or evicted are omitted — an exemplar must
    point at a trace an operator can still open.
    """
    out: list[dict[str, Any]] = []
    for family in registry.families():
        if family.kind != "histogram":
            continue
        for sample in family.samples():
            for le, trace_id in sample.get("exemplars", {}).items():
                if trace_id in retained:
                    out.append(
                        {
                            "metric": family.name,
                            "labels": dict(sample["labels"]),
                            "le": le,
                            "trace_id": trace_id,
                        }
                    )
    return out
