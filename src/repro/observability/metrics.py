"""Process-local metrics registry: counters, gauges, and histograms.

The substrate every tier's accounting is exported through.  A family
holds *counted children* (incremented at instrumented call sites) and
*read-through sources*: readers over a stats object that stays the one
store of its counts (``CacheStats``, ``EngineStats``, ``ApiUsage``,
``EndpointHealth``, ``SchedulerStats``, ...), evaluated at collection
time.  Design constraints, in order:

* **cheap on the hot path** — the serving stack is single-threaded per
  process, so instruments are plain attribute updates with no locking;
  a labelled child is resolved once and cached, so steady-state
  ``inc()``/``observe()`` is one dict-free method call;
* **fixed cardinality** — histograms use fixed bucket bounds declared at
  registration, and every label of every family admits at most
  :data:`DEFAULT_LABEL_VALUE_LIMIT` distinct values (``max_label_values``
  overrides the cap per label); later values land in
  :data:`OVERFLOW_BUCKET` and count a guard trip, so no request-derived
  value can grow the registry without bound;
* **exact export** — snapshots are plain dicts of ints/floats, rendered
  by :mod:`.export` as Prometheus text exposition or canonical JSON with
  no rounding, so a read-through sample equals its stats field exactly;
* **count once** — a source is registered under its owner's identity
  and a second registration replaces the first, so a resumed session or
  a re-installed recorder never adds a count twice.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Where over-limit label values land when a family's cardinality guard
#: trips.  A reserved value (label *names* may not start with ``__``, so
#: no legitimate series can collide with it) that keeps totals exact:
#: the increment still happens, just against the shared bucket.
OVERFLOW_BUCKET = "__other__"

#: The registry-level meta-counter that counts cardinality-guard trips,
#: one per ``labels()`` resolution routed into :data:`OVERFLOW_BUCKET`.
OVERFLOW_COUNTER = "ecocharge_label_overflow_total"

#: The cap on distinct values of every label of every family, unless
#: ``max_label_values`` names a different one for that label.  Every
#: native label is an enumeration far below it (outcomes, endpoints,
#: ladder levels, shards); only a value spliced from request data can
#: reach it.
DEFAULT_LABEL_VALUE_LIMIT = 64

#: Default latency buckets (seconds): 100 us .. 10 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Bad metric name, label, bucket layout, or type collision."""


class Counter:
    """Monotonically non-decreasing value (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket cumulative histogram (one labelled child).

    ``bounds`` are the *upper* bounds of the finite buckets; an implicit
    ``+Inf`` bucket always exists, so ``counts`` has ``len(bounds) + 1``
    slots and the Prometheus cumulative convention is computed at export.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "exemplars")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        #: Latest exemplar (e.g. a retained trace ID) per bucket index —
        #: the link from a histogram bucket back to a trace that landed
        #: in it.  Last-writer-wins keeps this O(buckets), not O(obs).
        self.exemplars: dict[int, str] = {}

    def observe(self, value: float, exemplar: str | None = None) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                if exemplar is not None:
                    self.exemplars[i] = exemplar
                return
        self.counts[-1] += 1
        if exemplar is not None:
            self.exemplars[len(self.bounds)] = exemplar

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts in ``le`` order (ending at +Inf)."""
        out: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


_Instrument = Counter | Gauge | Histogram

#: A read-through source: the current value per label-value tuple (in
#: the family's label order), read from its owner at collection time.
Reader = Callable[[], Mapping[tuple[str, ...], float]]


def field_readings(stats: Any) -> dict[tuple[str, ...], float]:
    """One ``(field name,)`` reading per dataclass field of ``stats`` —
    the reader shape of an ``event``-labelled family."""
    return {(f.name,): float(getattr(stats, f.name)) for f in fields(stats)}


def hit_ratio(hits: float, misses: float) -> float:
    """``hits / (hits + misses)``, 0.0 before the first lookup.

    Callers pass each counter read exactly once: under concurrent
    mutation, re-reading between numerator and denominator can observe
    two generations of the stats and report a rate above 1.
    """
    total = hits + misses
    return hits / total if total else 0.0


class MetricFamily:
    """One named metric with a fixed label schema and typed children."""

    __slots__ = (
        "name",
        "kind",
        "help",
        "label_names",
        "_buckets",
        "_children",
        "_limits",
        "_admitted",
        "_on_overflow",
        "_sources",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
        limits: Mapping[str, int] | None = None,
        on_overflow: Callable[[str, str], None] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._buckets = buckets
        self._children: dict[tuple[str, ...], _Instrument] = {}
        #: Hard cardinality caps per label name (the guard of
        #: ``docs/observability.md``; the registry sets one on every
        #: label): the first ``limit`` distinct values seen get their
        #: own series, everything after lands in
        #: :data:`OVERFLOW_BUCKET` and counts one guard trip.
        self._limits = dict(limits) if limits else {}
        self._admitted: dict[str, set[str]] = {name: set() for name in self._limits}
        self._on_overflow = on_overflow
        #: Read-through sources by owner identity (see :meth:`read_from`).
        self._sources: dict[Hashable, Reader] = {}

    def labels(self, **labels: str) -> Any:
        """The child instrument for one label-value combination.

        Children are created on first use and cached; hot call sites
        should hold the returned child rather than re-resolve labels.
        Capped labels (all of them, on a registry's families) rewrite
        over-limit values to :data:`OVERFLOW_BUCKET` *before* the child
        lookup, so the total across all series — overflow included —
        stays exact.
        """
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise MetricError(
                f"metric '{self.name}' takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(self._guard(name, str(labels[name])) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _guard(self, label: str, value: str) -> str:
        """Apply the cardinality cap for one label value."""
        limit = self._limits.get(label)
        if limit is None:
            return value
        admitted = self._admitted[label]
        if value in admitted:
            return value
        if len(admitted) < limit:
            admitted.add(value)
            return value
        if self._on_overflow is not None:
            self._on_overflow(self.name, label)
        return OVERFLOW_BUCKET

    @property
    def buckets(self) -> tuple[float, ...]:
        """Histogram bucket bounds (empty for counters/gauges)."""
        return self._buckets or ()

    def read_from(self, owner: Hashable, reader: Reader) -> None:
        """Read ``owner``'s counts through ``reader`` at every collection.

        A second registration under the same owner replaces the first,
        so re-installing a recorder (or resuming a session under its old
        id) never counts twice.  Sources are summed per label set, and
        with any counted children of the same key.
        """
        if self.kind == "histogram":
            raise MetricError(f"histogram '{self.name}' cannot read through")
        self._sources[owner] = reader

    def values(self) -> dict[tuple[str, ...], float]:
        """Counter/gauge value per label-value key: counted children plus
        every source's reading."""
        out = {key: child.value for key, child in self._children.items()}
        for reader in self._sources.values():
            for key, value in reader().items():
                if len(key) != len(self.label_names):
                    raise MetricError(
                        f"source of '{self.name}' read key {key}; "
                        f"labels are {self.label_names}"
                    )
                out[key] = out.get(key, 0.0) + value
        return out

    def children(self) -> Iterable[tuple[tuple[str, ...], "_Instrument"]]:
        """``(label-value key, instrument)`` pairs in sorted key order —
        the stable iteration the window aggregator snapshots.  A key fed
        by a source yields a fresh instrument holding the summed value."""
        if not self._sources:
            for key in sorted(self._children):
                yield key, self._children[key]
            return
        for key, value in sorted(self.values().items()):
            reading = self._new_child()
            reading.value = value
            yield key, reading

    def admitted_values(self, label: str) -> frozenset[str]:
        """The distinct values a capped label has admitted so far (for
        exact-accounting assertions; raises on an uncapped label)."""
        if label not in self._admitted:
            raise MetricError(f"label '{label}' on '{self.name}' has no guard")
        return frozenset(self._admitted[label])

    def _new_child(self) -> _Instrument:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        assert self._buckets is not None
        return Histogram(self._buckets)

    # -- unlabelled conveniences (forward to the empty-label child) ---------

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    # -- export -------------------------------------------------------------

    def samples(self) -> list[dict[str, Any]]:
        """Plain-dict samples, label-sorted, for snapshots and exporters."""
        out: list[dict[str, Any]] = []
        for key, child in self.children():
            labels = dict(zip(self.label_names, key))
            if isinstance(child, Histogram):
                buckets: dict[str, int] = {}
                for bound, cum in zip(child.bounds, child.cumulative()):
                    buckets[format_float(bound)] = cum
                buckets["+Inf"] = child.count
                sample: dict[str, Any] = {
                    "labels": labels,
                    "buckets": buckets,
                    "sum": child.sum,
                    "count": child.count,
                }
                if child.exemplars:
                    names = [format_float(b) for b in child.bounds] + ["+Inf"]
                    sample["exemplars"] = {
                        names[i]: child.exemplars[i] for i in sorted(child.exemplars)
                    }
                out.append(sample)
            else:
                out.append({"labels": labels, "value": child.value})
        return out


class MetricsRegistry:
    """All metric families of one telemetry instance."""

    __slots__ = ("_families",)

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def counter(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        max_label_values: Mapping[str, int] | None = None,
    ) -> MetricFamily:
        return self._register(name, "counter", help_text, labels, None, max_label_values)

    def gauge(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        max_label_values: Mapping[str, int] | None = None,
    ) -> MetricFamily:
        return self._register(name, "gauge", help_text, labels, None, max_label_values)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        max_label_values: Mapping[str, int] | None = None,
    ) -> MetricFamily:
        bounds = tuple(buckets)
        if not bounds:
            raise MetricError(f"histogram '{name}' needs at least one bucket bound")
        if any(not b < c for b, c in zip(bounds, bounds[1:])) or any(
            math.isinf(b) or math.isnan(b) for b in bounds
        ):
            raise MetricError(
                f"histogram '{name}' bounds must be finite and strictly increasing"
            )
        return self._register(name, "histogram", help_text, labels, bounds, max_label_values)

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        buckets: tuple[float, ...] | None,
        max_label_values: Mapping[str, int] | None = None,
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise MetricError(f"bad metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricError(f"bad label name {label!r} on metric '{name}'")
        overrides = dict(max_label_values) if max_label_values else {}
        for label, limit in overrides.items():
            if label not in label_names:
                raise MetricError(
                    f"guarded label '{label}' is not in '{name}' schema {label_names}"
                )
            if limit < 1:
                raise MetricError(
                    f"cardinality limit for '{label}' on '{name}' must be positive"
                )
        if name == OVERFLOW_COUNTER:
            # Its values are this registry's (family, label) pairs, so
            # the code bounds them; a cap here would count its own trips.
            limits: dict[str, int] = {}
        else:
            limits = {label: DEFAULT_LABEL_VALUE_LIMIT for label in label_names}
            limits.update(overrides)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise MetricError(
                    f"metric '{name}' already registered as {existing.kind}"
                    f"{existing.label_names}; cannot re-register as {kind}{label_names}"
                )
            if overrides and limits != existing._limits:
                raise MetricError(
                    f"metric '{name}' already registered with cardinality limits "
                    f"{existing._limits}; cannot re-register with {limits}"
                )
            return existing
        family = MetricFamily(
            name,
            kind,
            help_text,
            label_names,
            buckets,
            limits=limits,
            on_overflow=self._count_overflow if limits else None,
        )
        self._families[name] = family
        return family

    def _count_overflow(self, metric: str, label: str) -> None:
        """One cardinality-guard trip: a label value was rewritten to
        :data:`OVERFLOW_BUCKET`.  Counted in a registry-level meta-family
        so overflow is *accounted*, never silent."""
        family = self._families.get(OVERFLOW_COUNTER)
        if family is None:
            family = self._register(
                OVERFLOW_COUNTER,
                "counter",
                "Cardinality-guard trips: label values bucketed into "
                f"'{OVERFLOW_BUCKET}', by family and label.",
                ("label", "metric"),
                None,
            )
        family.labels(metric=metric, label=label).inc()

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def freeze(self, owner: Hashable) -> None:
        """Keep ``owner``'s current readings and drop its readers — and
        with them the registry's last reference to the owner (a closed
        session's counts stay exported)."""
        for family in self._families.values():
            reader = family._sources.get(owner)
            if reader is not None:
                reading = dict(reader())
                family._sources[owner] = lambda reading=reading: reading

    def families(self) -> Iterable[MetricFamily]:
        for name in sorted(self._families):
            yield self._families[name]

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as a plain, JSON-serialisable dict."""
        out: dict[str, Any] = {}
        for family in self.families():
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": family.samples(),
            }
        return out

    def sample_value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float | None:
        """One counter/gauge sample value (None when absent)."""
        family = self._families.get(name)
        if family is None:
            return None
        wanted = dict(labels) if labels else {}
        for sample in family.samples():
            if sample["labels"] == wanted and "value" in sample:
                return float(sample["value"])
        return None


def histogram_quantile(
    bounds: Sequence[float], cumulative: Sequence[int], q: float
) -> float:
    """Bucket-interpolated quantile over cumulative histogram counts.

    ``bounds`` are the finite upper bucket bounds and ``cumulative`` the
    ``le``-ordered cumulative counts *including* the trailing ``+Inf``
    entry (``len(bounds) + 1`` values — exactly what
    :meth:`Histogram.cumulative` plus :attr:`Histogram.count` produce).
    Deterministic by construction: the rank is the nearest-rank ceiling
    (``max(1, ceil(q * total))``), located by scanning the cumulative
    counts, then linearly interpolated inside its bucket — so when every
    observation sits exactly on a bucket bound and no bucket holds more
    than one, the result *equals* the nearest-rank percentile (the
    property test against :func:`repro.simulation.percentile`).

    The implicit lower bound of the first bucket is ``0.0`` and a rank
    that lands in the ``+Inf`` bucket returns the last finite bound —
    both Prometheus ``histogram_quantile`` conventions.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError("q must be in [0, 1]")
    if len(cumulative) != len(bounds) + 1:
        raise MetricError(
            f"cumulative needs {len(bounds) + 1} entries (got {len(cumulative)})"
        )
    if any(b > c for b, c in zip(cumulative, cumulative[1:])):
        raise MetricError("cumulative counts must be non-decreasing")
    total = cumulative[-1]
    if total <= 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    for i, cum in enumerate(cumulative):
        if cum >= rank:
            if i == len(bounds):
                return bounds[-1]
            lower = bounds[i - 1] if i > 0 else 0.0
            prev = cumulative[i - 1] if i > 0 else 0
            fraction = (rank - prev) / (cum - prev)
            return lower + fraction * (bounds[i] - lower)
    raise MetricError("unreachable: rank exceeds total")  # pragma: no cover


def format_float(value: float) -> str:
    """Canonical number rendering shared by both exporters: integers as
    integers (``3`` not ``3.0``), everything else via ``repr`` (shortest
    round-tripping form)."""
    if value == int(value) and abs(value) < 1e15 and not math.isinf(value):
        return str(int(value))
    return repr(value)
