"""Outside-in layer trace: spans recorded from bench code only.

Nothing inside ``src/`` is instrumented for the benchmark.  Instead,
:class:`Probes` installs timing wrappers over the public functions each
layer exposes -- on the instances a workload built, on a few classes, and
on the module names the layers call each other through -- and removes
every one of them afterwards.

Two recording modes keep the trace both complete and cheap:

* a **span** is one record per call (name, start, end, parent, thread,
  trace id): trips, segments, pool scoring, engine queries;
* an **aggregated** call (per-charger estimator calls, gateway fetches,
  cache reads and writes) adds a count, a duration and a self time to its
  enclosing span instead.  One record per call would mean about 10^6
  spans on ``dense-pool``.

Self time is a call's duration minus the time covered by its children.
Stacks are kept per thread, so children are always same-thread calls
and the scheduler's two shard workers never subtract from each other.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Span names that are roots of a unit of work; their self time is work
#: the trace could not attribute to any layer.
ROOT_NAMES = ("core.trip", "server.request")


@dataclass(slots=True)
class Span:
    """One recorded call."""

    span_id: int
    name: str
    start: float
    parent: int | None
    thread: int
    trace_id: str | None
    end: float = 0.0
    self_s: float = 0.0
    #: Aggregated child calls: name -> [calls, total_s, self_s].
    agg: dict[str, list[float]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "trace_id": self.trace_id,
            "self_s": self.self_s,
            "agg": {
                name: {"calls": int(calls), "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.agg.items())
            },
        }


class _Frame:
    """An open call on one thread's stack."""

    __slots__ = ("name", "start", "child_s", "span")

    def __init__(self, name: str, start: float, span: Span | None) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span = span


class Tracer:
    """In-memory span recorder with per-thread call stacks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Per-thread name -> [calls, total_s, self_s]; merged by totals().
        self._thread_totals: list[dict[str, list[float]]] = []

    def _state(self) -> tuple[list[_Frame], dict[str, list[float]]]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.totals = {}
            with self._lock:
                self._thread_totals.append(local.totals)
        return stack, local.totals

    def begin(
        self, name: str, aggregate: bool = False, trace_id: str | None = None
    ) -> _Frame:
        """Open a call on the current thread's stack."""
        stack, _ = self._state()
        span = None
        if not aggregate:
            parent = next((f.span for f in reversed(stack) if f.span is not None), None)
            if trace_id is None and parent is not None:
                trace_id = parent.trace_id
            span = Span(
                span_id=next(self._ids),
                name=name,
                start=0.0,
                parent=None if parent is None else parent.span_id,
                thread=threading.get_ident(),
                trace_id=trace_id,
            )
        frame = _Frame(name, self.clock(), span)
        if span is not None:
            span.start = frame.start
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        """Close ``frame`` (the innermost open call on this thread)."""
        now = self.clock()
        stack, totals = self._state()
        stack.pop()
        duration = now - frame.start
        own = duration - frame.child_s
        if stack:
            stack[-1].child_s += duration
        entry = totals.get(frame.name)
        if entry is None:
            totals[frame.name] = [1, duration, own]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        span = frame.span
        if span is not None:
            span.name = frame.name
            span.end = now
            span.self_s = own
            with self._lock:
                self.spans.append(span)
            return
        owner = next((f.span for f in reversed(stack) if f.span is not None), None)
        if owner is not None:
            agg = owner.agg.get(frame.name)
            if agg is None:
                owner.agg[frame.name] = [1, duration, own]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[2] += own

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per name, over every thread: ``(calls, total_s, self_s)``."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            per_thread = list(self._thread_totals)
        for totals in per_thread:
            for name, (calls, total, own) in totals.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {name: (int(c), t, s) for name, (c, t, s) in merged.items()}

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write every span, oldest first, after ``header``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda span: span.start)
        payload = dict(header, spans=[span.as_dict() for span in spans])
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


#: Marks an attribute the owner did not define itself (it was inherited).
_MISSING = object()


class Probes:
    """Timing wrappers installed over layer entry points, then removed.

    ``wrap`` replaces ``owner.attr`` (an instance, a class or a module)
    with a wrapper that records the call on the tracer; ``remove``
    restores exactly what was there before.  Wrapping the same attribute
    of the same owner twice is a no-op, so shared objects (one charger
    registry behind two shards) are timed once.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._installed: list[tuple[Any, str, Any]] = []
        self._seen: set[tuple[int, str]] = set()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        aggregate: bool = False,
        trace_id: Callable[..., str] | None = None,
        rename: Callable[[Any], str] | None = None,
        observe: Callable[..., None] | None = None,
    ) -> None:
        """Time calls to ``owner.attr`` as ``name``.

        ``trace_id(*args)`` names the trace a root span starts;
        ``rename(result)`` picks the span name once the result is known
        (a segment is a compute or an adapt); ``observe(start_s, result,
        *args)`` sees each call for counters the span cannot carry.
        """
        key = (id(owner), attr)
        if key in self._seen:
            return
        self._seen.add(key)
        own = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.begin(
                name,
                aggregate=aggregate,
                trace_id=None if trace_id is None else trace_id(*args, **kwargs),
            )
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(frame)
                raise
            if rename is not None:
                frame.name = rename(result)
            tracer.end(frame)
            if observe is not None:
                observe(frame.start, result, *args, **kwargs)
            return result

        replacement: Any = wrapper
        if isinstance(own, classmethod):
            replacement = staticmethod(wrapper)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, own))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, own in reversed(self._installed):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._installed.clear()
        self._seen.clear()


def unattributed_frac(tracer: Tracer) -> float:
    """Self time of the root spans over the time the top-level spans
    cover: the share of measured work no layer accounts for."""
    covered = 0.0
    for span in tracer.spans:
        if span.parent is None:
            covered += span.end - span.start
    totals = tracer.totals()
    unattributed = sum(totals[name][2] for name in ROOT_NAMES if name in totals)
    return unattributed / covered if covered > 0 else 0.0


#: Every per-layer metric, in report order, with its unit.  An ``op`` is
#: one unit of attempted work: an Offering Table (a trip segment) in the
#: closed-loop workloads, a submitted request in ``serve-gateway``.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("core.compute.calls", "1/op"),
    ("core.compute.self_ms", "ms/op"),
    ("core.adapt.calls", "1/op"),
    ("core.adapt.self_ms", "ms/op"),
    ("core.adapt_ratio", "frac"),
    ("core.pool.self_ms", "ms/op"),
    ("core.scoring.self_ms", "ms/op"),
    ("core.table.self_ms", "ms/op"),
    ("spatial.filter.self_ms", "ms/op"),
    ("spatial.filter.pool_mean", "count"),
    ("estimation.sustainable.calls", "1/op"),
    ("estimation.sustainable.self_ms", "ms/op"),
    ("estimation.availability.calls", "1/op"),
    ("estimation.availability.self_ms", "ms/op"),
    ("estimation.derouting.self_ms", "ms/op"),
    ("estimation.eta.self_ms", "ms/op"),
    ("network.engine.self_ms", "ms/op"),
    ("network.prepare.self_ms", "ms/op"),
    ("network.searches", "1/op"),
    ("network.hit_rate", "frac"),
    ("network.pair_hit_rate", "frac"),
    ("network.customisations", "1/op"),
    ("network.customisation_hit_rate", "frac"),
    ("network.evictions", "1/op"),
    ("network.epoch_invalidations", "1/op"),
    ("network.epochs.apply_ms", "ms"),
    ("network.epochs.weight_changes", "count"),
    ("resilience.gateway.calls", "1/op"),
    ("resilience.gateway.self_ms", "ms/op"),
    ("resilience.ladder.live", "1/op"),
    ("resilience.ladder.cached", "1/op"),
    ("resilience.ladder.stale", "1/op"),
    ("resilience.ladder.fallback", "1/op"),
    ("resilience.cache_hit_ratio", "frac"),
    ("server.cache.put.self_ms", "ms/op"),
    ("server.cache.lookup.self_ms", "ms/op"),
    ("server.cache.evictions", "1/op"),
    ("server.admission.self_ms", "ms/op"),
    ("server.queue.wait_p50_ms", "ms"),
    ("server.queue.wait_p90_ms", "ms"),
    ("server.queue.peak_depth", "count"),
    ("server.outcome.completed", "frac"),
    ("server.outcome.served_stale", "frac"),
    ("server.outcome.sheds_deadline", "frac"),
    ("server.outcome.sheds_queue", "frac"),
    ("server.outcome.sheds_brownout", "frac"),
    ("server.outcome.rejected_rate", "frac"),
    ("server.outcome.rejected_capacity", "frac"),
    ("server.outcome.failed", "frac"),
    ("server.outcome.widened", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


def layer_metrics(
    totals: dict[str, tuple[int, float, float]],
    ops: int,
    counters: dict[str, float],
    unattributed: float,
) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric of one traced phase.

    ``*.calls`` and ``*.self_ms`` come from the span totals, per op;
    everything else comes from ``counters`` (measured by the workload
    from the program's own stats objects), and a layer the workload does
    not exercise reads 0.
    """
    per_op = max(1, ops)

    def total(name: str) -> tuple[int, float, float]:
        return totals.get(name, (0, 0.0, 0.0))

    out: dict[str, tuple[float, str]] = {}
    for name, unit in PER_LAYER:
        layer, _, suffix = name.rpartition(".")
        if name in counters:
            value = counters[name]
        elif suffix == "calls":
            value = total(layer)[0] / per_op
        elif suffix == "self_ms":
            value = 1000.0 * total(layer)[2] / per_op
        else:
            value = 0.0
        out[name] = (float(value), unit)
    compute, adapt = total("core.compute")[0], total("core.adapt")[0]
    out["core.adapt_ratio"] = (adapt / (compute + adapt) if compute + adapt else 0.0, "frac")
    calls, spent, _ = total("network.epochs.apply")
    out["network.epochs.apply_ms"] = (1000.0 * spent / calls if calls else 0.0, "ms")
    out["trace.unattributed_frac"] = (unattributed, "frac")
    return out
