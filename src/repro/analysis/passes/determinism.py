"""R11 — determinism taint.

The paper's replay contract (bitwise-identical Offering Tables across
engines, crashes, and resumes) dies the moment a nondeterministic value
is persisted.  This pass taints values derived from:

* wall-clock reads (``time.time()``, ``perf_counter()``, …) outside the
  sanctioned :mod:`repro.observability.clock` boundary,
* **unseeded** RNGs — ``random.Random()`` / ``numpy.random.default_rng()``
  with no seed argument, and the module-level ``random.*`` functions
  (global, unseeded-by-default state),
* entropy (``os.urandom``, ``uuid.uuid1/uuid4``),
* ``id()`` identity values,
* set-iteration order (and ``vars()``/``__dict__`` iteration),

and follows the taint through assignments, helper calls (via function
summaries), and ``self.*`` attributes until it reaches a replayed sink:
journal appends, codec encodes, snapshot construction/writes, trace-id
fields, or Offering Table construction.

Calibration: comparisons kill taint (branching on the clock is the
cache-expiry idiom, guarded separately by R5/R10), and ``sorted()``
kills set-order taint — that is the sanctioned fix.
"""

from __future__ import annotations

from ..dataflow import TaintPolicy, compute_summaries, report_sinks
from ..engine import Violation
from ..graph import (
    AttrOf,
    CallT,
    IterOf,
    ModuleFacts,
    NameRef,
    ProjectGraph,
    StoreEv,
    Term,
)
from . import ProjectRule

_TIME_FUNCS = frozenset(
    {
        "time",
        "monotonic",
        "perf_counter",
        "time_ns",
        "monotonic_ns",
        "perf_counter_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)
_TIME_QUALS = frozenset(f"time.{name}" for name in _TIME_FUNCS)

_RNG_CTORS = frozenset({"random.Random", "numpy.random.default_rng"})

_ENTROPY_QUALS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: module-level ``random.*`` draws on the global unseeded state.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_TRACE_ID_ATTRS = frozenset({"trace_id", "span_id", "parent_id", "correlation_id"})

_SEED_KEYWORDS = frozenset({"seed", "x"})  # random.Random(x=...) keyword is "x"

_SINK_CTORS = {
    "OfferingTable": "Offering Table construction",
    "build_table_from_arrays": "Offering Table construction",
    "SessionSnapshot": "snapshot state",
    "write_snapshot": "snapshot write",
    "JournalRecord": "journal record",
}


def _is_unseeded_rng(call: CallT) -> bool:
    if call.args:
        return False
    return not (set(call.keywords) & _SEED_KEYWORDS)


def _term_leaf_name(term: Term) -> str | None:
    if isinstance(term, NameRef):
        return term.name
    if isinstance(term, AttrOf):
        return term.attr
    return None


class _DeterminismPolicy(TaintPolicy):
    sanitizers = frozenset({"sorted", "len", "bool", "isinstance", "round"})
    killing_ops = frozenset({"compare"})

    def call_source(self, call: CallT, module: ModuleFacts) -> str | None:
        qualified = call.callee.qualified
        name = call.callee.name
        if qualified in _TIME_QUALS:
            return f"wall-clock read '{qualified}()'"
        if qualified in _ENTROPY_QUALS:
            return f"entropy source '{qualified}()'"
        if call.callee.kind == "name" and name == "id":
            return "id() identity value"
        if qualified in _RNG_CTORS and _is_unseeded_rng(call):
            return f"unseeded RNG '{qualified}()'"
        if qualified is not None:
            head, _, tail = qualified.rpartition(".")
            if head in ("random", "numpy.random") and tail in _GLOBAL_RNG_FUNCS:
                return f"global unseeded RNG '{qualified}()'"
        return None

    def iter_source(self, term: IterOf, module: ModuleFacts) -> str | None:
        if term.setlike:
            return "set-iteration order"
        base = term.base
        if isinstance(base, CallT) and base.callee.name in ("vars", "globals"):
            return f"{base.callee.name}() dict-order iteration"
        if isinstance(base, AttrOf) and base.attr == "__dict__":
            return "__dict__-order iteration"
        return None

    def call_sink(self, call: CallT, module: ModuleFacts) -> str | None:
        name = call.callee.name
        sink = _SINK_CTORS.get(name)
        if sink is not None:
            return sink
        if name == "append" and call.callee.kind == "attr_call":
            receiver = call.callee.receiver
            leaf = _term_leaf_name(receiver) if receiver is not None else None
            if leaf is not None and "journal" in leaf.lower():
                return "journal append"
        if name == "encode" and call.callee.kind == "attr_call":
            receiver = call.callee.receiver
            leaf = _term_leaf_name(receiver) if receiver is not None else None
            if leaf is not None and "codec" in leaf.lower():
                return "codec encode"
        return None

    def sink_args(
        self, call: CallT, module: ModuleFacts
    ) -> list[tuple[Term, str]]:
        pairs = super().sink_args(call, module)
        trace_keys = set(call.keywords) & _TRACE_ID_ATTRS
        if trace_keys:
            positional = len(call.args) - len(call.keywords)
            for offset, keyword in enumerate(call.keywords):
                if keyword in trace_keys:
                    pairs.append(
                        (call.args[positional + offset], f"trace-id argument '{keyword}'")
                    )
        return pairs

    def store_sink(self, store: StoreEv, module: ModuleFacts) -> str | None:
        if store.attr in _TRACE_ID_ATTRS:
            return f"trace-id field '{store.attr}'"
        return None

    def force_clean_module(self, module: ModuleFacts) -> bool:
        # The injected-clock boundary: SystemClock is *allowed* to read
        # time.*; consumers only ever see it through the Clock protocol.
        return module.rel_path.endswith("observability/clock.py")


class DeterminismTaintRule(ProjectRule):
    """R11: nondeterministic values must not reach replayed state."""

    rule_id = "R11"
    name = "determinism-taint"
    description = (
        "values derived from clocks, unseeded RNGs, id(), or set order "
        "must not reach journals, snapshots, trace ids, or Offering Tables"
    )

    def check_project(self, graph: ProjectGraph) -> list[Violation]:
        policy = _DeterminismPolicy()
        table = compute_summaries(graph, policy)
        violations: list[Violation] = []
        seen: set[tuple[str, int, str]] = set()
        for module, fn, hit in report_sinks(graph, policy, table):
            key = (module.rel_path, hit.line, hit.sink)
            if key in seen:
                continue
            seen.add(key)
            violations.append(
                Violation(
                    rule_id=self.rule_id,
                    path=module.rel_path,
                    line=hit.line,
                    message=(
                        f"{hit.reason} reaches {hit.sink} in "
                        f"'{fn.name}'; replayed state must be "
                        "deterministic — inject a seeded RNG or a Clock"
                    ),
                )
            )
        return violations


__all__ = ["DeterminismTaintRule"]
