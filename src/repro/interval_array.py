"""Structure-of-arrays interval arithmetic: the form every candidate pool
takes, from pricing through the dynamic cache to refinement.

:mod:`repro.intervals` models one Estimated Component as an
:class:`~repro.intervals.Interval` object; pricing a candidate pool that
way would allocate three dataclasses per charger before a single score
is computed.  Here a pool's worth of intervals is two parallel
``float64`` arrays (``lo``/``hi``), and every operation is the *same
IEEE-754 double operation* numpy applies elementwise that the scalar
class applies one value at a time — same order, same association — so
results are bitwise equal to the scalar :class:`Interval`, not merely
close.  The scalar class stays as the oracle the property tests check
this module against.

:class:`~repro.intervals.Interval` dataclasses are materialised only at
the API boundary — see
:func:`~repro.core.offering.build_table_from_arrays`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .intervals import Interval
from .network.distance_engine import DISTANCE_DECIMALS

__all__ = [
    "IntervalArray",
    "ComponentArrays",
    "quantize",
]


def _as_float_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"interval arrays must be one-dimensional, got shape {out.shape}")
    return out


def quantize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Elementwise engine quantisation: ``round(v, DISTANCE_DECIMALS)``.

    Deliberately *not* ``np.round``: numpy rounds by scale-rint-unscale,
    which is not bitwise-identical to Python's correctly-rounded decimal
    ``round`` on every input, and the engine's bit-comparability contract
    is exact.  The hot paths never call this — engine outputs arrive
    already quantised — so the scalar loop only runs at array-build
    boundaries.
    """
    arr = _as_float_array(values)
    return np.array([round(float(v), DISTANCE_DECIMALS) for v in arr], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class IntervalArray:
    """``n`` closed intervals as parallel ``lo``/``hi`` float64 arrays.

    Mirrors :class:`~repro.intervals.Interval` semantics elementwise,
    including its validation: no NaN endpoints, ``lo <= hi`` everywhere.
    Instances are immutable (arrays are set non-writeable) so a cached
    array can be shared as freely as the frozen scalar dataclass.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = _as_float_array(self.lo)
        hi = _as_float_array(self.hi)
        if lo.shape != hi.shape:
            raise ValueError(f"lo/hi shapes differ: {lo.shape} vs {hi.shape}")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("interval endpoints must not be NaN")
        # Same predicate as Interval.__post_init__, vectorised.  inf > inf
        # is False, so [inf, inf] is as legal here as it is there.
        if (lo > hi).any():
            bad = int(np.argmax(lo > hi))
            raise ValueError(
                f"interval lower bound {lo[bad]} exceeds upper bound {hi[bad]} "
                f"at index {bad}"
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- construction -------------------------------------------------------

    @classmethod
    def _trusted(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalArray":
        """Construct without re-validation, for inputs whose invariants
        are already certified (packed from validated ``Interval``
        dataclasses).  Re-running the vectorised checks there is pure
        numpy-dispatch overhead on the per-segment hot path — ~3x the
        cost of the actual scoring arithmetic at benchmark pool sizes.
        """
        instance = object.__new__(cls)
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(instance, "lo", lo)
        object.__setattr__(instance, "hi", hi)
        return instance

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalArray":
        """Pack scalar intervals into one flat pair of arrays.

        Skips re-validation: every ``Interval`` already proved no-NaN and
        ``lo <= hi`` in its own ``__post_init__``.
        """
        pairs = [(interval.lo, interval.hi) for interval in intervals]
        if not pairs:
            return cls._trusted(
                np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
            )
        lo, hi = zip(*pairs)
        return cls._trusted(
            np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
        )

    @classmethod
    def exact(cls, values: Sequence[float] | np.ndarray) -> "IntervalArray":
        """Degenerate intervals ``[v, v]`` — the array form of
        :meth:`Interval.exact`."""
        arr = _as_float_array(values)
        return cls(arr.copy(), arr.copy())

    # -- shape --------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def at(self, index: int) -> Interval:
        """Materialise one element as a scalar :class:`Interval` — the
        API-boundary escape hatch."""
        return Interval(float(self.lo[index]), float(self.hi[index]))

    def to_intervals(self) -> list[Interval]:
        """Materialise every element as a scalar :class:`Interval`, in
        order (what :meth:`at` gives per index)."""
        return [Interval(l, h) for l, h in zip(self.lo.tolist(), self.hi.tolist())]

    # -- derived quantities --------------------------------------------------

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def midpoint(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def is_exact(self) -> np.ndarray:
        return self.lo == self.hi

    # -- arithmetic (elementwise, bitwise-equal to Interval ops) -------------

    def add(self, other: "IntervalArray | np.ndarray | float") -> "IntervalArray":
        """Elementwise sum; a plain array or float shifts both endpoints."""
        if isinstance(other, IntervalArray):
            return IntervalArray(self.lo + other.lo, self.hi + other.hi)
        return IntervalArray(self.lo + other, self.hi + other)

    def sub(self, other: "IntervalArray | float") -> "IntervalArray":
        if isinstance(other, IntervalArray):
            return IntervalArray(self.lo - other.hi, self.hi - other.lo)
        return IntervalArray(self.lo - other, self.hi - other)

    def mul_scalar(self, factor: float) -> "IntervalArray":
        """``interval * c`` for one scalar ``c`` (sign-aware, like
        :meth:`Interval.__mul__` with a float)."""
        if factor >= 0:
            return IntervalArray(self.lo * factor, self.hi * factor)
        return IntervalArray(self.hi * factor, self.lo * factor)

    def mul(self, other: "IntervalArray") -> "IntervalArray":
        """Elementwise interval product (four-products rule).

        ``np.minimum``/``np.maximum`` resolve a ``-0.0`` vs ``0.0`` tie
        by IEEE sign (minimum prefers ``-0.0``), while Python's builtin
        ``min``/``max`` keep the *first* argument — so the reduction is
        spelled as first-wins ``np.where`` selections to stay bitwise
        equal to ``min(products)``/``max(products)`` in tuple order.
        """
        ll = self.lo * other.lo
        lh = self.lo * other.hi
        hl = self.hi * other.lo
        hh = self.hi * other.hi
        lo, hi = ll, ll
        for p in (lh, hl, hh):
            lo = np.where(p < lo, p, lo)
            hi = np.where(p > hi, p, hi)
        return IntervalArray(lo, hi)

    def negate(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    def complement_to_one(self) -> "IntervalArray":
        """``1 - self`` — the derouting flip of Eq. 4-5."""
        return IntervalArray(1.0 - self.hi, 1.0 - self.lo)

    def clamp(self, lo: float = 0.0, hi: float = 1.0) -> "IntervalArray":
        """Clip both endpoint arrays into ``[lo, hi]``.

        Spelled as first-wins ``np.where`` selections rather than
        ``np.minimum``/``np.maximum``: the builtins' different ``-0.0``
        tie-breaking (see :meth:`mul`) would otherwise leak through
        ``min(max(x, lo), hi)``.
        """
        if lo > hi:
            raise ValueError("clamp bounds must satisfy lo <= hi")

        def clip(x: np.ndarray) -> np.ndarray:
            raised = np.where(lo > x, lo, x)  # max(x, lo), x wins ties
            return np.where(hi < raised, hi, raised)  # min(., hi), . wins ties

        return IntervalArray(clip(self.lo), clip(self.hi))

    def capped_at(self, ceiling: np.ndarray) -> "IntervalArray":
        """Per-row upper cap: ``min(endpoint, ceiling)`` on both endpoints,
        the endpoint winning ties as with builtin ``min``."""
        return IntervalArray(
            np.where(ceiling < self.lo, ceiling, self.lo),
            np.where(ceiling < self.hi, ceiling, self.hi),
        )

    def scaled_by_max(self, maximum: float) -> "IntervalArray":
        """Normalise by the environment maximum (zero interval when the
        maximum is non-positive, mirroring :meth:`Interval.scaled_by_max`).

        A quotient past the float range is ``inf`` without a warning, as
        it is for the scalar division.
        """
        if maximum <= 0:
            zeros = np.zeros(len(self), dtype=np.float64)
            return IntervalArray(zeros, zeros.copy())
        with np.errstate(over="ignore"):
            return IntervalArray(self.lo / maximum, self.hi / maximum)

    def widened(self, factor: float) -> "IntervalArray":
        """Symmetric growth by ``factor`` of each width (forecast-horizon
        degradation, mirroring :meth:`Interval.widened`)."""
        if not math.isfinite(factor):
            raise ValueError("widening factor must be finite")
        if factor < 0:
            raise ValueError("factor must be non-negative")
        margin = (self.hi - self.lo) * factor / 2.0
        return IntervalArray(self.lo - margin, self.hi + margin)

    def hull(self, other: "IntervalArray") -> "IntervalArray":
        """Elementwise smallest interval containing both (first-wins ties,
        matching ``min(self.lo, other.lo)``/``max(self.hi, other.hi)``)."""
        return IntervalArray(
            np.where(other.lo < self.lo, other.lo, self.lo),
            np.where(other.hi > self.hi, other.hi, self.hi),
        )

    def intersects(self, other: "IntervalArray") -> np.ndarray:
        """Boolean mask: elementwise overlap test."""
        return (self.lo <= other.hi) & (other.lo <= self.hi)

    def within_bounds(self, lo: float, hi: float, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of :meth:`Interval.within_bounds` per element."""
        if tol < 0:
            raise ValueError("tol must be non-negative")
        return (self.lo >= lo - tol) & (self.hi <= hi + tol)


@dataclass(frozen=True, slots=True)
class ComponentArrays:
    """A pool's normalised L/A/D component intervals in flat form.

    ``charger_ids[i]`` owns row ``i`` of each component.  Produced by
    :meth:`~repro.core.environment.ChargingEnvironment.score_pool`, kept
    in the dynamic cache, and consumed by
    :func:`~repro.core.scoring.sc_score_batch`.
    """

    charger_ids: np.ndarray
    sustainable: IntervalArray
    availability: IntervalArray
    derouting: IntervalArray

    def __post_init__(self) -> None:
        ids = np.asarray(self.charger_ids, dtype=np.int64)
        n = int(ids.shape[0])
        for name in ("sustainable", "availability", "derouting"):
            component: IntervalArray = getattr(self, name)
            if len(component) != n:
                raise ValueError(
                    f"{name} holds {len(component)} intervals for {n} chargers"
                )
            if not component.within_bounds(0.0, 1.0, tol=1e-9).all():
                bad = int(np.argmin(component.within_bounds(0.0, 1.0, tol=1e-9)))
                raise ValueError(
                    f"{name} interval {component.at(bad)} not normalised to [0, 1]"
                )
        ids.flags.writeable = False
        object.__setattr__(self, "charger_ids", ids)

    def __len__(self) -> int:
        return int(self.charger_ids.shape[0])

    def take(self, rows: Sequence[int] | np.ndarray) -> "ComponentArrays":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)

        def pick(component: IntervalArray) -> IntervalArray:
            return IntervalArray._trusted(component.lo[rows], component.hi[rows])

        return ComponentArrays(
            charger_ids=self.charger_ids[rows],
            sustainable=pick(self.sustainable),
            availability=pick(self.availability),
            derouting=pick(self.derouting),
        )

    @classmethod
    def from_scores(cls, scores: Sequence["object"]) -> "ComponentArrays":
        """Pack per-charger rows — an Offering Table's entries, or the
        tests' scalar reference rows — into flat form.

        Skips the [0, 1] re-validation: a table's entries carry the
        intervals of the validated pool they were ranked from.  Rows that
        come from outside the program (journal contents) go through the
        validating constructor instead.  Typed loosely to avoid a circular
        import with :mod:`repro.core.offering`; rows must expose
        ``charger_id`` / ``sustainable`` / ``availability`` /
        ``derouting``.
        """
        ids = np.array([s.charger_id for s in scores], dtype=np.int64)
        ids.flags.writeable = False
        instance = object.__new__(cls)
        object.__setattr__(instance, "charger_ids", ids)
        object.__setattr__(
            instance,
            "sustainable",
            IntervalArray.from_intervals(s.sustainable for s in scores),
        )
        object.__setattr__(
            instance,
            "availability",
            IntervalArray.from_intervals(s.availability for s in scores),
        )
        object.__setattr__(
            instance,
            "derouting",
            IntervalArray.from_intervals(s.derouting for s in scores),
        )
        return instance
