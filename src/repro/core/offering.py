"""Offering Tables — the user-facing output of EcoCharge.

An Offering Table ``O`` (Section II-A) lists the top-ranked sustainable
chargers for one path segment; the full CkNN-EC answer for a trip is the
sequence ``O_p1 ... O_pn``, one table per segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..chargers.charger import Charger
from ..intervals import Interval
from ..spatial.geometry import Point
from .scoring import ScScore

if TYPE_CHECKING:
    from ..interval_array import ComponentArrays


@dataclass(frozen=True, slots=True)
class OfferingEntry:
    """One ranked charger in an Offering Table."""

    rank: int
    charger: Charger
    score: ScScore
    sustainable: Interval
    availability: Interval
    derouting: Interval
    eta_h: float

    @property
    def charger_id(self) -> int:
        return self.charger.charger_id


@dataclass(frozen=True, slots=True)
class OfferingTable:
    """The ranked offering for one path segment.

    ``origin`` is the query location the table was generated for and
    ``radius_km`` the search radius used — both are what the dynamic cache
    checks against ``R``/``Q`` when deciding whether the table can be
    adapted for a nearby later location.  ``adapted_from`` records cache
    reuse for the experiment bookkeeping.
    """

    segment_index: int
    origin: Point
    generated_at_h: float
    radius_km: float
    entries: tuple[OfferingEntry, ...]
    adapted_from: int | None = None

    def __post_init__(self) -> None:
        for expected, entry in enumerate(self.entries, start=1):
            if entry.rank != expected:
                raise ValueError(
                    f"entry ranks must be 1..n in order; got rank {entry.rank} at "
                    f"position {expected}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[OfferingEntry]:
        return iter(self.entries)

    @property
    def is_adapted(self) -> bool:
        return self.adapted_from is not None

    @property
    def best(self) -> OfferingEntry | None:
        return self.entries[0] if self.entries else None

    def charger_ids(self) -> list[int]:
        """Charger ids in rank order."""
        return [entry.charger_id for entry in self.entries]

    def top(self, n: int) -> tuple[OfferingEntry, ...]:
        """The first ``n`` entries (all of them when n exceeds the table)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.entries[:n]

    def get(self, charger_id: int) -> OfferingEntry | None:
        """The entry for ``charger_id``, or None when not offered."""
        for entry in self.entries:
            if entry.charger_id == charger_id:
                return entry
        return None


def build_table(
    segment_index: int,
    origin: Point,
    generated_at_h: float,
    radius_km: float,
    ranked: list[tuple[ScScore, Charger, Interval, Interval, Interval, float]],
    adapted_from: int | None = None,
) -> OfferingTable:
    """Assemble an :class:`OfferingTable` from ranked scoring output.

    ``ranked`` rows are ``(score, charger, L, A, D, eta_h)`` in final rank
    order.
    """
    entries = tuple(
        OfferingEntry(
            rank=i + 1,
            charger=charger,
            score=score,
            sustainable=l_iv,
            availability=a_iv,
            derouting=d_iv,
            eta_h=eta_h,
        )
        for i, (score, charger, l_iv, a_iv, d_iv, eta_h) in enumerate(ranked)
    )
    return OfferingTable(
        segment_index=segment_index,
        origin=origin,
        generated_at_h=generated_at_h,
        radius_km=radius_km,
        entries=entries,
        adapted_from=adapted_from,
    )


def build_table_from_arrays(
    segment_index: int,
    origin: Point,
    generated_at_h: float,
    radius_km: float,
    components: "ComponentArrays",
    sc_min: np.ndarray,
    sc_max: np.ndarray,
    chosen_rows: Sequence[int] | np.ndarray,
    chargers_by_id: Mapping[int, Charger],
    eta_h: float,
    adapted_from: int | None = None,
) -> OfferingTable:
    """Assemble an :class:`OfferingTable` straight from flat score arrays.

    ``chosen_rows`` is the final rank order of row indices (the output of
    :func:`~repro.core.scoring.intersect_top_k_batch`).  This is the API
    boundary of the batched scoring path: :class:`ScScore` and
    :class:`~repro.intervals.Interval` dataclasses exist only for
    the ``<= k`` chosen rows, never for the whole pool.  Values are
    passed through ``float()`` untouched, so the table is bitwise equal
    to :func:`build_table` over the scalar pipeline.
    """
    sustainable = components.sustainable
    availability = components.availability
    derouting = components.derouting
    ids = components.charger_ids
    entries = tuple(
        OfferingEntry(
            rank=rank,
            charger=chargers_by_id[int(ids[row])],
            score=ScScore(int(ids[row]), float(sc_min[row]), float(sc_max[row])),
            sustainable=sustainable.at(int(row)),
            availability=availability.at(int(row)),
            derouting=derouting.at(int(row)),
            eta_h=eta_h,
        )
        for rank, row in enumerate(chosen_rows, start=1)
    )
    return OfferingTable(
        segment_index=segment_index,
        origin=origin,
        generated_at_h=generated_at_h,
        radius_km=radius_km,
        entries=entries,
        adapted_from=adapted_from,
    )
