"""A candidate pool as rows of one charger column store.

Algorithm 1's Filtering phase cuts a pool out of the charger set ``B``
and prices L, A and D for every member.  The pricing kernels read a few
numbers per charger (id, node, rate, solar capacity, plugs), so the
registry keeps those fields as NumPy columns (:class:`ChargerColumns`),
and a pool is a list of row indices into them (:class:`ChargerPool`).
The estimators gather their inputs by row instead of walking
:class:`~repro.chargers.charger.Charger` objects.

A pool is still a read-only ``Sequence[Charger]``: indexing and
iteration hand out the very ``Charger`` objects the store was built
from.  A plain sequence of chargers becomes a pool through
:meth:`ChargerPool.of`, the one conversion the estimators apply.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, overload

import numpy as np

from .charger import Charger


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ChargerColumns:
    """The fields the pricing kernels read, one read-only column each.

    Row ``i`` of every column describes ``chargers[i]``.  Columns hash
    and compare by identity, so a cache may key on the store it was
    computed from.
    """

    __slots__ = (
        "chargers",
        "x",
        "y",
        "charger_id",
        "node_id",
        "rate_kw",
        "solar_capacity_kw",
        "plugs",
    )

    def __init__(self, chargers: Iterable[Charger]) -> None:
        self.chargers: tuple[Charger, ...] = tuple(chargers)
        items = self.chargers
        n = len(items)

        def column(values: Iterable[float | int], dtype: type) -> np.ndarray:
            return _frozen(np.fromiter(values, dtype=dtype, count=n))

        self.x = column((c.point.x for c in items), np.float64)
        self.y = column((c.point.y for c in items), np.float64)
        self.charger_id = column((c.charger_id for c in items), np.int64)
        self.node_id = column((c.node_id for c in items), np.int64)
        self.rate_kw = column((c.rate_kw for c in items), np.float64)
        self.solar_capacity_kw = column((c.solar_capacity_kw for c in items), np.float64)
        self.plugs = column((c.plugs for c in items), np.int64)

    def __len__(self) -> int:
        return len(self.chargers)


class ChargerPool(Sequence[Charger]):
    """A read-only sequence of chargers that are rows of one
    :class:`ChargerColumns`.

    ``rows[i]`` is the store row of the pool's ``i``-th charger; the
    column properties gather the pool's values in pool order.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: ChargerColumns, rows: np.ndarray) -> None:
        self.columns = columns
        self.rows = _frozen(np.asarray(rows, dtype=np.int64))

    @classmethod
    def of(cls, chargers: Iterable[Charger]) -> "ChargerPool":
        """``chargers`` as a pool: a pool is returned as it is; any other
        sequence becomes every row of a store of its own, in its order."""
        if isinstance(chargers, ChargerPool):
            return chargers
        columns = ChargerColumns(chargers)
        return cls(columns, np.arange(len(columns), dtype=np.int64))

    def take(self, indices: Sequence[int] | np.ndarray) -> "ChargerPool":
        """The pool's members at ``indices``, in that order."""
        return ChargerPool(self.columns, self.rows[np.asarray(indices, dtype=np.int64)])

    def __len__(self) -> int:
        return len(self.rows)

    @overload
    def __getitem__(self, index: int) -> Charger: ...

    @overload
    def __getitem__(self, index: slice) -> "ChargerPool": ...

    def __getitem__(self, index: int | slice) -> "Charger | ChargerPool":
        if isinstance(index, slice):
            return ChargerPool(self.columns, self.rows[index])
        return self.columns.chargers[self.rows[index]]

    def __iter__(self) -> Iterator[Charger]:
        return map(self.columns.chargers.__getitem__, self.rows.tolist())

    # -- columns, gathered in pool order ---------------------------------------

    @property
    def charger_ids(self) -> np.ndarray:
        return self.columns.charger_id[self.rows]

    @property
    def node_ids(self) -> np.ndarray:
        return self.columns.node_id[self.rows]

    @property
    def rate_kw(self) -> np.ndarray:
        return self.columns.rate_kw[self.rows]

    @property
    def solar_capacity_kw(self) -> np.ndarray:
        return self.columns.solar_capacity_kw[self.rows]

    @property
    def plugs(self) -> np.ndarray:
        return self.columns.plugs[self.rows]
