"""Offering Table structure tests."""

import pytest

from repro.chargers.charger import Charger
from repro.intervals import Interval
from repro.core.offering import OfferingEntry, OfferingTable, build_table
from repro.core.scoring import ScScore
from repro.spatial.geometry import Point


def _charger(cid):
    return Charger(charger_id=cid, point=Point(cid, 0), node_id=0, rate_kw=11.0)


def _row(cid, sc=0.5):
    iv = Interval(0.3, 0.6)
    return (ScScore(cid, sc, sc + 0.1), _charger(cid), iv, iv, iv, 10.0)


def _table(n=3, adapted_from=None):
    return build_table(
        segment_index=2,
        origin=Point(1, 1),
        generated_at_h=10.0,
        radius_km=25.0,
        ranked=[_row(i) for i in range(n)],
        adapted_from=adapted_from,
    )


class TestOfferingTable:
    def test_build_assigns_sequential_ranks(self):
        table = _table(4)
        assert [e.rank for e in table] == [1, 2, 3, 4]

    def test_len_and_iteration(self):
        table = _table(3)
        assert len(table) == 3
        assert [e.charger_id for e in table] == [0, 1, 2]

    def test_best(self):
        assert _table(3).best.rank == 1

    def test_empty_table(self):
        table = _table(0)
        assert table.best is None
        assert len(table) == 0
        assert table.charger_ids() == []

    def test_bad_rank_order_rejected(self):
        entry = OfferingEntry(
            rank=2,
            charger=_charger(0),
            score=ScScore(0, 0.5, 0.6),
            sustainable=Interval.exact(0.5),
            availability=Interval.exact(0.5),
            derouting=Interval.exact(0.5),
            eta_h=10.0,
        )
        with pytest.raises(ValueError):
            OfferingTable(
                segment_index=0,
                origin=Point(0, 0),
                generated_at_h=10.0,
                radius_km=25.0,
                entries=(entry,),
            )

    def test_adapted_flag(self):
        assert not _table().is_adapted
        adapted = _table(adapted_from=1)
        assert adapted.is_adapted and adapted.adapted_from == 1

    def test_top(self):
        table = _table(5)
        assert [e.charger_id for e in table.top(2)] == [0, 1]
        assert table.top(99) == table.entries
        with pytest.raises(ValueError):
            table.top(-1)

    def test_get(self):
        table = _table(3)
        assert table.get(1).charger_id == 1
        assert table.get(42) is None

    def test_charger_ids(self):
        assert _table(3).charger_ids() == [0, 1, 2]
