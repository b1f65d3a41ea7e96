"""The bounded-cache primitive against a list-based reference model.

Every evicting cache in the package sits on :class:`repro.lru.LRU`, so
its recency order, cost bound and eviction count are checked here once,
over random operation sequences, against a plain list kept in
least-recently-used-first order.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lru import LRU

KEYS = st.integers(min_value=0, max_value=7)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, st.integers(min_value=1, max_value=6)),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("pop"), KEYS),
        st.tuples(st.just("drop_where"), st.integers(min_value=1, max_value=6)),
    ),
    max_size=60,
)


class Reference:
    """A list of ``[key, value]`` pairs, least recently used first."""

    def __init__(self, capacity: int, weighted: bool) -> None:
        self.capacity = capacity
        self.weighted = weighted
        self.items: list[list[int]] = []
        self.evictions = 0

    def cost(self, value: int) -> int:
        return value if self.weighted else 1

    def total(self) -> int:
        return sum(self.cost(value) for __, value in self.items)

    def _index(self, key: int) -> int | None:
        for i, (k, __) in enumerate(self.items):
            if k == key:
                return i
        return None

    def get(self, key: int) -> int | None:
        i = self._index(key)
        if i is None:
            return None
        item = self.items.pop(i)
        self.items.append(item)
        return item[1]

    def put(self, key: int, value: int) -> int:
        i = self._index(key)
        if i is not None:
            self.items.pop(i)
        self.items.append([key, value])
        evicted = 0
        while len(self.items) > 1 and self.total() > self.capacity:
            self.items.pop(0)
            evicted += 1
        self.evictions += evicted
        return evicted

    def pop(self, key: int) -> int | None:
        i = self._index(key)
        return None if i is None else self.items.pop(i)[1]

    def drop_where(self, threshold: int) -> int:
        kept = [item for item in self.items if item[1] < threshold]
        dropped = len(self.items) - len(kept)
        self.items = kept
        return dropped


@pytest.mark.parametrize("weighted", [False, True], ids=["unit-cost", "weighted"])
@given(capacity=st.integers(min_value=1, max_value=10), operations=OPERATIONS)
def test_matches_reference_model(weighted, capacity, operations):
    lru: LRU[int, int] = LRU(capacity, cost=(lambda value: value) if weighted else None)
    model = Reference(capacity, weighted)
    for op in operations:
        evictions_before = lru.evictions
        if op[0] == "put":
            __, key, value = op
            assert lru.put(key, value) == model.put(key, value)
            assert key in lru, "the entry just admitted was evicted"
            assert lru.total_cost <= capacity or len(lru) == 1
        elif op[0] == "get":
            assert lru.get(op[1]) == model.get(op[1])
        elif op[0] == "pop":
            assert lru.pop(op[1]) == model.pop(op[1])
        else:
            threshold = op[1]
            dropped = lru.drop_where(lambda __, value: value >= threshold)
            assert dropped == model.drop_where(threshold)
            assert lru.evictions == evictions_before, "drop_where counted evictions"
        # Recency order, contents, cost and eviction count all agree.
        assert [[k, v] for k, v in lru._entries.items()] == model.items
        assert lru.total_cost == model.total()
        assert len(lru) == len(model.items)
        assert lru.evictions == model.evictions


def test_single_oversized_entry_is_kept():
    lru: LRU[str, int] = LRU(5, cost=lambda value: value)
    lru.put("small", 2)
    assert lru.put("huge", 9) == 1
    assert lru.get("huge") == 9
    assert len(lru) == 1 and lru.total_cost == 9


def test_replacing_a_key_recosts_it():
    lru: LRU[str, int] = LRU(10, cost=lambda value: value)
    lru.put("a", 4)
    lru.put("a", 7)
    assert lru.total_cost == 7 and lru.evictions == 0


def test_clear_keeps_the_eviction_count():
    lru: LRU[int, int] = LRU(1)
    lru.put(1, 1)
    lru.put(2, 2)
    lru.clear()
    assert len(lru) == 0 and lru.total_cost == 0
    assert lru.evictions == 1


def test_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        LRU(0)
