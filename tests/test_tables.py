"""Tests for repro.prefetch.tables — bounded hardware tables."""

from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.prefetch.tables import BoundedTable, saturate


class TestBoundedTable:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedTable(0)

    def test_put_get(self):
        table = BoundedTable(4)
        table.put("k", 1)
        assert table.get("k") == 1

    def test_get_missing(self):
        assert BoundedTable(4).get("nope") is None

    def test_lru_eviction(self):
        table = BoundedTable(2)
        table.put("a", 1)
        table.put("b", 2)
        evicted = table.put("c", 3)
        assert evicted == "a"
        assert "a" not in table
        assert table.evictions == 1

    def test_get_refreshes_recency(self):
        table = BoundedTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")
        assert table.put("c", 3) == "b"

    def test_get_no_touch(self):
        table = BoundedTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a", touch=False)
        assert table.put("c", 3) == "a"

    def test_update_existing_no_eviction(self):
        table = BoundedTable(2)
        table.put("a", 1)
        table.put("b", 2)
        assert table.put("a", 9) is None
        assert table.get("a") == 9

    def test_pop(self):
        table = BoundedTable(2)
        table.put("a", 1)
        assert table.pop("a") == 1
        assert table.pop("a") is None

    def test_clear_and_len(self):
        table = BoundedTable(4)
        table.put("a", 1)
        table.put("b", 2)
        assert len(table) == 2
        table.clear()
        assert len(table) == 0

    def test_iteration(self):
        table = BoundedTable(4)
        for k in ("x", "y"):
            table.put(k, 0)
        assert set(table) == {"x", "y"}


class TestSaturate:
    def test_within_range(self):
        assert saturate(5, 0, 7) == 5

    def test_clamps_low(self):
        assert saturate(-3, 0, 7) == 0

    def test_clamps_high(self):
        assert saturate(99, 0, 7) == 7


@given(st.lists(st.tuples(st.integers(0, 100), st.integers()), max_size=300),
       st.integers(min_value=1, max_value=16))
def test_property_capacity_never_exceeded(ops, capacity):
    table = BoundedTable(capacity)
    for key, value in ops:
        table.put(key, value)
        assert len(table) <= capacity


@given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_property_last_inserted_always_present(keys):
    table = BoundedTable(4)
    for key in keys:
        table.put(key, key)
        assert key in table


class _OrderedDictTable:
    """Reference model: an LRU table on an ``OrderedDict``, moving a key
    to the end on a touching get and on every put, and evicting the
    first key."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = OrderedDict()
        self.evictions = 0

    def get(self, key, touch=True):
        value = self.data.get(key)
        if value is not None and touch:
            self.data.move_to_end(key)
        return value

    def put(self, key, value):
        evicted = None
        if key not in self.data and len(self.data) >= self.capacity:
            evicted, _ = self.data.popitem(last=False)
            self.evictions += 1
        self.data[key] = value
        self.data.move_to_end(key)
        return evicted

    def pop(self, key):
        return self.data.pop(key, None)


# Few keys and long runs, so hits, refreshes and evictions all recur.
_keys = st.integers(0, 5)
_table_ops = st.lists(st.one_of(
    st.tuples(st.just("get"), _keys, st.booleans()),
    st.tuples(st.just("put"), _keys, st.integers()),
    st.tuples(st.just("pop"), _keys, st.none())), min_size=20, max_size=200)


@given(_table_ops, st.integers(min_value=1, max_value=4))
def test_property_matches_ordered_dict_reference(ops, capacity):
    table = BoundedTable(capacity)
    reference = _OrderedDictTable(capacity)
    for op, key, arg in ops:
        if op == "get":
            assert table.get(key, touch=arg) == reference.get(key, touch=arg)
        elif op == "put":
            assert table.put(key, arg) == reference.put(key, arg)
        else:
            assert table.pop(key) == reference.pop(key)
        assert list(table._data.items()) == list(reference.data.items())
        assert table.evictions == reference.evictions
