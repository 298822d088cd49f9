"""Unit tests for backing stores and the address map."""

from __future__ import annotations

import pytest

from repro.errors import AddressError, UnknownBufferError
from repro.memory.backing import AddressMap, BackingStore


class TestBackingStore:
    def test_zero_size_rejected(self):
        with pytest.raises(AddressError):
            BackingStore("b", 0)

    def test_read_write_roundtrip(self):
        store = BackingStore("b", 4)
        store.write(2, 77)
        assert store.read(2) == 77

    def test_bounds_checked(self):
        store = BackingStore("b", 4)
        with pytest.raises(AddressError):
            store.read(4)
        with pytest.raises(AddressError):
            store.write(-1, 0)

    def test_address_of_scales_by_itemsize(self):
        store = BackingStore("b", 8, dtype="int64", base_address=0x100)
        assert store.address_of(0) == 0x100
        assert store.address_of(3) == 0x100 + 3 * 8

    def test_fill_requires_matching_size(self):
        store = BackingStore("b", 3)
        with pytest.raises(AddressError):
            store.fill([1, 2])
        store.fill([1, 2, 3])
        assert list(store.snapshot()) == [1, 2, 3]

    def test_snapshot_is_a_copy(self):
        store = BackingStore("b", 2)
        snap = store.snapshot()
        store.write(0, 5)
        assert snap[0] == 0

    def test_dtype_respected(self):
        store = BackingStore("b", 2, dtype="int32")
        assert store.itemsize == 4
        assert store.nbytes == 8


class TestAddressMap:
    def test_allocation_is_aligned(self):
        amap = AddressMap(start_address=0x1000, alignment=64)
        first = amap.allocate("a", 3)          # 24 bytes
        second = amap.allocate("b", 1)
        assert first.base_address % 64 == 0
        assert second.base_address % 64 == 0
        assert second.base_address >= first.end_address

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(AddressError):
            AddressMap(alignment=48)

    def test_double_allocation_rejected(self):
        amap = AddressMap()
        amap.allocate("a", 2)
        with pytest.raises(AddressError):
            amap.allocate("a", 2)

    def test_unknown_buffer_raises(self):
        amap = AddressMap()
        with pytest.raises(UnknownBufferError):
            amap.get("ghost")

    def test_resolve_roundtrip(self):
        amap = AddressMap()
        store = amap.allocate("data", 16)
        address = store.address_of(5)
        resolved, index = amap.resolve(address)
        assert resolved is store
        assert index == 5

    def test_resolve_outside_any_buffer_raises(self):
        amap = AddressMap()
        amap.allocate("data", 4)
        with pytest.raises(AddressError):
            amap.resolve(0x2)

    def test_resolve_misaligned_raises(self):
        amap = AddressMap()
        store = amap.allocate("data", 4, dtype="int64")
        with pytest.raises(AddressError):
            amap.resolve(store.base_address + 3)

    def test_try_resolve_returns_none_not_raise(self):
        amap = AddressMap()
        assert amap.try_resolve(0x5) is None

    def test_contains(self):
        amap = AddressMap()
        amap.allocate("x", 1)
        assert "x" in amap
        assert "y" not in amap
