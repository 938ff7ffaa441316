"""Unit tests for PageStore."""

import pytest

from repro.errors import MemoryError_
from repro.memory import PageStore


def test_store_geometry():
    store = PageStore("working", num_pages=4, page_size=128)
    assert store.size == 512
    assert store.read_page(0) == bytes(128)


def test_write_read_page_roundtrip():
    store = PageStore("s", 4, 128)
    data = bytes(range(128))
    store.write_page(2, data)
    assert store.read_page(2) == data
    assert store.read_page(1) == bytes(128)


def test_page_out_of_range():
    store = PageStore("s", 4, 128)
    with pytest.raises(MemoryError_):
        store.read_page(4)
    with pytest.raises(MemoryError_):
        store.read_page(-1)


def test_write_page_wrong_size_rejected():
    store = PageStore("s", 4, 128)
    with pytest.raises(MemoryError_):
        store.write_page(0, b"short")


def test_span_access():
    store = PageStore("s", 4, 128)
    store.write_span(1, 10, b"abc")
    assert store.read_span(1, 10, 3) == b"abc"
    assert store.read_page(1)[10:13] == b"abc"


def test_span_cannot_cross_page_boundary():
    store = PageStore("s", 4, 128)
    with pytest.raises(MemoryError_):
        store.write_span(1, 126, b"abcd")
    with pytest.raises(MemoryError_):
        store.read_span(0, 120, 20)


def test_page_view_is_mutable_zero_copy():
    store = PageStore("s", 4, 128)
    view = store.page_view(3)
    view[0:3] = b"xyz"
    assert store.read_page(3)[:3] == b"xyz"
