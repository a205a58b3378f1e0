"""Tests for the compression codec and store footprint estimation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ObjectKey, Transaction
from repro.cluster.objectstore import ObjectStore
from repro.compression import ZlibCodec, compressed_store_bytes


def test_roundtrip():
    codec = ZlibCodec()
    data = b"some payload" * 100
    assert codec.decompress(codec.compress(data)) == data


def test_zeros_compress_well():
    result = ZlibCodec().measure(b"\x00" * 100_000)
    assert result.ratio > 0.95


def test_random_data_incompressible():
    data = random.Random(0).randbytes(100_000)
    result = ZlibCodec().measure(data)
    assert result.ratio < 0.05
    # measure() never reports worse than raw.
    assert result.compressed_bytes <= result.raw_bytes


def test_ratio_of_empty():
    assert ZlibCodec().measure(b"").ratio == 0.0


def test_invalid_level():
    with pytest.raises(ValueError):
        ZlibCodec(level=10)


def test_compressed_store_bytes_mixed_content():
    store = ObjectStore()
    key_z = ObjectKey(1, 0, "zeros")
    key_r = ObjectKey(1, 0, "random")
    store.apply(Transaction().write_full(key_z, b"\x00" * 50_000))
    store.apply(
        Transaction().write_full(key_r, random.Random(1).randbytes(50_000))
    )
    compressed = compressed_store_bytes(store)
    raw = store.used_bytes()
    assert compressed < raw
    # The zero object nearly vanishes; the random one stays ~full size.
    assert compressed == pytest.approx(raw - 50_000, rel=0.05)


@given(data=st.binary(max_size=5000), level=st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(data, level):
    codec = ZlibCodec(level)
    assert codec.decompress(codec.compress(data)) == data
