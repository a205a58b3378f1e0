"""Tests for the static chunker."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chunking import StaticChunker
from repro.chunking.base import ChunkSpan, validate_chunking


def test_exact_multiple():
    spans = StaticChunker(4).chunk(b"abcdefgh")
    assert [(s.offset, s.length) for s in spans] == [(0, 4), (4, 4)]
    assert spans[0].data == b"abcd"
    assert spans[1].data == b"efgh"


def test_trailing_short_chunk():
    spans = StaticChunker(4).chunk(b"abcdef")
    assert [(s.offset, s.length) for s in spans] == [(0, 4), (4, 2)]


def test_empty_payload():
    assert StaticChunker(4).chunk(b"") == []


def test_payload_smaller_than_chunk():
    spans = StaticChunker(100).chunk(b"tiny")
    assert len(spans) == 1
    assert spans[0].data == b"tiny"


def test_invalid_chunk_size():
    with pytest.raises(ValueError):
        StaticChunker(0)


def test_index_of():
    chunker = StaticChunker(10)
    assert chunker.index_of(0) == 0
    assert chunker.index_of(9) == 0
    assert chunker.index_of(10) == 1
    with pytest.raises(ValueError):
        chunker.index_of(-1)


def test_aligned_range():
    chunker = StaticChunker(10)
    assert list(chunker.aligned_range(0, 10)) == [0]
    assert list(chunker.aligned_range(5, 10)) == [0, 1]
    assert list(chunker.aligned_range(10, 1)) == [1]
    assert list(chunker.aligned_range(0, 0)) == []


def test_span_validation():
    with pytest.raises(ValueError):
        ChunkSpan(offset=-1, length=1, data=b"a")
    with pytest.raises(ValueError):
        ChunkSpan(offset=0, length=2, data=b"a")


@given(data=st.binary(max_size=4096), size=st.integers(min_value=1, max_value=1000))
def test_static_chunks_tile_payload(data, size):
    spans = StaticChunker(size).chunk(data)
    validate_chunking(data, spans)
    assert all(s.length == size for s in spans[:-1])
    if spans:
        assert 1 <= spans[-1].length <= size


@given(data=st.binary(min_size=1, max_size=2048))
def test_same_content_same_chunks(data):
    a = StaticChunker(64).chunk(data)
    b = StaticChunker(64).chunk(data)
    assert a == b
