"""Tests for the content-defined (gear/FastCDC-style) chunker."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import GearChunker
from repro.chunking.base import validate_chunking


def random_bytes(n, seed=0):
    return random.Random(seed).randbytes(n)


def test_chunks_tile_payload():
    data = random_bytes(100_000)
    chunker = GearChunker(avg_size=1024)
    validate_chunking(data, chunker.chunk(data))


def test_respects_min_and_max():
    data = random_bytes(200_000)
    chunker = GearChunker(avg_size=1024)
    spans = chunker.chunk(data)
    for span in spans[:-1]:
        assert chunker.min_size <= span.length <= chunker.max_size
    assert spans[-1].length <= chunker.max_size


def test_average_size_near_target():
    data = random_bytes(1_000_000)
    chunker = GearChunker(avg_size=2048)
    spans = chunker.chunk(data)
    avg = sum(s.length for s in spans) / len(spans)
    assert 0.5 * 2048 < avg < 2.0 * 2048


def test_boundaries_are_content_defined():
    """Inserting bytes near the front shifts boundaries only locally:
    most chunks further in are identical (the CDC selling point)."""
    base = random_bytes(300_000, seed=1)
    shifted = b"INSERTED" + base
    chunker = GearChunker(avg_size=1024)
    chunks_a = {s.data for s in chunker.chunk(base)}
    chunks_b = {s.data for s in chunker.chunk(shifted)}
    common = len(chunks_a & chunks_b)
    assert common / len(chunks_a) > 0.9


def test_static_misses_shifted_duplicates_cdc_finds():
    """The contrast that motivates CDC: under a byte shift, static
    chunking finds almost no duplicate chunks."""
    from repro.chunking import StaticChunker

    base = random_bytes(300_000, seed=2)
    shifted = b"X" + base
    static = StaticChunker(1024)
    a = {s.data for s in static.chunk(base)}
    b = {s.data for s in static.chunk(shifted)}
    assert len(a & b) / len(a) < 0.05


def test_deterministic():
    data = random_bytes(50_000, seed=3)
    assert GearChunker(avg_size=512).chunk(data) == GearChunker(avg_size=512).chunk(data)


def test_empty_payload():
    assert GearChunker(avg_size=1024).chunk(b"") == []


def test_invalid_params():
    with pytest.raises(ValueError):
        GearChunker(avg_size=1000)  # not a power of two
    with pytest.raises(ValueError):
        GearChunker(avg_size=32)  # too small
    with pytest.raises(ValueError):
        GearChunker(avg_size=1024, min_size=2048)  # min > avg


@given(data=st.binary(max_size=20_000))
@settings(max_examples=30, deadline=None)
def test_cdc_tiles_any_payload(data):
    chunker = GearChunker(avg_size=256)
    validate_chunking(data, chunker.chunk(data))


# Configs that hit the scanner's edge regimes: default min/max, a
# one-byte min, degenerate min == avg == max (every cut forced by the
# clamp), and a wide min/max spread (long easy-mask segments).
EDGE_CONFIGS = [
    dict(avg_size=256),
    dict(avg_size=512, min_size=1),
    dict(avg_size=1024, min_size=1024, max_size=1024),
    dict(avg_size=256, min_size=8, max_size=4096),
    dict(avg_size=64, min_size=1, max_size=64 * 8),
]


def cuts(spans):
    return [(s.offset, s.length) for s in spans]


@pytest.mark.parametrize("size", [0, 50_000])
@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_buffer_inputs_chunk_like_bytes(wrap, size):
    """bytearray and memoryview inputs cut where the same bytes do, and
    their spans hold those bytes."""
    data = random_bytes(size, seed=4)
    chunker = GearChunker(avg_size=1024)
    ref = chunker.chunk(data)
    spans = chunker.chunk(wrap(data))
    assert cuts(spans) == cuts(ref)
    assert [bytes(s.data) for s in spans] == [bytes(s.data) for s in ref]


@given(
    data=st.binary(min_size=1, max_size=8192),
    offset=st.integers(min_value=0, max_value=512),
)
@settings(max_examples=30, deadline=None)
def test_memoryview_offset_inputs(data, offset):
    """Offset memoryview slices (the tier's zero-copy path) cut where
    the same bytes do."""
    view = memoryview(data)[min(offset, len(data)) :]
    chunker = GearChunker(avg_size=256, min_size=16)
    spans = chunker.chunk(view)
    ref = chunker.chunk(bytes(view))
    assert cuts(spans) == cuts(ref)
    assert [bytes(s.data) for s in spans] == [bytes(s.data) for s in ref]


@pytest.mark.parametrize("cfg", EDGE_CONFIGS)
def test_input_shorter_than_min_size_is_one_chunk(cfg):
    chunker = GearChunker(**cfg)
    for n in sorted({1, max(1, chunker.min_size - 1), chunker.min_size}):
        data = random_bytes(n, seed=n)
        assert cuts(chunker.chunk(data)) == [(0, n)]


@pytest.mark.parametrize("cfg", EDGE_CONFIGS)
def test_input_of_exactly_max_size(cfg):
    chunker = GearChunker(**cfg)
    data = random_bytes(chunker.max_size, seed=5)
    spans = chunker.chunk(data)
    validate_chunking(data, spans)
    assert all(s.length <= chunker.max_size for s in spans)
    if chunker.min_size == chunker.max_size:
        assert cuts(spans) == [(0, chunker.max_size)]


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        bytes(50_000),
        b"\xff" * 50_000,
        bytes(range(256)) * 200,
        b"abcd" * 12_000,
    ],
    ids=["empty", "zeros", "ones", "ramp", "repeat4"],
)
def test_structured_corpora(payload):
    """Degenerate, repetitive streams (worst cases for rolling hashes)
    still tile within the size limits, at every edge config."""
    for cfg in EDGE_CONFIGS:
        chunker = GearChunker(**cfg)
        spans = chunker.chunk(payload)
        validate_chunking(payload, spans)
        assert all(s.length <= chunker.max_size for s in spans)
        assert all(s.length >= chunker.min_size for s in spans[:-1])


# SHA-256 of the comma-joined cut offsets over ``random_bytes(1 MiB,
# seed=1)``, with the chunk count: the exact boundaries the scanner
# emits at three target sizes.
CUT_DIGESTS = {
    1024: (864, "4ce6f6880cf3ce6fd63b7ac34a0e99326885394a3ebbaf731d24b1ca1724964b"),
    8192: (106, "c8995ddcc2ba333f90bb3f109b55f71237f55b861481267cf68e3609884ac89a"),
    32768: (24, "d040546a280d0528097403b4c0446a5d3c5ef5e481fb71a1a2ffe34415b9a8f4"),
}


@pytest.mark.parametrize("avg", sorted(CUT_DIGESTS))
def test_cut_points_known_answer(avg):
    data = random_bytes(1 << 20, seed=1)
    ends = [s.offset + s.length for s in GearChunker(avg_size=avg).chunk(data)]
    digest = hashlib.sha256(",".join(map(str, ends)).encode()).hexdigest()
    assert (len(ends), digest) == CUT_DIGESTS[avg]
