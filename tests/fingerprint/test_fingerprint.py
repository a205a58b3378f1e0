"""Tests for fingerprinting and the baseline fingerprint index."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fingerprint import FingerprintIndex, fingerprint
from repro.fingerprint.fingerprint import fingerprint_size


def test_fingerprint_deterministic():
    assert fingerprint(b"hello") == fingerprint(b"hello")


def test_fingerprint_distinguishes_content():
    assert fingerprint(b"hello") != fingerprint(b"hellp")


def test_known_sha1():
    assert fingerprint(b"", "sha1") == "da39a3ee5e6b4b0d3255bfef95601890afd80709"


@pytest.mark.parametrize("algo,size", [("sha1", 20), ("sha256", 32), ("blake2b", 20)])
def test_fingerprint_sizes(algo, size):
    assert fingerprint_size(algo) == size
    assert len(fingerprint(b"data", algo)) == 2 * size


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        fingerprint(b"x", "md5000")


@given(a=st.binary(max_size=256), b=st.binary(max_size=256))
def test_equal_content_iff_equal_fingerprint(a, b):
    # Collision resistance at property-test scale: fingerprints agree
    # exactly when content agrees.
    assert (fingerprint(a) == fingerprint(b)) == (a == b)


# ----------------------------------------------------------------- index


def test_index_lookup_insert():
    idx = FingerprintIndex()
    fp = fingerprint(b"chunk")
    assert idx.lookup(fp) is None
    idx.insert(fp, ("pool", 7))
    assert idx.lookup(fp) == ("pool", 7)
    assert idx.stats.hits == 1
    assert idx.stats.lookups == 2


def test_index_memory_accounting():
    idx = FingerprintIndex(algorithm="sha1", address_bytes=12)
    assert idx.entry_bytes == 32  # the paper's "at least 32 bytes" entry
    for i in range(100):
        idx.insert(fingerprint(str(i).encode()), i)
    assert idx.memory_bytes() == 100 * 32
    assert len(idx) == 100


def test_index_memory_growth_is_linear_in_unique_chunks():
    """§3.1: the index grows with capacity — the core scalability issue."""
    idx = FingerprintIndex()
    sizes = []
    for i in range(3000):
        idx.insert(fingerprint(str(i).encode()), i)
        if i % 1000 == 999:
            sizes.append(idx.memory_bytes())
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1] > 0


def test_index_eviction_under_memory_limit():
    idx = FingerprintIndex(memory_limit=32 * 10)
    for i in range(50):
        idx.insert(fingerprint(str(i).encode()), i)
    assert len(idx) == 10
    assert idx.stats.evictions == 40
    # Old entries were evicted -> lookups miss (lost dedup opportunity).
    assert idx.lookup(fingerprint(b"0")) is None


def test_index_sampling_reduces_entries():
    full = FingerprintIndex()
    sampled = FingerprintIndex(sample_bits=4)
    for i in range(2000):
        fp = fingerprint(str(i).encode())
        full.insert(fp, i)
        sampled.insert(fp, i)
    assert len(sampled) < len(full)
    # Expect roughly 1/16 of entries.
    assert len(sampled) == pytest.approx(2000 / 16, rel=0.5)


def test_index_remove():
    idx = FingerprintIndex()
    fp = fingerprint(b"x")
    idx.insert(fp, 1)
    idx.remove(fp)
    assert idx.lookup(fp) is None
    idx.remove(fp)  # idempotent


def test_index_duplicate_insert_not_double_counted():
    idx = FingerprintIndex()
    fp = fingerprint(b"x")
    idx.insert(fp, 1)
    idx.insert(fp, 2)
    assert len(idx) == 1
    assert idx.lookup(fp) == 2


def test_invalid_sample_bits():
    with pytest.raises(ValueError):
        FingerprintIndex(sample_bits=-1)
