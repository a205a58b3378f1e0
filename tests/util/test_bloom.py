"""Tests for the Bloom filter."""

import pytest

from repro.sim.rng import derive_seed
from repro.util import BloomFilter


def test_no_false_negatives():
    bf = BloomFilter(capacity=1000)
    items = [f"obj{i}" for i in range(1000)]
    for item in items:
        bf.add(item)
    assert all(item in bf for item in items)


def test_false_positive_rate_bounded():
    bf = BloomFilter(capacity=1000, error_rate=0.01)
    for i in range(1000):
        bf.add(f"obj{i}")
    false_positives = sum(1 for i in range(10_000) if f"other{i}" in bf)
    assert false_positives / 10_000 < 0.05


def test_empty_filter_contains_nothing():
    bf = BloomFilter(capacity=100)
    assert "anything" not in bf


def test_memory_scales_with_capacity():
    small = BloomFilter(capacity=100)
    large = BloomFilter(capacity=10_000)
    assert large.memory_bytes() > small.memory_bytes()


def test_invalid_params():
    with pytest.raises(ValueError):
        BloomFilter(capacity=0)
    with pytest.raises(ValueError):
        BloomFilter(capacity=10, error_rate=1.5)


def test_probe_positions_match_the_double_hashing_formula():
    # probes() hands back an unreduced range and add()/__contains__ take
    # the modulus inline; the bits set and the answers given must be those
    # of the formula written out, (h1 + i*h2) % m for i < k.
    bf = BloomFilter(capacity=200, error_rate=0.01)
    reference = bytearray(len(bf._bits))

    def positions(item):
        h1 = derive_seed(0, item)
        h2 = derive_seed(1, item) | 1
        return [(h1 + i * h2) % bf.num_bits for i in range(bf.num_hashes)]

    items = [f"chunk-{i}" for i in range(200)]
    for item in items:
        assert [p % bf.num_bits for p in bf.probes(item)] == positions(item)
        bf.add(item)
        for bit in positions(item):
            reference[bit >> 3] |= 1 << (bit & 7)
    assert bf._bits == reference
    assert bf.count == len(items)
    for item in items + [f"absent-{i}" for i in range(2000)]:
        expected = all(reference[b >> 3] & (1 << (b & 7)) for b in positions(item))
        assert (item in bf) is expected


def test_one_probe_computation_serves_every_filter_of_a_geometry():
    # HitSet hashes an oid once per lookup and tests its whole ring with
    # the result: probes() of any same-geometry filter are the formula
    # written out, and has_probes() answers as ``in`` would on each.
    ring = [BloomFilter(capacity=300, error_rate=0.01) for _ in range(3)]
    items = [f"obj-{i}" for i in range(300)]
    for n, item in enumerate(items):
        for bf in ring[: 1 + n % 3]:
            bf.add(item)
    for item in items + [f"absent-{i}" for i in range(1000)]:
        probes = ring[-1].probes(item)
        h1, h2 = derive_seed(0, item), derive_seed(1, item) | 1
        assert list(probes) == [h1 + i * h2 for i in range(ring[0].num_hashes)]
        assert [bf.has_probes(probes) for bf in ring] == [item in bf for bf in ring]
