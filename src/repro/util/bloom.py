"""A counting-free Bloom filter.

The paper's cache manager persists its HitSets to storage and keeps an
in-memory Bloom filter for existence checks (§5, "Cache management").
This is that filter: ``k`` hash probes into an ``m``-bit array derived
from the target capacity and false-positive rate.
"""

from __future__ import annotations

import math

from ..sim.rng import derive_seed

__all__ = ["BloomFilter"]


class BloomFilter:
    """Standard Bloom filter with double hashing for the k probes."""

    def __init__(self, capacity: int, error_rate: float = 0.01) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not (0.0 < error_rate < 1.0):
            raise ValueError(f"error_rate must be in (0, 1), got {error_rate}")
        self.capacity = capacity
        self.error_rate = error_rate
        self.num_bits = max(8, int(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
        self.num_hashes = max(1, round(self.num_bits / capacity * math.log(2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.count = 0

    def probes(self, item: str) -> range:
        """The k probe positions ``h1 + i*h2``, *before* ``% num_bits``.

        They depend on the filter only through ``num_hashes``, so one
        call serves a lookup in every filter built with the same
        capacity and error rate (:meth:`has_probes`) — the two SHA-256
        derivations are most of a lookup's cost.

        A ``range`` rather than a generator: this sits under every HitSet
        and refset lookup, and a generator is a Python frame per probe.
        """
        h1 = derive_seed(0, item)
        h2 = derive_seed(1, item) | 1
        return range(h1, h1 + self.num_hashes * h2, h2)

    def add(self, item: str) -> None:
        """Insert ``item``."""
        bits, num_bits = self._bits, self.num_bits
        for probe in self.probes(item):
            bit = probe % num_bits
            bits[bit >> 3] |= 1 << (bit & 7)
        self.count += 1

    def __contains__(self, item: str) -> bool:
        return self.has_probes(self.probes(item))

    def has_probes(self, probes: range) -> bool:
        """Whether the item whose :meth:`probes` these are may be present."""
        bits, num_bits = self._bits, self.num_bits
        for probe in probes:
            bit = probe % num_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def memory_bytes(self) -> int:
        """RAM footprint of the bit array."""
        return len(self._bits)
