"""Fingerprinting and the baseline fingerprint index."""

from .fingerprint import (
    FINGERPRINT_ALGORITHMS,
    fingerprint,
    fingerprint_size,
    timed_fingerprint,
)
from .index import FingerprintIndex, IndexStats

__all__ = [
    "fingerprint",
    "timed_fingerprint",
    "fingerprint_size",
    "FINGERPRINT_ALGORITHMS",
    "FingerprintIndex",
    "IndexStats",
]
