"""Fingerprinting and the baseline fingerprint index."""

from .fingerprint import fingerprint, timed_fingerprint
from .index import FingerprintIndex

__all__ = ["fingerprint", "timed_fingerprint", "FingerprintIndex"]
