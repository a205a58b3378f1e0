"""Fingerprinting and the baseline fingerprint index."""

from .fingerprint import fingerprint
from .index import FingerprintIndex

__all__ = ["fingerprint", "FingerprintIndex"]
