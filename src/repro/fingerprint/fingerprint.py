"""Chunk fingerprinting.

A fingerprint is a collision-resistant hash of a chunk's content.  In
the paper's design the fingerprint *is* the chunk object's ID ("Obj ID =
Chunk ID = FingerPrint(Chunk)", Figure 8), which is the first half of
double hashing; the second half is the storage system's placement hash
over that ID.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

__all__ = [
    "fingerprint",
    "FINGERPRINT_ALGORITHMS",
    "fingerprint_size",
]

FINGERPRINT_ALGORITHMS: Dict[str, Callable[[bytes], "hashlib._Hash"]] = {
    "sha1": hashlib.sha1,
    "sha256": hashlib.sha256,
    "blake2b": lambda data=b"": hashlib.blake2b(data, digest_size=20),
}


def fingerprint(data: bytes, algorithm: str = "sha1") -> str:
    """Hex fingerprint of ``data`` under ``algorithm``.

    ``sha1`` is the default to match deployed dedup systems (including
    Ceph's); ``sha256`` and ``blake2b`` are available for stronger
    collision resistance.
    """
    try:
        factory = FINGERPRINT_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown fingerprint algorithm {algorithm!r}; "
            f"choose from {sorted(FINGERPRINT_ALGORITHMS)}"
        ) from None
    return factory(data).hexdigest()


def fingerprint_size(algorithm: str = "sha1") -> int:
    """Digest size in bytes for ``algorithm``."""
    return len(fingerprint(b"", algorithm)) // 2
