"""Compression codec and footprint estimation.

The paper's Figure 13 stacks the dedup design on a compressing local
filesystem (Btrfs) to maximise capacity saving.  We model that with a
real zlib codec: the "compressed footprint" of a store is what its
objects' payloads actually compress to (block-wise, as a filesystem
would), so the multiplicative dedup x compression effect in Figure 13
is measured, not assumed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

__all__ = ["ZlibCodec", "CompressionResult", "compressed_store_bytes"]

#: Filesystems compress in fixed extents, not whole files; Btrfs uses
#: 128 KiB compression chunks.
FS_COMPRESS_BLOCK = 128 * 1024


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one payload."""

    raw_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        """Saved fraction: 0.0 (incompressible) .. ~1.0."""
        if self.raw_bytes == 0:
            return 0.0
        return 1.0 - self.compressed_bytes / self.raw_bytes


class ZlibCodec:
    """zlib (DEFLATE) at a configurable level; level 1 mimics the fast
    filesystem setting (Btrfs zlib/LZO class)."""

    def __init__(self, level: int = 1):
        if not (0 <= level <= 9):
            raise ValueError(f"zlib level must be 0..9, got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        """Compressed bytes for ``data``."""
        return zlib.compress(data, self.level)

    def decompress(self, blob: bytes) -> bytes:
        """Inverse of :meth:`compress`."""
        return zlib.decompress(blob)

    def measure(self, data: bytes) -> CompressionResult:
        """Compress and report sizes; stores the smaller of raw/coded
        (filesystems keep extents raw when compression does not help)."""
        coded = len(self.compress(data))
        return CompressionResult(
            raw_bytes=len(data), compressed_bytes=min(coded, len(data))
        )


def compressed_store_bytes(store, codec: ZlibCodec | None = None) -> int:
    """Footprint of an :class:`~repro.cluster.objectstore.ObjectStore`
    if its node's filesystem compressed payloads block-wise (metadata
    stays raw)."""
    codec = codec if codec is not None else ZlibCodec()
    total = 0
    for key in store.keys():
        obj = store.get(key)
        total += obj.footprint() - obj.size
        data = obj.read()
        for off in range(0, len(data), FS_COMPRESS_BLOCK):
            block = data[off : off + FS_COMPRESS_BLOCK]
            total += codec.measure(block).compressed_bytes
    return total
