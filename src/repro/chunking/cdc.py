"""Content-defined chunking (FastCDC-style gear hash).

The paper chose static chunking for CPU reasons (§5) but cites
content-defined chunking (CDC) as the alternative; we implement a
FastCDC-style chunker so the trade-off can be measured (ablation
benches) and so the library is usable on backup-style streams where CDC
is the norm.

The algorithm rolls a "gear" hash (one table lookup + shift per byte)
and declares a boundary when masked bits are zero.  Following FastCDC,
a stricter mask is used before the target size and a looser one after,
concentrating the chunk-size distribution around the target.
"""

from __future__ import annotations

import random
from typing import List

from .base import ChunkSpan

__all__ = ["GearChunker"]

_GEAR_SEED = 0x1D2D3D4D


def _gear_table(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(256)]


_GEAR = _gear_table(_GEAR_SEED)
_MASK64 = (1 << 64) - 1


class GearChunker:
    """FastCDC-style content-defined chunker.

    Boundaries depend only on content, so an insertion early in a stream
    shifts boundaries only locally — the property that lets CDC find
    duplicates at unaligned offsets, which static chunking cannot.
    """

    def __init__(
        self,
        avg_size: int = 32 * 1024,
        min_size: int | None = None,
        max_size: int | None = None,
    ):
        if avg_size < 64:
            raise ValueError(f"avg_size too small: {avg_size}")
        if avg_size & (avg_size - 1):
            raise ValueError(f"avg_size must be a power of two, got {avg_size}")
        self.avg_size = avg_size
        self.min_size = min_size if min_size is not None else avg_size // 4
        self.max_size = max_size if max_size is not None else avg_size * 4
        if not (0 < self.min_size <= avg_size <= self.max_size):
            raise ValueError(
                f"need 0 < min ({self.min_size}) <= avg ({avg_size}) "
                f"<= max ({self.max_size})"
            )
        bits = avg_size.bit_length() - 1
        # FastCDC normalised chunking: harder mask before the target
        # size, easier after.
        self._mask_hard = (1 << (bits + 2)) - 1
        self._mask_easy = (1 << (bits - 2)) - 1

    def _find_boundary(self, data: bytes, start: int) -> int:
        """End of the chunk starting at ``start``: one rolling step per byte."""
        n = len(data)
        end = min(start + self.max_size, n)
        if n - start <= self.min_size:
            return n
        fp = 0
        target = min(start + self.avg_size, end)
        i = start + self.min_size
        while i < target:
            fp = ((fp << 1) + _GEAR[data[i]]) & _MASK64
            if fp & self._mask_hard == 0:
                return i + 1
            i += 1
        while i < end:
            fp = ((fp << 1) + _GEAR[data[i]]) & _MASK64
            if fp & self._mask_easy == 0:
                return i + 1
            i += 1
        return end

    def chunk(self, data) -> List[ChunkSpan]:
        """Split ``data`` at content-defined boundaries (zero-copy spans)."""
        view = memoryview(data)
        spans = []
        pos = 0
        while pos < len(view):
            cut = self._find_boundary(view, pos)
            spans.append(ChunkSpan(offset=pos, length=cut - pos, data=view[pos:cut]))
            pos = cut
        return spans
