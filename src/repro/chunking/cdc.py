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

Two scanners implement the identical boundary function:

* the byte-at-a-time reference scanner (:meth:`GearChunker._find_boundary`),
  always available, and
* a NumPy-vectorized scan that exploits the windowed nature of the
  masked gear hash (see :mod:`repro.chunking._vector`), used
  automatically when NumPy is importable.

Byte-identical output is a hard invariant, enforced by the Hypothesis
cross-validation suite in ``tests/chunking/test_vectorized_equiv.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from . import _vector
from ._vector import HAVE_NUMPY, scan_first_match
from .base import ChunkSpan

__all__ = ["GearChunker", "HAVE_NUMPY"]

_GEAR_SEED = 0x1D2D3D4D


def _gear_table(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(256)]


_GEAR = _gear_table(_GEAR_SEED)
_MASK64 = (1 << 64) - 1

# Shifted gear tables keyed by window width (= hard-mask bit count):
# row d holds (GEAR[b] << d) truncated to the accumulator dtype.  Low
# ``width`` bits of the rolling hash depend only on the last ``width``
# bytes, so these rows are everything the vectorized scan needs.
_SHIFT_TABLES: Dict[int, object] = {}


def _shift_tables(width: int):
    tables = _SHIFT_TABLES.get(width)
    if tables is None:
        np = _vector.np
        if width <= 16:
            dtype, dmask = np.uint16, (1 << 16) - 1
        elif width <= 32:
            dtype, dmask = np.uint32, (1 << 32) - 1
        else:
            dtype, dmask = np.uint64, _MASK64
        rows = [[(g << d) & dmask for g in _GEAR] for d in range(width)]
        tables = np.array(rows, dtype=dtype)
        _SHIFT_TABLES[width] = tables
    return tables


class GearChunker:
    """FastCDC-style content-defined chunker.

    Boundaries depend only on content, so an insertion early in a stream
    shifts boundaries only locally — the property that lets CDC find
    duplicates at unaligned offsets, which static chunking cannot.

    ``vectorized`` selects the boundary scanner: ``None`` (default)
    auto-selects the NumPy scan when available, ``True`` requires it,
    ``False`` forces the pure-Python reference scanner.  Both emit
    byte-identical :class:`ChunkSpan` lists.
    """

    def __init__(
        self,
        avg_size: int = 32 * 1024,
        min_size: int | None = None,
        max_size: int | None = None,
        vectorized: Optional[bool] = None,
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
        if vectorized is None:
            vectorized = HAVE_NUMPY
        elif vectorized and not HAVE_NUMPY:
            raise RuntimeError(
                "vectorized chunking requires NumPy (pip install repro[fast])"
            )
        self.vectorized = vectorized
        self._tables = _shift_tables(bits + 2) if vectorized else None

    def _find_boundary(self, data: bytes, start: int) -> int:
        """Reference scanner: one interpreted step per byte."""
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

    def _find_boundary_vectorized(self, view: memoryview, start: int) -> int:
        """NumPy scan; emits the same cut points as :meth:`_find_boundary`.

        The hash restarts from zero at ``start + min_size`` (where the
        reference scanner begins rolling), so both segments clamp their
        window there; the hard- then easy-mask segments mirror the two
        reference loops exactly.
        """
        n = len(view)
        end = min(start + self.max_size, n)
        if n - start <= self.min_size:
            return n
        scan_from = start + self.min_size
        target = min(start + self.avg_size, end)
        if scan_from < target:
            hit = scan_first_match(
                view, scan_from, target, scan_from, self._tables, self._mask_hard
            )
            if hit >= 0:
                return hit + 1
        if target < end:
            hit = scan_first_match(
                view, target, end, scan_from, self._tables, self._mask_easy
            )
            if hit >= 0:
                return hit + 1
        return end

    def chunk(self, data) -> List[ChunkSpan]:
        """Split ``data`` at content-defined boundaries (zero-copy spans)."""
        view = memoryview(data)
        find = self._find_boundary_vectorized if self.vectorized else self._find_boundary
        spans = []
        pos = 0
        while pos < len(view):
            cut = find(view, pos)
            spans.append(ChunkSpan(offset=pos, length=cut - pos, data=view[pos:cut]))
            pos = cut
        return spans
