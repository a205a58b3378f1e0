"""NumPy machinery shared by the vectorized CDC boundary scanners.

Both rolling hashes used by the content-defined chunkers become
*windowed* functions of the input once truncated to the bits the
boundary test actually reads:

* Gear (:mod:`.cdc`): ``fp = (fp << 1) + GEAR[b]`` shifts every byte's
  contribution one bit further up per step, so ``fp mod 2**m`` depends
  only on the last ``m`` bytes consumed.  With per-distance tables
  ``T_d[b] = (GEAR[b] << d) mod 2**32`` the masked hash at every
  position is a plain sum of ``m`` table lookups (unsigned overflow is
  exactly the ``mod 2**32`` the truncation needs).
* Rabin (:mod:`.rabin`): the sliding-window subtraction makes the
  fingerprint windowed by construction, and GF(2) linearity decomposes
  it into per-distance contributions ``W_d[b] = b * x**(8 d) mod P``
  combined with XOR.

:func:`windowed_values` evaluates such a decomposition for *every*
candidate position in one vectorized pass — one fancy-indexed gather
per window depth instead of one interpreted loop iteration per byte.

NumPy itself is an optional extra (``pip install repro[fast]``).  This
module is the single place the import is attempted; consumers branch on
:data:`HAVE_NUMPY` and fall back to the byte-at-a-time reference
scanners when it is ``False``.  Setting the ``REPRO_NO_NUMPY``
environment variable forces the fallback even when NumPy is installed
(the CI parity leg uses this to exercise the pure-Python paths).
"""

from __future__ import annotations

import os

try:
    if os.environ.get("REPRO_NO_NUMPY"):
        raise ImportError("NumPy disabled via REPRO_NO_NUMPY")
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the no-NumPy CI leg
    np = None  # type: ignore[assignment]

__all__ = ["HAVE_NUMPY", "windowed_values", "first_match", "scan_first_match"]

#: True when the vectorized scan path is usable in this process.
HAVE_NUMPY = np is not None


def windowed_values(view, lo: int, hi: int, clamp: int, tables, xor: bool = False):
    """Rolling-hash values at every consumed-byte position in ``[lo, hi)``.

    ``tables`` is a ``(depth, 256)`` array whose row ``d`` holds the
    contribution of a byte ``d`` positions behind the current one; rows
    are combined with ``+`` (gear) or ``^`` (Rabin, ``xor=True``).
    ``clamp`` is the index of the first byte the hash may depend on —
    the point where the scan (re)started from zero — so positions fewer
    than ``depth`` bytes past ``clamp`` correctly see a partial window.
    """
    depth = len(tables)
    base = max(clamp, lo - depth + 1)
    buf = np.frombuffer(view[base:hi], dtype=np.uint8)
    # Row 0 gather allocates the accumulator; deeper rows add in place,
    # shifted so row d aligns with positions >= base + d.
    acc = tables[0][buf]
    limit = min(depth, len(buf))
    if xor:
        for d in range(1, limit):
            acc[d:] ^= tables[d][buf[:-d]]
    else:
        for d in range(1, limit):
            acc[d:] += tables[d][buf[:-d]]
    return acc[lo - base:]


def first_match(values, mask: int, magic: int = 0) -> int:
    """Index of the first ``values[i] & mask == magic``, or ``-1``."""
    hits = np.flatnonzero((values & mask) == magic)
    return int(hits[0]) if hits.size else -1


def scan_first_match(
    view, lo: int, hi: int, clamp: int, tables, mask: int, magic: int = 0,
    xor: bool = False,
) -> int:
    """First consumed-byte position in ``[lo, hi)`` whose windowed hash
    satisfies ``value & mask == magic``; ``-1`` if none.

    Evaluates block-wise rather than the whole range eagerly: boundaries
    land every ``mask + 1`` bytes in expectation, so computing the full
    range wastes most of the work whenever a hit comes early.  The block
    size is twice the expected gap — big enough that a typical scan
    finishes in one block, small enough to cap the overshoot.
    """
    block = max(512, 2 * (mask + 1))
    pos = lo
    while pos < hi:
        stop = min(pos + block, hi)
        hit = first_match(
            windowed_values(view, pos, stop, clamp, tables, xor=xor), mask, magic
        )
        if hit >= 0:
            return pos + hit
        pos = stop
    return -1
