"""Reed-Solomon erasure coding over GF(2^8).

The paper evaluates the dedup design on both replicated and erasure-coded
pools (EC ``k=2, m=1``, §6.4.1).  This module is a from-scratch, real
codec — not a size-only model: shards are actual bytes, any ``m`` lost
shards can be reconstructed, and decode failures raise.

The code is systematic: the first ``k`` shards are the data split
column-wise, the last ``m`` are parity.  The generator matrix is a
Vandermonde matrix normalised so its top ``k`` rows are the identity,
which guarantees the MDS property (any ``k`` of the ``k+m`` rows are
invertible).

The module also owns the on-disk form of a shard (the functions at the
bottom): every other module builds, parses and filters shard objects
through them.

Shard arithmetic is scalar-times-shard products through cached 256-byte
``bytes.translate`` tables, summed with bigint XOR: each product and
each sum is one C-level call over a whole shard.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Mapping, Optional, Sequence

from .objectstore import StoredObject

__all__ = ["GF256", "ReedSolomon"]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (bigint trick: one C-level op)."""
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


class GF256:
    """Arithmetic in GF(2^8) with the polynomial 0x11D.

    0x11D (x^8 + x^4 + x^3 + x^2 + 1) is the conventional Reed-Solomon
    field polynomial because 2 is a primitive element under it, which
    lets exp/log tables be built from powers of 2.
    """

    _EXP: Optional[List[int]] = None
    _LOG: Optional[List[int]] = None
    #: Row ``a`` is the 256-byte product table ``a * b`` for every byte
    #: ``b`` — directly usable with ``bytes.translate``.
    _MUL_ROWS: Optional[List[bytes]] = None

    @classmethod
    def _tables(cls):
        if cls._EXP is None:
            exp = [0] * 512
            log = [0] * 256
            x = 1
            for i in range(255):
                exp[i] = x
                log[x] = i
                x <<= 1
                if x & 0x100:
                    x ^= 0x11D
            exp[255:510] = exp[:255]
            rows = [bytes(256)]
            for a in range(1, 256):
                rows.append(
                    bytes([0] + [exp[(log[a] + log[b]) % 255] for b in range(1, 256)])
                )
            cls._EXP, cls._LOG, cls._MUL_ROWS = exp, log, rows
        return cls._EXP, cls._LOG, cls._MUL_ROWS

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        """Multiply two field elements."""
        _, _, rows = cls._tables()
        return rows[a][b]

    @classmethod
    def mul_row(cls, a: int) -> bytes:
        """The 256-entry ``translate`` table multiplying every byte by ``a``."""
        _, _, rows = cls._tables()
        return rows[a]

    @classmethod
    def inv(cls, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a == 0:
            raise ZeroDivisionError("GF(256) inverse of zero")
        exp, log, _ = cls._tables()
        return exp[255 - log[a]]

    @classmethod
    def pow(cls, a: int, n: int) -> int:
        """``a ** n`` in the field."""
        if n == 0:
            return 1
        if a == 0:
            return 0
        exp, log, _ = cls._tables()
        return exp[(log[a] * n) % 255]

    @classmethod
    def mat_mul(cls, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
        """Matrix product over the field (small matrices, pure Python)."""
        rows, inner, cols = len(a), len(b), len(b[0])
        out = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                acc = 0
                for t in range(inner):
                    acc ^= cls.mul(a[i][t], b[t][j])
                out[i][j] = acc
        return out

    @classmethod
    def mat_inv(cls, m: Sequence[Sequence[int]]) -> List[List[int]]:
        """Invert a square matrix over the field (Gauss-Jordan).

        Raises ``ValueError`` if the matrix is singular.
        """
        n = len(m)
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise ValueError("singular matrix over GF(256)")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = cls.inv(aug[col][col])
            aug[col] = [cls.mul(v, inv_p) for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [
                        aug[r][c] ^ cls.mul(factor, aug[col][c])
                        for c in range(2 * n)
                    ]
        return [row[n:] for row in aug]


class ReedSolomon:
    """A systematic ``k + m`` Reed-Solomon codec.

    >>> rs = ReedSolomon(k=2, m=1)
    >>> shards = rs.encode(b"hello world!")
    >>> rs.decode([shards[0], None, shards[2]], length=12)
    b'hello world!'
    """

    def __init__(self, k: int, m: int):
        if k < 1 or m < 0:
            raise ValueError(f"invalid EC profile k={k} m={m}")
        if k + m > 255:
            raise ValueError("k + m must be <= 255 for GF(256)")
        self.k = k
        self.m = m
        self.n = k + m
        self._matrix = self._systematic_vandermonde(k, self.n)

    @staticmethod
    def _systematic_vandermonde(k: int, n: int) -> List[List[int]]:
        vandermonde = [[GF256.pow(i, j) for j in range(k)] for i in range(n)]
        top_inv = GF256.mat_inv([row[:] for row in vandermonde[:k]])
        return GF256.mat_mul(vandermonde, top_inv)

    def shard_size(self, length: int) -> int:
        """Bytes per shard for a payload of ``length`` bytes."""
        return (length + self.k - 1) // self.k

    def encode(self, data: bytes) -> List[bytes]:
        """Split ``data`` into ``k`` data shards and compute ``m`` parity.

        The payload is zero-padded to a multiple of ``k``; callers must
        remember the original length to :meth:`decode`.
        """
        size = self.shard_size(len(data)) if data else 1
        padded = bytes(data).ljust(size * self.k, b"\x00")
        shards = [padded[i * size : (i + 1) * size] for i in range(self.k)]
        for row in range(self.m):
            acc = bytes(size)
            for col in range(self.k):
                coef = self._matrix[self.k + row][col]
                if coef:
                    acc = _xor_bytes(acc, shards[col].translate(GF256.mul_row(coef)))
            shards.append(acc)
        return shards

    def decode(self, shards: Sequence[Optional[bytes]], length: int) -> bytes:
        """Reconstruct the payload from any ``k`` surviving shards.

        ``shards`` has ``k + m`` slots; lost shards are ``None``.  Raises
        ``ValueError`` when fewer than ``k`` survive.
        """
        if len(shards) != self.n:
            raise ValueError(f"expected {self.n} shard slots, got {len(shards)}")
        present = [i for i, s in enumerate(shards) if s is not None]
        if len(present) < self.k:
            raise ValueError(
                f"unrecoverable: {len(present)} shards present, need {self.k}"
            )
        use = present[: self.k]
        if use == list(range(self.k)):
            payload = b"".join(shards[i] for i in range(self.k))
            return payload[:length]
        sub = [self._matrix[i] for i in use]
        inv = GF256.mat_inv(sub)
        size = len(shards[use[0]])
        survivors = [bytes(shards[i]) for i in use]
        out = []
        for row in range(self.k):
            acc = bytes(size)
            for col in range(self.k):
                coef = inv[row][col]
                if coef:
                    acc = _xor_bytes(
                        acc, survivors[col].translate(GF256.mul_row(coef))
                    )
            out.append(acc)
        return b"".join(out)[:length]

    def reconstruct_shard(self, shards: Sequence[Optional[bytes]], index: int, length: int) -> bytes:
        """Recompute the single shard ``index`` from the survivors."""
        data = self.decode(shards, length)
        return self.encode(data)[index]


# -- the shard's on-disk form ----------------------------------------------------
#
# An EC object is stored as one object per acting-set slot: the shard
# bytes as payload, three internal xattrs (payload length, shard index,
# checksum), and a copy of the object's user xattrs and omap — every
# shard duplicates them, which is what keeps dedup refcounts
# self-contained on an EC pool.

_EC_LEN_XATTR = "_ec.length"
_EC_IDX_XATTR = "_ec.index"
#: Per-shard content checksum (Ceph stores the analogous hinfo_key):
#: without it, a single corrupt shard in a k+1 profile cannot be located.
_EC_CRC_XATTR = "_ec.crc"


def _shard_crc(shard: bytes) -> bytes:
    return zlib.crc32(shard).to_bytes(4, "big")


def _shard_xattrs(length: int, index: int, shard: bytes) -> Dict[str, bytes]:
    """The internal xattrs of shard ``index`` of a ``length``-byte payload."""
    return {
        _EC_LEN_XATTR: str(length).encode("ascii"),
        _EC_IDX_XATTR: str(index).encode("ascii"),
        _EC_CRC_XATTR: _shard_crc(shard),
    }


def _shard_object(
    length: int,
    index: int,
    shard: bytes,
    xattrs: Mapping[str, bytes],
    omap: Mapping[str, bytes],
) -> StoredObject:
    """Shard ``index`` as stored: ``xattrs``/``omap`` are the user's."""
    return StoredObject(
        data=shard,
        xattrs={**xattrs, **_shard_xattrs(length, index, shard)},
        omap=dict(omap),
    )


def _shard_index(obj: StoredObject) -> int:
    """Which shard of the stripe ``obj`` holds."""
    return int(obj.xattrs[_EC_IDX_XATTR].decode("ascii"))


def _payload_length(obj: StoredObject) -> int:
    """Length of the whole payload the shard ``obj`` belongs to."""
    return int(obj.xattrs[_EC_LEN_XATTR].decode("ascii"))


def _user_xattrs(obj: StoredObject) -> Dict[str, bytes]:
    """The shard's xattrs minus the internal ones: the object's own."""
    return {
        name: value
        for name, value in obj.xattrs.items()
        if name not in (_EC_LEN_XATTR, _EC_IDX_XATTR, _EC_CRC_XATTR)
    }


def _crc_ok(obj: StoredObject, shard: bytes) -> bool:
    """Whether ``shard`` (read from ``obj``) matches its stored checksum."""
    want = obj.xattrs.get(_EC_CRC_XATTR)
    return want is None or _shard_crc(shard) == want
