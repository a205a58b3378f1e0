"""The four workloads: inputs, op streams and the correctness oracle.

Everything here is benchmark-owned and derived from ``--seed``: the
program under test only ever sees object names, offsets and payload
bytes.  A workload is built once, in set-up, as a :class:`Plan` — the
prefill batches, one warm-up round, the measured rounds and a few
*tail* rounds (run under ``cProfile`` after the measured phase to count
calls) — and the SHA-1 of the whole plan is its ``input_digest``.

Sizes are frozen here (see README.md, "Sizing"): a later PR that changes
them changes every number in ``history.jsonl`` and must re-baseline.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

KiB = 1024
MiB = 1024 * KiB

#: ``run_seconds`` in BENCHMARK.json; ``--seconds`` scales the round
#: count linearly from the per-workload ``rounds`` below, which were
#: sized so an untraced measured phase takes about this long at HEAD.
FROZEN_SECONDS = 10

# An op is a plain tuple — (kind, oid, offset, length, payload) — where
# kind is "w", "r" or "d" (delete the object) and payload is a tuple of
# (arena offset, length) pieces for writes and () otherwise.
Op = Tuple[str, str, int, int, tuple]
# A step of a round: ("idle", seconds) | ("drain",) | ("settle",) |
# ("burst", kind, [Op]) | ("open", kind, rate, duration, [(due, Op)]).
Step = tuple


@dataclass(frozen=True)
class Spec:
    """Frozen shape of one workload."""

    name: str
    loop: str  # "closed" | "open"
    lanes: int
    clients: int
    rounds: int  # measured rounds at FROZEN_SECONDS
    granule: int  # write size == oracle granularity
    #: Per-op-type latency limit in simulated ms: 4 x the HEAD p50 of
    #: that op type (at r1 for the open loop), rounded to 2 s.f.
    slo_ms: Dict[str, float]
    why: str
    #: Open loop only: arrival rates in ops/s of simulated time, frozen
    #: at 0.25 / 0.5 / 0.8 x the closed-loop saturation rate at HEAD.
    rates: Tuple[float, ...] = ()


SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            "rand-small-cold", "closed", lanes=8, clients=2, rounds=10, granule=8 * KiB,
            slo_ms={"read": 1.1, "write": 1.3},
            why="Fig. 10: sub-chunk random I/O on a dataset sized out of every cache, "
            "so the sim kernel, rados, crush and the tier/io_path miss paths do the work",
        ),
        Spec(
            "seq-backup", "closed", lanes=4, clients=2, rounds=10, granule=128 * KiB,
            slo_ms={"read": 1.7, "write": 7.2},
            why="Fig. 11 and the classic dedup case: few large sequential ops over "
            "backup generations, so the engine, fingerprinting and batch coalescing dominate",
        ),
        Spec(
            "hot-reread", "closed", lanes=8, clients=2, rounds=14, granule=4 * KiB,
            slo_ms={"read": 0.66, "write": 2.3},
            why="The working set that fits: refset LRU, Bloom, map cache, chunk data cache "
            "and hot-object caching do the work; the mirror of rand-small-cold",
        ),
        Spec(
            "sfs-mixed-open", "open", lanes=64, clients=3, rounds=10, granule=8 * KiB,
            slo_ms={"read": 0.66, "write": 1.2},
            rates=(39000.0, 77000.0, 120000.0),
            why="Figs. 12/14: reads, writes and the background engine in flight together at "
            "three fixed arrival rates, so a gain for one use that costs another shows",
        ),
    )
}

#: SFS DATABASE-like mix (paper section 6.4.1), as cumulative shares:
#: 10 % sequential reads, 50 % random reads, the rest random writes.
_SFS_SEQ_READS, _SFS_READS = 0.10, 0.60
#: Arrivals per open-loop segment per "round" (10 rounds -> 10000).
_SFS_ARRIVALS_PER_ROUND = 1000
#: seq-backup keeps this many generations; older ones are deleted, as a
#: backup retention window does.  It bounds the live data — so the final
#: read-back of every object fits the run-time cap, memory stops growing
#: and stored bytes per user byte levels off — and exercises dereference.
_BACKUP_RETAINED = 2


@dataclass
class Plan:
    """Everything one run of one workload needs, built from the seed."""

    spec: Spec
    arena: bytes
    object_sizes: Dict[str, int]
    prefill: List[List[Op]]
    warmup: List[List[Step]]
    measured: List[List[Step]]
    tail: List[List[Step]]
    input_digest: str = ""
    oracle: "Oracle" = field(init=False)

    def __post_init__(self) -> None:
        self.oracle = Oracle(self.arena, self.spec.granule)

    def payload(self, pieces: tuple) -> bytes:
        """The bytes of a write (a slice of the arena, or a join)."""
        arena = self.arena
        if len(pieces) == 1:
            off, n = pieces[0]
            return arena[off : off + n]
        return b"".join([arena[off : off + n] for off, n in pieces])


class Oracle:
    """Shadow copy of every object, as version histories per granule.

    Writes are granule-aligned, so a granule's content is always the
    payload of exactly one write.  Concurrent ops make "the" expected
    value ambiguous, so a read is correct when each granule it returns
    equals *some admissible* version: one whose write was issued before
    the read completed and that was not definitely superseded (another
    write to the granule issued after it completed and completed before
    the read was issued).
    """

    def __init__(self, arena: bytes, granule: int) -> None:
        self.arena = arena
        self.granule = granule
        # (oid, granule index) -> [[issued, done, pieces]]
        self._versions: Dict[Tuple[str, int], List[list]] = {}

    def begin_write(self, op: Op, issued: float) -> List[list]:
        """Record a write as in flight; returns the handle for
        :meth:`end_write`.  An in-flight write supersedes nothing and is
        itself admissible to any read that overlaps it."""
        _kind, oid, offset, length, pieces = op
        g = self.granule
        handle = []
        for pos in range(0, length, g):
            version = [issued, float("inf"), _sub_pieces(pieces, pos, g)]
            self._versions.setdefault((oid, (offset + pos) // g), []).append(version)
            handle.append(version)
        return handle

    @staticmethod
    def end_write(handle: List[list], done: float) -> None:
        for version in handle:
            version[1] = done

    def _admissible(self, key, issued: float, done: float) -> List[tuple]:
        versions = [v for v in self._versions.get(key, ()) if v[0] <= done]
        return [
            v[2]
            for v in versions
            if not any(w[0] >= v[1] and w[1] <= issued for w in versions if w is not v)
        ]

    def mismatches(
        self, oid: str, offset: int, data: bytes, issued: float, done: float
    ) -> List[int]:
        """Object offsets of granules in ``data`` that match no admissible
        version (empty list: the read is correct)."""
        g = self.granule
        arena = self.arena
        bad = []
        for pos in range(0, len(data), g):
            got = data[pos : pos + g]
            for pieces in self._admissible(((oid, (offset + pos) // g)), issued, done):
                if got == b"".join([arena[o : o + n] for o, n in pieces]):
                    break
            else:
                bad.append(offset + pos)
        return bad


def _sub_pieces(pieces: tuple, start: int, length: int) -> tuple:
    """The part of a payload covering ``[start, start + length)``."""
    out = []
    pos = 0
    end = start + length
    for off, n in pieces:
        lo, hi = max(start, pos), min(end, pos + n)
        if lo < hi:
            out.append((off + lo - pos, hi - lo))
        pos += n
    return tuple(out)


# -- input generation ----------------------------------------------------------


def _rng(seed: int, *scope) -> random.Random:
    # One independent stream per (workload, section, round): truncating
    # a plan to its first rounds (the traced pass) changes nothing in them.
    return random.Random("e2e:%d:%s" % (seed, ":".join(str(s) for s in scope)))


class _Arena:
    """Append-only byte store the payload pieces point into."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self.size = 0

    def add(self, blob: bytes) -> int:
        off = self.size
        self._parts.append(blob)
        self.size += len(blob)
        return off

    def freeze(self) -> bytes:
        return b"".join(self._parts)


def _dataset(arena: _Arena, rng: random.Random, n_blocks: int, block: int, dup: float):
    """Arena offsets of ``n_blocks`` blocks, a ``dup`` share of which
    repeat an earlier block."""
    offsets: List[int] = []
    for _ in range(n_blocks):
        if offsets and rng.random() < dup:
            offsets.append(rng.choice(offsets))
        else:
            offsets.append(arena.add(rng.randbytes(block)))
    return offsets


#: Overwrite payloads are slices of one random pool at random byte
#: offsets — as good as fresh bytes to a 32 KiB chunker, without holding
#: ~80 MiB of one-use payloads in the benchmark's own resident set.
_POOL_BYTES = 4 * MiB


def _fresh_writes(pool: int, rng: random.Random, targets, size: int) -> List[Op]:
    """Write ops with (practically) never-before-seen payloads."""
    return [
        ("w", oid, off, size, ((pool + rng.randrange(_POOL_BYTES - size), size),))
        for oid, off in targets
    ]


def _batches(items: list, count: int) -> List[list]:
    """``items`` cut into ``count`` equal batches (the remainder dropped
    into the last), so set-up time has >= 10 equal slices to take a
    median over."""
    per = max(1, len(items) // count)
    out = [items[i : i + per] for i in range(0, per * count, per)]
    out[-1].extend(items[per * count :])
    return [b for b in out if b]


def _closed_small(spec, seed, rounds, tail_rounds, scale):
    """rand-small-cold and hot-reread: same loop, opposite working sets."""
    cold = spec.name == "rand-small-cold"
    arena = _Arena()
    rng = _rng(seed, spec.name, "data")
    chunk = 32 * KiB
    if cold:
        # 48 MiB: >= 4x chunk_cache_bytes (8 MiB), 3x map_cache_entries (256).
        n_obj, obj_size, dup = (768 if scale == "full" else 48), 64 * KiB, 0.25
        idle, n_writes, n_reads, read_size = 10.0, 500, 1000, 8 * KiB
    else:
        # 4 MiB: half of chunk_cache_bytes, 32-entry maps, 4 << map_cache_entries.
        n_obj, obj_size, dup = 4, 1 * MiB, 0.0
        idle, n_writes, n_reads, read_size = 0.0, 300, 3000, 8 * KiB
    if scale == "smoke":
        n_writes, n_reads = n_writes // 6, n_reads // 6
    per_obj = obj_size // chunk
    blocks = _dataset(arena, rng, n_obj * per_obj, chunk, dup)
    pool = arena.add(rng.randbytes(_POOL_BYTES))
    oids = ["%s.o%04d" % (spec.name, i) for i in range(n_obj)]
    sizes = {oid: obj_size for oid in oids}
    prefill_ops: List[Op] = []
    piece = 64 * KiB  # prefill write size
    for i, oid in enumerate(oids):
        mine = blocks[i * per_obj : (i + 1) * per_obj]
        for off in range(0, obj_size, piece):
            pieces = tuple((b, chunk) for b in mine[off // chunk : (off + piece) // chunk])
            prefill_ops.append(("w", oid, off, piece, pieces))
    w_slots = obj_size // spec.granule
    r_slots = obj_size // read_size
    if not cold:
        # Zipf(1.0) over every 8 KiB block, ranks shuffled by the seed.
        ranked = [(oid, slot * read_size) for oid in oids for slot in range(r_slots)]
        rng.shuffle(ranked)
        zipf_cum = list(accumulate(1.0 / (rank + 1) for rank in range(len(ranked))))

    def make_round(section: str, index: int) -> List[Step]:
        r = _rng(seed, spec.name, section, index)
        writes = _fresh_writes(
            pool, r,
            [(r.choice(oids), r.randrange(w_slots) * spec.granule) for _ in range(n_writes)],
            spec.granule,
        )
        if cold:
            reads = [
                ("r", r.choice(oids), r.randrange(r_slots) * read_size, read_size, ())
                for _ in range(n_reads)
            ]
        else:
            reads = [
                ("r",) + ranked[bisect_left(zipf_cum, r.random() * zipf_cum[-1])]
                + (read_size, ())
                for _ in range(n_reads)
            ]
        steps: List[Step] = [("idle", idle)] if idle else []
        return steps + [("burst", "write", writes), ("drain",), ("burst", "read", reads)]

    return _finish(
        spec, seed, arena, sizes, _batches(prefill_ops, 12),
        [make_round("warmup", 0)],
        [make_round("round", i) for i in range(rounds)],
        [make_round("tail", i) for i in range(tail_rounds)],
    )


def _seq_backup(spec, seed, rounds, tail_rounds, scale):
    arena = _Arena()
    rng = _rng(seed, spec.name, "data")
    chunk = 32 * KiB
    obj_size = 512 * KiB
    n_obj = 48 if scale == "full" else 6  # 24 MiB per generation
    n_blocks = n_obj * obj_size // chunk
    current = _dataset(arena, rng, n_blocks, chunk, 0.0)
    sizes: Dict[str, int] = {}

    def generation(g: int) -> List[Op]:
        nonlocal current
        if g:
            r = _rng(seed, spec.name, "mutate", g)
            current = list(current)
            for i in r.sample(range(n_blocks), n_blocks // 10):
                current[i] = arena.add(r.randbytes(chunk))
        ops = []
        per_write = spec.granule // chunk
        for o in range(n_obj):
            oid = "bk.g%03d.o%03d" % (g, o)
            sizes[oid] = obj_size
            first = o * obj_size // chunk
            for off in range(0, obj_size, spec.granule):
                at = first + off // chunk
                pieces = tuple((b, chunk) for b in current[at : at + per_write])
                ops.append(("w", oid, off, spec.granule, pieces))
        return ops

    def restore(write_ops: List[Op]) -> List[Op]:
        return [("r", oid, off, n, ()) for _k, oid, off, n, _p in write_ops]

    def retire(g: int) -> List[Step]:
        if g < 0:
            return []
        oids = sorted({op[1] for op in gens[g]})
        return [("burst", "retire", [("d", oid, 0, 0, ()) for oid in oids])]

    gens = [generation(g) for g in range(1 + 1 + rounds + tail_rounds)]
    # Round g writes generation g, drains, restores generation g-1, then
    # deletes the generation that fell out of the retention window.
    rounds_all = [
        [("burst", "write", gens[g]), ("drain",), ("burst", "read", restore(gens[g - 1]))]
        + retire(g - _BACKUP_RETAINED)
        for g in range(1, len(gens))
    ]
    return _finish(
        spec, seed, arena, sizes, _batches(gens[0], 12),
        rounds_all[:1], rounds_all[1 : 1 + rounds], rounds_all[1 + rounds :],
    )


def _sfs_mixed_open(spec, seed, rounds, tail_rounds, scale):
    arena = _Arena()
    rng = _rng(seed, spec.name, "data")
    chunk = 32 * KiB
    obj_size = 64 * KiB
    n_obj = 256 if scale == "full" else 32  # 16 MiB
    per_obj = obj_size // chunk
    blocks = _dataset(arena, rng, n_obj * per_obj, chunk, 0.5)
    pool = arena.add(rng.randbytes(_POOL_BYTES))
    oids = ["sfs.o%04d" % i for i in range(n_obj)]
    sizes = {oid: obj_size for oid in oids}
    prefill_ops = [
        ("w", oid, 0, obj_size,
         tuple((b, chunk) for b in blocks[i * per_obj : (i + 1) * per_obj]))
        for i, oid in enumerate(oids)
    ]
    op_size = spec.granule
    slots = obj_size // op_size
    per_segment = _SFS_ARRIVALS_PER_ROUND * (1 if scale == "full" else 0.25)

    def segment(section: str, index: int, rate: float, arrivals: int) -> Step:
        r = _rng(seed, spec.name, section, index)
        duration = arrivals / rate
        # A Poisson process conditioned on its count: sorted uniforms.
        dues = sorted(r.random() * duration for _ in range(arrivals))
        kinds = [r.random() for _ in range(arrivals)]
        cursor = r.randrange(n_obj * slots)
        targets = []
        for u in kinds:
            if u < _SFS_SEQ_READS:  # sequential read: next block of the scan
                cursor = (cursor + 1) % (n_obj * slots)
                targets.append((oids[cursor // slots], (cursor % slots) * op_size))
            else:
                targets.append((r.choice(oids), r.randrange(slots) * op_size))
        writes = iter(_fresh_writes(
            pool, r, [t for u, t in zip(kinds, targets) if u >= _SFS_READS], op_size
        ))
        ops = [
            next(writes) if u >= _SFS_READS else ("r", t[0], t[1], op_size, ())
            for u, t in zip(kinds, targets)
        ]
        return ("open", section if section != "round" else "r%d" % (index + 1),
                rate, duration, list(zip(dues, ops)))

    n = int(per_segment * rounds)
    measured = [
        [segment("round", i, rate, n) for i, rate in enumerate(spec.rates)]
        + [("settle",), ("drain",)]
    ]
    quarter = max(1, int(per_segment * max(1, rounds // 4)))
    warmup = [[segment("warmup", 0, spec.rates[0], quarter), ("settle",)]]
    # No drain in the tail: after so few ops it would be half of the calls
    # counted, and what it finds dirty moves them by 20 % from seed to seed.
    tail = [
        [segment("tail", 0, spec.rates[1], int(per_segment * tail_rounds)), ("settle",)]
    ] if tail_rounds else []
    return _finish(spec, seed, arena, sizes, _batches(prefill_ops, 16), warmup, measured, tail)


def _finish(spec, seed, arena, sizes, prefill, warmup, measured, tail) -> Plan:
    plan = Plan(spec, arena.freeze(), sizes, prefill, warmup, measured, tail)
    digest = hashlib.sha1(plan.arena)
    digest.update(repr((spec.name, seed, sorted(sizes.items()))).encode())
    for section in (prefill, warmup, measured, tail):
        digest.update(repr(section).encode())
    plan.input_digest = digest.hexdigest()
    return plan


_BUILDERS = {
    "rand-small-cold": _closed_small,
    "hot-reread": _closed_small,
    "seq-backup": _seq_backup,
    "sfs-mixed-open": _sfs_mixed_open,
}


def rounds_for(spec: Spec, seconds: Optional[float]) -> int:
    """Measured rounds for a ``--seconds`` budget: linear in the budget,
    from the frozen count, and never a function of host speed — the op
    stream (and so every simulated number) depends only on the arguments."""
    if seconds is None:
        return spec.rounds
    return max(1, round(spec.rounds * seconds / FROZEN_SECONDS))


def tail_rounds_for(rounds: int) -> int:
    """Rounds run under cProfile after the measured phase, to count calls."""
    return max(2, rounds // 5)


def traced_rounds_for(rounds: int) -> int:
    """The traced pass runs the first quarter of the rounds, at least 3."""
    return min(rounds, max(3, rounds // 4))


def build_plan(name: str, seed: int, rounds: int, tail_rounds: int, scale: str = "full") -> Plan:
    """Generate every input of workload ``name`` from ``seed``."""
    spec = SPECS[name]
    return _BUILDERS[name](spec, seed, rounds, tail_rounds, scale)
