"""A FIO-like workload generator.

Models the subset of FIO the paper uses (§2.2, §6.2): sequential and
random read/write jobs with a configurable block size, number of jobs,
I/O depth, and ``dedupe_percentage``.  Each job addresses a virtual
"file" striped over fixed-size storage objects, the way a Ceph RBD
block device stripes over RADOS objects.

Workers are closed-loop: each of the ``numjobs * iodepth`` lanes issues
its next I/O as soon as the previous one completes, so measured IOPS
and latency reflect the storage system's service capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import RngRegistry
from .datagen import ContentGenerator

__all__ = ["FioJobSpec", "FioResult", "FioRunner"]

KiB = 1024
MiB = 1024 * KiB

_PATTERNS = ("write", "randwrite", "read", "randread")


@dataclass
class FioJobSpec:
    """One FIO job description (mirrors the fio options it models)."""

    pattern: str = "write"
    block_size: int = 4 * KiB
    file_size: int = 1 * MiB
    numjobs: int = 1
    iodepth: int = 1
    dedupe_percentage: float = 0.0  # 0..100, like fio
    compress_percentage: float = 0.0  # 0..100
    object_size: int = 64 * KiB
    runtime: Optional[float] = None  # simulated seconds; None = size-bound
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in _PATTERNS:
            raise ValueError(
                f"pattern must be one of {_PATTERNS}, got {self.pattern!r}"
            )
        if self.object_size % self.block_size != 0:
            raise ValueError(
                f"object_size ({self.object_size}) must be a multiple of "
                f"block_size ({self.block_size})"
            )
        if self.file_size % self.block_size != 0:
            raise ValueError(
                f"file_size ({self.file_size}) must be a multiple of "
                f"block_size ({self.block_size})"
            )
        if not (0.0 <= self.dedupe_percentage <= 100.0):
            raise ValueError("dedupe_percentage must be in [0, 100]")

    @property
    def is_read(self) -> bool:
        """Whether the job issues reads."""
        return self.pattern in ("read", "randread")

    @property
    def is_random(self) -> bool:
        """Whether offsets are random rather than sequential."""
        return self.pattern in ("randwrite", "randread")


@dataclass
class FioResult:
    """Aggregated outcome of a FIO run."""

    #: Sum of every op's latency (simulated seconds).
    latency_sum: float = 0.0
    total_bytes: int = 0
    total_ops: int = 0
    duration: float = 0.0
    cpu_percent: float = 0.0

    @property
    def bandwidth(self) -> float:
        """Bytes/second over the whole run."""
        return self.total_bytes / self.duration if self.duration else 0.0

    @property
    def iops(self) -> float:
        """Operations/second over the whole run."""
        return self.total_ops / self.duration if self.duration else 0.0

    @property
    def mean_latency(self) -> float:
        """Average op latency in seconds, 0.0 when no op ran."""
        return self.latency_sum / self.total_ops if self.total_ops else 0.0


class FioRunner:
    """Executes a :class:`FioJobSpec` against a storage facade.

    ``storage`` is anything exposing the write/read process API:
    :class:`~repro.core.DedupedStorage`,
    :class:`~repro.core.InlineDedupStorage`, or
    :class:`~repro.core.PlainStorage`.
    """

    def __init__(self, storage, spec: FioJobSpec):
        self.storage = storage
        self.spec = spec
        self.sim = storage.sim
        self._rng = RngRegistry(spec.seed)

    def _oid(self, job: int, obj_index: int) -> str:
        return f"fio.j{job}.o{obj_index}"

    def _locate(self, offset: int):
        return offset // self.spec.object_size, offset % self.spec.object_size

    def prefill(self) -> None:
        """Write every object of every job's file (before read tests)."""
        gen = ContentGenerator(
            seed=self.spec.seed + 1,
            dedupe_ratio=self.spec.dedupe_percentage / 100.0,
            compress_ratio=self.spec.compress_percentage / 100.0,
        )
        for job in range(self.spec.numjobs):
            for obj_index in range(self.spec.file_size // self.spec.object_size):
                data = b"".join(
                    gen.stream(self.spec.object_size, self.spec.block_size)
                )
                self.storage.write_sync(self._oid(job, obj_index), data)

    def run(self) -> FioResult:
        """Run the job to completion and return aggregated metrics."""
        spec = self.spec
        result = FioResult()
        start = self.sim.now
        cpus = [node.cpu for node in self.storage.cluster.nodes.values()]
        busy_before = [cpu.core_seconds() for cpu in cpus]
        blocks_per_file = spec.file_size // spec.block_size
        procs = []
        for job in range(spec.numjobs):
            client = self.storage.client(f"fio-client-{job}")
            gen = ContentGenerator(
                seed=spec.seed + 1000 + job,
                dedupe_ratio=spec.dedupe_percentage / 100.0,
                compress_ratio=spec.compress_percentage / 100.0,
            )
            cursor = {"next": 0, "remaining": blocks_per_file}
            rng = self._rng.stream(f"job{job}")
            for _lane in range(spec.iodepth):
                procs.append(
                    self.sim.process(
                        self._worker(job, client, gen, cursor, rng, result, start)
                    )
                )
        self.sim.run_until_complete(self.sim.all_of(procs))
        result.duration = self.sim.now - start
        if result.duration > 0:  # this run's core-seconds, not the prefill's
            busy = sum((cpu.core_seconds() - before) / cpu.spec.cores
                       for cpu, before in zip(cpus, busy_before))
            result.cpu_percent = 100.0 * busy / (len(cpus) * result.duration)
        return result

    def _next_offset(self, cursor, rng) -> Optional[int]:
        spec = self.spec
        blocks_per_file = spec.file_size // spec.block_size
        if spec.runtime is None:
            if cursor["remaining"] <= 0:
                return None
            cursor["remaining"] -= 1
        if spec.is_random:
            return rng.randrange(blocks_per_file) * spec.block_size
        offset = cursor["next"] * spec.block_size
        cursor["next"] = (cursor["next"] + 1) % blocks_per_file
        return offset

    def _worker(self, job, client, gen, cursor, rng, result, start):
        spec = self.spec
        while True:
            if spec.runtime is not None and self.sim.now - start >= spec.runtime:
                return
            offset = self._next_offset(cursor, rng)
            if offset is None:
                return
            obj_index, obj_offset = self._locate(offset)
            oid = self._oid(job, obj_index)
            issued = self.sim.now
            if spec.is_read:
                data = yield from self.storage.read(
                    oid, obj_offset, spec.block_size, client
                )
                nbytes = len(data)
            else:
                block = gen.block(spec.block_size)
                yield from self.storage.write(oid, block, obj_offset, client)
                nbytes = spec.block_size
            result.latency_sum += self.sim.now - issued
            result.total_bytes += nbytes
            result.total_ops += 1
