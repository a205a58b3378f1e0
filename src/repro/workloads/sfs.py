"""A SPEC SFS 2014 DATABASE-like workload.

The paper evaluates high availability with the SPEC SFS 2014 database
workload at several load levels (LD1/LD3/LD10; §2.2, §6.4.1).  The
defining properties reproduced here:

* **open-loop fixed op rate**: each LOAD unit requests a fixed number of
  operations per second, regardless of how fast the system responds
  ("the database workload in SPEC SFS 2014 issues fixed number of
  requests per second. That's why there is no difference between
  replication and the proposed method" in throughput, while latency
  explodes when the system cannot keep up — the EC rows of Figure 12);
* **mixed op types**: sequential reads, random reads, and random writes
  are in flight simultaneously;
* a dataset that scales with LOAD, with database-page content that is
  substantially dedupable (Figure 3 measures 21-50 % global dedup on
  SFS DB data depending on load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..sim import RngRegistry
from .datagen import ContentGenerator

__all__ = ["SfsDatabaseSpec", "SfsResult", "SfsDatabaseWorkload"]

KiB = 1024
MiB = 1024 * KiB

#: Op mix of the DATABASE-like workload: weights must sum to 1.
_DEFAULT_MIX = {"read": 0.10, "randread": 0.50, "randwrite": 0.40}


@dataclass
class SfsDatabaseSpec:
    """Parameters of the DB workload (sizes are simulation-scaled)."""

    load: int = 1
    ops_per_load: float = 200.0  # requested op/s per LOAD unit
    dataset_per_load: int = 2 * MiB  # paper: 24 GB at LOAD 10, scaled ~1/1000
    block_size: int = 8 * KiB
    object_size: int = 64 * KiB
    duration: float = 10.0  # simulated seconds of measurement
    dedupe_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.load < 1:
            raise ValueError(f"load must be >= 1, got {self.load}")
        if self.object_size % self.block_size != 0:
            raise ValueError("object_size must be a multiple of block_size")

    @property
    def op_rate(self) -> float:
        """Requested operations per second."""
        return self.load * self.ops_per_load

    @property
    def dataset_bytes(self) -> int:
        """Total dataset size (rounded to whole objects)."""
        raw = self.load * self.dataset_per_load
        return (raw // self.object_size) * self.object_size


@dataclass
class SfsResult:
    """Outcome: overall and per-op-type metrics (Figure 12 a-d)."""

    #: Per op type: the sum of its completed ops' latencies (simulated
    #: seconds).
    per_op_latency_sum: Dict[str, float] = field(default_factory=dict)
    per_op_count: Dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    requested_ops: int = 0
    completed_ops: int = 0
    duration: float = 0.0

    @property
    def throughput(self) -> float:
        """Achieved bytes/second."""
        return self.total_bytes / self.duration if self.duration else 0.0

    @property
    def mean_latency(self) -> float:
        """Average latency of every completed op, in seconds."""
        total = sum(self.per_op_latency_sum.values())
        return total / self.completed_ops if self.completed_ops else 0.0

    def op_mean_latency(self, op: str) -> float:
        """Average latency of one op type, in seconds."""
        count = self.per_op_count.get(op, 0)
        return self.per_op_latency_sum[op] / count if count else 0.0

    @property
    def achieved_iops(self) -> float:
        """Completed operations per second."""
        return self.completed_ops / self.duration if self.duration else 0.0

    def op_iops(self, op: str) -> float:
        """Per-op-type achieved IOPS."""
        return self.per_op_count.get(op, 0) / self.duration if self.duration else 0.0


class SfsDatabaseWorkload:
    """Drives the DB-like workload against a storage facade."""

    def __init__(self, storage, spec: SfsDatabaseSpec, mix: Dict[str, float] = None):
        self.storage = storage
        self.spec = spec
        self.mix = dict(mix) if mix is not None else dict(_DEFAULT_MIX)
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"op mix must sum to 1, got {total}")
        self.sim = storage.sim
        self._rng = RngRegistry(spec.seed)

    def _oid(self, obj_index: int) -> str:
        return f"sfsdb.o{obj_index}"

    @property
    def num_objects(self) -> int:
        """Dataset objects backing the database."""
        return self.spec.dataset_bytes // self.spec.object_size

    def prefill(self) -> None:
        """Lay down the database files before measurement."""
        gen = ContentGenerator(
            seed=self.spec.seed + 1, dedupe_ratio=self.spec.dedupe_ratio
        )
        for obj_index in range(self.num_objects):
            data = b"".join(
                gen.stream(self.spec.object_size, self.spec.block_size)
            )
            self.storage.write_sync(self._oid(obj_index), data)

    def run(self) -> SfsResult:
        """Issue the fixed-rate mixed op stream; return metrics."""
        spec = self.spec
        result = SfsResult()
        for op in self.mix:
            result.per_op_latency_sum[op] = 0.0
            result.per_op_count[op] = 0
        client = self.storage.client("sfs-client")
        gen = ContentGenerator(seed=spec.seed + 2, dedupe_ratio=spec.dedupe_ratio)
        start = self.sim.now
        arrival = self.sim.process(
            self._arrival_loop(client, gen, result, start)
        )
        # The arrival loop itself waits for every in-flight op, so this
        # returns once the last issued op completes (possibly well past
        # the issue window when the system cannot keep up — that tail is
        # the latency explosion Figure 12 shows for EC).
        self.sim.run_until_complete(arrival)
        result.duration = self.sim.now - start
        return result

    def _pick_op(self, rng) -> str:
        roll = rng.random()
        acc = 0.0
        for op, weight in self.mix.items():
            acc += weight
            if roll < acc:
                return op
        return next(iter(self.mix))

    def _arrival_loop(self, client, gen, result, start):
        spec = self.spec
        rng = self._rng.stream("arrivals")
        interarrival = 1.0 / spec.op_rate
        seq_cursor = {"next": 0}
        ops_in_flight = []
        while self.sim.now - start < spec.duration:
            op = self._pick_op(rng)
            result.requested_ops += 1
            ops_in_flight.append(
                self.sim.process(
                    self._one_op(op, client, gen, rng, seq_cursor, result)
                )
            )
            yield self.sim.timeout(interarrival)
        yield self.sim.all_of(ops_in_flight)

    def _one_op(self, op, client, gen, rng, seq_cursor, result):
        spec = self.spec
        blocks_per_obj = spec.object_size // spec.block_size
        total_blocks = self.num_objects * blocks_per_obj
        if op == "read":
            block_no = seq_cursor["next"]
            seq_cursor["next"] = (seq_cursor["next"] + 1) % total_blocks
        else:
            block_no = rng.randrange(total_blocks)
        obj_index, block_in_obj = divmod(block_no, blocks_per_obj)
        offset = block_in_obj * spec.block_size
        issued = self.sim.now
        if op == "randwrite":
            block = gen.block(spec.block_size)
            yield from self.storage.write(
                self._oid(obj_index), block, offset, client
            )
            nbytes = spec.block_size
        else:
            data = yield from self.storage.read(
                self._oid(obj_index), offset, spec.block_size, client
            )
            nbytes = len(data)
        result.per_op_latency_sum[op] += self.sim.now - issued
        result.per_op_count[op] += 1
        result.completed_ops += 1
        result.total_bytes += nbytes
