"""Hardware device models: SSD, NIC, and CPU.

The paper's testbed is four servers, each with an Intel Xeon E5-2690
(12 cores), 128 GB RAM, four SATA SSDs (SK Hynix 480 GB), connected by
10 GbE, with three client nodes (§6.1).  These classes model the time
cost of the operations that testbed would perform; the discrete-event
kernel (:mod:`repro.sim`) turns those costs into queueing behaviour —
contention, interference, and utilisation — which is what the paper's
performance figures are about.

All rates are bytes/second and all times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import Event, Resource, Simulator, Timeout

__all__ = [
    "DiskSpec",
    "NicSpec",
    "CpuSpec",
    "HardwareProfile",
    "Disk",
    "Nic",
    "Cpu",
]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


@dataclass(frozen=True)
class DiskSpec:
    """Performance envelope of one SSD.

    Defaults approximate a SATA-class data-centre SSD (the paper's
    SK Hynix 480 GB): ~500 MB/s sequential, ~80k random-read IOPS,
    ~30k random-write IOPS.
    """

    seq_bandwidth: float = 500 * MiB
    read_iops: float = 80_000.0
    write_iops: float = 30_000.0
    capacity_bytes: int = 480 * GiB
    #: Writes are refused once usage passes this fraction of capacity
    #: (Ceph's full_ratio default is 0.95).
    full_ratio: float = 0.95

    def read_time(self, nbytes: int) -> float:
        """Service time for a single read of ``nbytes``."""
        return 1.0 / self.read_iops + nbytes / self.seq_bandwidth

    def write_time(self, nbytes: int) -> float:
        """Service time for a single (journaled) write of ``nbytes``."""
        return 1.0 / self.write_iops + nbytes / self.seq_bandwidth


@dataclass(frozen=True)
class NicSpec:
    """A network interface: 10 GbE by default."""

    bandwidth: float = 1.25 * GiB  # 10 Gbit/s
    latency: float = 50e-6  # one-way propagation + stack latency
    per_message_overhead: int = 256  # headers etc., bytes

    def transfer_time(self, nbytes: int) -> float:
        """Wire time (excluding propagation) for one message."""
        return (nbytes + self.per_message_overhead) / self.bandwidth


@dataclass(frozen=True)
class CpuSpec:
    """Per-node CPU envelope and per-byte costs of compute-heavy kernels.

    ``fingerprint_bandwidth`` models SHA-1-class hashing, ``ec_bandwidth``
    the Reed-Solomon encode path, ``compress_bandwidth`` a zlib-class
    codec.  Small fixed per-op costs model dispatch overhead; the paper
    notes small random writes already consume 60-80 % CPU on Ceph (§5).
    """

    cores: int = 12
    fingerprint_bandwidth: float = 1.0 * GiB
    ec_bandwidth: float = 3.0 * GiB
    compress_bandwidth: float = 200 * MiB
    per_io_cost: float = 25e-6  # CPU seconds consumed by one I/O op

    def fingerprint_time(self, nbytes: int) -> float:
        """CPU time to fingerprint ``nbytes``."""
        return nbytes / self.fingerprint_bandwidth

    def ec_time(self, nbytes: int) -> float:
        """CPU time to erasure-encode/decode ``nbytes``."""
        return nbytes / self.ec_bandwidth

    def compress_time(self, nbytes: int) -> float:
        """CPU time to compress ``nbytes``."""
        return nbytes / self.compress_bandwidth


@dataclass(frozen=True)
class HardwareProfile:
    """The full hardware description used to build a simulated cluster."""

    disk: DiskSpec = field(default_factory=DiskSpec)
    nic: NicSpec = field(default_factory=NicSpec)
    cpu: CpuSpec = field(default_factory=CpuSpec)


class Disk:
    """A simulated SSD: a unit-capacity FIFO server over :class:`DiskSpec`.

    Rated IOPS emerge naturally: with service time ``1/IOPS + size/bw``
    and one request in service at a time, a saturating 4 KiB random-write
    stream completes at roughly ``write_iops`` per second.
    """

    def __init__(self, sim: Simulator, spec: DiskSpec):
        self.sim = sim
        self.spec = spec
        self._server = Resource(sim, capacity=1)
        #: Totals for metrics: (ops, bytes) per direction.
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def read(self, nbytes: int):
        """Process generator performing one device read."""
        self.reads += 1
        self.bytes_read += nbytes
        yield self._server.hold(self.spec.read_time(nbytes))

    def write(self, nbytes: int):
        """Process generator performing one device write."""
        self.writes += 1
        self.bytes_written += nbytes
        yield self._server.hold(self.spec.write_time(nbytes))

    def utilization(self) -> float:
        """Fraction of time the device was busy since t=0."""
        return self._server.utilization()


class Nic:
    """A simulated NIC with separate egress and ingress FIFO queues."""

    def __init__(self, sim: Simulator, spec: NicSpec):
        self.sim = sim
        self.spec = spec
        self._egress = Resource(sim, capacity=1)
        self._ingress = Resource(sim, capacity=1)
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, nbytes: int):
        """Process generator: occupy the egress queue for the wire time."""
        self.bytes_sent += nbytes
        yield self._egress.hold(self.spec.transfer_time(nbytes))

    def receive(self, nbytes: int):
        """Process generator: occupy the ingress queue for the wire time."""
        self.bytes_received += nbytes
        yield self._ingress.hold(self.spec.transfer_time(nbytes))

    def post(self, dst: "Nic", nbytes: int) -> Event:
        """Start moving ``nbytes`` to ``dst`` without a process: returns
        the event of the bytes landing there.

        The costs are a transfer's — this NIC's egress, the one-way
        latency, ``dst``'s ingress, each queued FIFO behind whatever was
        already waiting there — chained by callbacks, so a message sent
        after this one, over either queue, lands after it.  Each queue's
        hold frees it before the next link runs.
        """
        sim = self.sim
        landed = Event(sim)
        egress, ingress = self._egress, dst._ingress

        def sent(_event: Event) -> None:
            Timeout(sim, self.spec.latency).callbacks.append(arrived)

        def arrived(_event: Event) -> None:
            dst.bytes_received += nbytes
            ingress.hold(dst.spec.transfer_time(nbytes)).callbacks.append(received)

        def received(_event: Event) -> None:
            landed.succeed()

        self.bytes_sent += nbytes
        egress.hold(self.spec.transfer_time(nbytes)).callbacks.append(sent)
        return landed


class Cpu:
    """A simulated multi-core CPU with utilisation accounting."""

    def __init__(self, sim: Simulator, spec: CpuSpec):
        self.sim = sim
        self.spec = spec
        self._cores = Resource(sim, capacity=spec.cores)
        self.busy_seconds = 0.0

    def execute(self, cpu_seconds: float):
        """Process generator: burn ``cpu_seconds`` on one core."""
        if cpu_seconds <= 0:
            return
        self.busy_seconds += cpu_seconds
        yield self._cores.hold(cpu_seconds)

    def fingerprint(self, nbytes: int):
        """Process generator: hash ``nbytes`` (e.g. chunk fingerprinting)."""
        yield from self.execute(self.spec.fingerprint_time(nbytes))

    def utilization(self) -> float:
        """Average fraction of all cores busy since t=0."""
        return self._cores.utilization()

    def core_seconds(self) -> float:
        """Core-seconds busy since t=0: their growth over a window, per
        core-second of it, is the paper's Figure 10 "CPU Usage (%)"."""
        return self._cores.slot_seconds()
