"""Tests for the device models' timing behaviour."""

import pytest

from repro.cluster.hardware import Cpu, CpuSpec, Disk, DiskSpec, Nic, NicSpec
from repro.sim import Simulator

MiB = 1024 * 1024


def run_proc(sim, gen):
    p = sim.process(gen)
    sim.run()
    assert p.ok
    return p.value


def test_disk_write_time_matches_spec():
    spec = DiskSpec(seq_bandwidth=500 * MiB, write_iops=30_000)
    sim = Simulator()
    disk = Disk(sim, spec)

    def proc():
        yield from disk.write(4096)
        return sim.now

    finish = run_proc(sim, proc())
    assert finish == pytest.approx(1 / 30_000 + 4096 / (500 * MiB))


def test_disk_reads_cheaper_than_writes():
    spec = DiskSpec()
    assert spec.read_time(4096) < spec.write_time(4096)


def test_disk_serializes_requests():
    sim = Simulator()
    disk = Disk(sim, DiskSpec())

    def proc():
        for _ in range(10):
            yield from disk.write(4096)
        return sim.now

    finish = run_proc(sim, proc())
    assert finish == pytest.approx(10 * DiskSpec().write_time(4096))
    assert disk.writes == 10
    assert disk.bytes_written == 40960


def test_disk_saturated_iops_close_to_rated():
    """A closed-loop 4K random write stream achieves ~rated IOPS."""
    sim = Simulator()
    spec = DiskSpec()
    disk = Disk(sim, spec)

    def worker():
        while sim.now < 0.1:
            yield from disk.write(4096)

    sim.process(worker())
    sim.run()
    achieved = disk.writes / sim.now
    # 4K at 500MB/s adds ~8us to the 33us op: expect ~24k IOPS.
    assert 0.6 * spec.write_iops < achieved <= spec.write_iops


def test_nic_transfer_time():
    spec = NicSpec(bandwidth=1.25 * 1024 * MiB, latency=50e-6)
    sim = Simulator()
    nic = Nic(sim, spec)

    def proc():
        yield from nic.send(1024 * 1024)
        return sim.now

    finish = run_proc(sim, proc())
    assert finish == pytest.approx(spec.transfer_time(1024 * 1024))
    assert nic.bytes_sent == 1024 * 1024


def test_nic_send_receive_independent_queues():
    sim = Simulator()
    nic = Nic(sim, NicSpec())

    def sender():
        yield from nic.send(10 * MiB)
        return sim.now

    def receiver():
        yield from nic.receive(10 * MiB)
        return sim.now

    s = sim.process(sender())
    r = sim.process(receiver())
    sim.run()
    # Full duplex: both finish at the single-transfer time.
    assert s.value == pytest.approx(r.value)


def test_cpu_parallelism():
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(cores=4))

    def worker():
        yield from cpu.execute(1.0)

    for _ in range(8):
        sim.process(worker())
    sim.run()
    assert sim.now == pytest.approx(2.0)  # 8 jobs / 4 cores


def test_cpu_utilization_accounting():
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(cores=2))

    def worker():
        yield from cpu.execute(1.0)
        yield sim.timeout(1.0)

    sim.process(worker())
    sim.run()
    # 1 core-second busy over 2 seconds on 2 cores = 25%.
    assert cpu.utilization() == pytest.approx(0.25)


def test_a_window_counts_only_its_own_core_seconds():
    # One core-second at t=0, then an idle window [10, 11]: the window
    # was idle, however busy the time before it was.
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec())
    sim.process(cpu.execute(1.0))
    sim.run(until=10.0)
    before = cpu.core_seconds()
    sim.run(until=11.0)
    assert cpu.core_seconds() - before == 0.0
    assert before == pytest.approx(1.0)


def test_cpu_zero_cost_is_free():
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec())

    def worker():
        yield from cpu.execute(0.0)
        return sim.now

    assert run_proc(sim, worker()) == 0.0


def test_fingerprint_cost_scales_with_size():
    spec = CpuSpec()
    assert spec.fingerprint_time(2 * MiB) == pytest.approx(
        2 * spec.fingerprint_time(MiB)
    )
