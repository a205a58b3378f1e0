"""Host cost of the kernel, as exact counts: Python frames per event
and per device service, and of the whole program per cached read.

Every number this package reports is millions of kernel events, so the
frames of ``repro/sim/`` spent per event are a third of the host cost of
every benchmark.  This runs a fixed device workload under ``cProfile``
and divides calls of functions defined in ``repro/sim/`` by events
processed, and by device services performed.  All three are exact counts
on a deterministic simulation, so the test cannot flake; it fails when
someone puts a helper call, a property, a resume callback or a wrapper
back on the per-event path, or a second event back into a device
service.  See
docs/simulation.md, "Host cost per event".

A read adds every layer above the kernel: the frames of ``src/repro``
one cached read costs through ``DedupedStorage.read`` are counted
exactly, so a generator that only ``yield from``s another, put back on
the read path, fails the count — it costs a frame per resume.
"""

import cProfile
import os
import pstats
from collections import Counter

import repro
import repro.sim
from repro.cluster.hardware import Disk, DiskSpec, Nic, NicSpec
from repro.core import DedupedStorage
from repro.sim import Simulator

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
SIM_DIR = os.path.dirname(os.path.abspath(repro.sim.__file__)) + os.sep

#: Measured 2.23 on this workload (13.39 before the per-event path was
#: collapsed to step + _resume, 5.68 while a service was a ``serve``
#: generator around its hold, 3.72 while ``step`` called a ``_resume``
#: frame per wake-up); about 10 % headroom.
FRAMES_PER_EVENT_BUDGET = 2.45

#: Frames per *event* cannot see an event that should not exist, so the
#: same frames are also budgeted per device service: measured 4.54
#: (17.58 when a service was a grant event plus a Timeout, 11.58 while
#: it was a ``serve`` generator, 7.58 with a ``_resume`` frame per
#: wake-up); about 10 % headroom.
FRAMES_PER_SERVICE_BUDGET = 5.0

#: Frames of ``src/repro`` in one cached read of a one-object store
#: (263 with the ``serve`` wrapper and the delegating generators on the
#: read path, 205 with a ``_resume`` frame per wake-up and the RPC hops
#: made through ``Simulator.timeout``).  Comprehensions and lambdas are
#: left out: CPython 3.12 inlines comprehensions, so they are frames on
#: some versions only.
FRAMES_PER_CACHED_READ = 173

PROCESSES, ROUNDS = 8, 25


def device_workload(sim):
    """PROCESSES writers over two disks and two NICs, so devices queue
    and hand slots over through ``Resource.hold``, the shape of every
    modelled disk/NIC/CPU hop."""
    disks = [Disk(sim, DiskSpec()) for _ in range(2)]
    nics = [Nic(sim, NicSpec()) for _ in range(2)]

    def writer(k):
        for i in range(ROUNDS):
            yield from nics[k % 2].send(4096 + 512 * i)
            yield sim.process(disks[(k + i) % 2].write(8192))

    return [sim.process(writer(k)) for k in range(PROCESSES)]


def test_sim_frames_per_event_stay_within_budget():
    sim = Simulator()
    writers = device_workload(sim)
    profile = cProfile.Profile()
    profile.enable()
    try:
        sim.run()
    finally:
        profile.disable()
    assert all(w.ok for w in writers)

    frames = sum(
        calls
        for (filename, _line, _name), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items()
        if os.path.abspath(filename).startswith(SIM_DIR)
    )
    events = sim._processed_events
    # bootstrap + 25 x (send: service | write: bootstrap, service,
    # completion) + completion, per writer.
    assert events == PROCESSES * (2 + 4 * ROUNDS)
    assert frames / events <= FRAMES_PER_EVENT_BUDGET, (
        "%d frames of repro/sim/ for %d events = %.2f per event (budget %.1f)"
        % (frames, events, frames / events, FRAMES_PER_EVENT_BUDGET)
    )
    services = PROCESSES * 2 * ROUNDS
    assert frames / services <= FRAMES_PER_SERVICE_BUDGET, (
        "%d frames of repro/sim/ for %d device services = %.2f per service (budget %.1f)"
        % (frames, services, frames / services, FRAMES_PER_SERVICE_BUDGET)
    )


def test_a_cached_read_costs_an_exact_number_of_frames():
    storage = DedupedStorage(start_engine=False)
    data = bytes(range(256)) * 256
    storage.write_sync("obj", data)
    storage.read_sync("obj")  # warm the map cache
    profile = cProfile.Profile()
    profile.enable()
    try:
        assert storage.read_sync("obj") == data
    finally:
        profile.disable()
    frames = Counter()
    for (filename, _line, name), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items():
        if os.path.abspath(filename).startswith(REPRO_DIR) and not name.startswith("<"):
            frames[os.path.relpath(filename, REPRO_DIR), name] += calls
    assert sum(frames.values()) == FRAMES_PER_CACHED_READ, frames.most_common()
