"""Host cost of the kernel, as exact counts: Python frames per event
and per device service.

Every number this package reports is millions of kernel events, so the
frames of ``repro/sim/`` spent per event are a third of the host cost of
every benchmark.  This runs a fixed device workload under ``cProfile``
and divides calls of functions defined in ``repro/sim/`` by events
processed, and by device services performed.  All three are exact counts
on a deterministic simulation, so the test cannot flake; it fails when
someone puts a helper call, a property or a wrapper back on the
per-event path, or a second event back into a device service.  See
docs/simulation.md, "Host cost per event".
"""

import cProfile
import os
import pstats

import repro.sim
from repro.cluster.hardware import Disk, DiskSpec, Nic, NicSpec
from repro.sim import Simulator

SIM_DIR = os.path.dirname(os.path.abspath(repro.sim.__file__)) + os.sep

#: Measured 5.68 on this workload (13.39 before the per-event path was
#: collapsed to step + _resume); about 10 % headroom.
FRAMES_PER_EVENT_BUDGET = 6.3

#: Frames per *event* cannot see an event that should not exist, so the
#: same frames are also budgeted per device service: measured 11.58
#: (17.58 when a service was a grant event plus a Timeout); about 10 %
#: headroom.
FRAMES_PER_SERVICE_BUDGET = 12.7

PROCESSES, ROUNDS = 8, 25


def device_workload(sim):
    """PROCESSES writers over two disks and two NICs, so devices queue
    and hand slots over through ``Resource.serve``, the shape of every
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
