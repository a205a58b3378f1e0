"""FaultPlan: seeded determinism, validation, constructors."""

import pytest

from repro.faults import FaultPlan
from repro.faults.plan import FAULT_KINDS, FaultEvent


def test_generate_is_deterministic_per_seed():
    kwargs = dict(horizon=5.0, osd_ids=range(8), hosts=[f"host{i}" for i in range(4)])
    a = FaultPlan.generate(seed=42, **kwargs)
    b = FaultPlan.generate(seed=42, **kwargs)
    assert a.events == b.events
    assert a.describe() == b.describe()


def test_generate_varies_across_seeds():
    kwargs = dict(horizon=5.0, osd_ids=range(8), hosts=[f"host{i}" for i in range(4)])
    plans = [FaultPlan.generate(seed=s, **kwargs) for s in range(20)]
    assert len({"\n".join(p.describe()) for p in plans}) > 1


def test_generated_events_sorted_and_within_horizon():
    for seed in range(30):
        plan = FaultPlan.generate(seed=seed, horizon=4.0, osd_ids=range(6),
                                  hosts=["host0", "host1"])
        times = [ev.time for ev in plan]
        assert times == sorted(times)
        for ev in plan:
            assert 0 <= ev.time <= 4.0
            assert ev.kind in FAULT_KINDS


def test_every_crash_gets_a_restart_inside_horizon():
    for seed in range(50):
        plan = FaultPlan.generate(seed=seed, horizon=4.0, osd_ids=range(6))
        crashes = [ev for ev in plan if ev.kind == "osd_crash"]
        restarts = {ev.target: ev.time for ev in plan if ev.kind == "osd_restart"}
        for crash in crashes:
            assert crash.target in restarts
            assert crash.time < restarts[crash.target] <= 4.0


def test_single_osd_kill():
    plan = FaultPlan.single_osd_kill(3, at=1.0, restart_after=0.5)
    assert [(ev.time, ev.kind, ev.target) for ev in plan] == [
        (1.0, "osd_crash", "3"),
        (1.5, "osd_restart", "3"),
    ]
    no_restart = FaultPlan.single_osd_kill(3, at=1.0)
    assert len(no_restart) == 1


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(1.0, "meteor_strike", "0")
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "osd_crash", "0")
    with pytest.raises(ValueError):
        FaultEvent(1.0, "slow_disk", "0", duration=-0.5)


def test_events_are_sorted_on_construction():
    plan = FaultPlan(
        [
            FaultEvent(2.0, "osd_restart", "1"),
            FaultEvent(1.0, "osd_crash", "1"),
        ]
    )
    assert [ev.kind for ev in plan] == ["osd_crash", "osd_restart"]


def test_describe_mentions_every_event():
    plan = FaultPlan.generate(seed=1, horizon=5.0, osd_ids=range(8),
                              hosts=["host0", "host1"])
    lines = plan.describe()
    assert len(lines) == len(plan)
    for ev, line in zip(plan, lines):
        assert ev.kind in line and ev.target in line
