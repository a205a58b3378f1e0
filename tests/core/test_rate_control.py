"""Tests for the op window and watermark rate controller."""

import pytest

from repro.core import DedupConfig
from repro.core.rate_control import OpWindow, RateController
from repro.sim import Simulator


def make_rc(sim, window, **overrides):
    kwargs = dict(
        ops_per_dedup_mid=100,
        ops_per_dedup_high=500,
    )
    kwargs.update(overrides)
    return RateController(sim, window, DedupConfig(**kwargs))


def feed(sim, window, n_ops, nbytes=4096):
    for _ in range(n_ops):
        window.note(nbytes)


def test_window_iops_and_throughput():
    sim = Simulator()
    window = OpWindow(sim, window=1.0)
    feed(sim, window, 50, nbytes=1000)
    assert window.iops() == 50.0
    assert window.throughput() == 50_000.0


def test_window_expires_old_ops():
    sim = Simulator()
    window = OpWindow(sim, window=1.0)
    feed(sim, window, 50)
    sim.run(until=2.0)
    assert window.iops() == 0.0


def test_window_totals_are_cumulative():
    sim = Simulator()
    window = OpWindow(sim, window=1.0)
    feed(sim, window, 10, nbytes=100)
    sim.run(until=5.0)
    feed(sim, window, 5, nbytes=100)
    assert window.total_ops == 15
    assert window.total_bytes == 1500


def test_window_invalid():
    with pytest.raises(ValueError):
        OpWindow(Simulator(), window=0)


def test_ratio_below_low_watermark_unthrottled():
    sim = Simulator()
    window = OpWindow(sim)
    rc = make_rc(sim, window)
    feed(sim, window, 50)  # 50 IOPS < low (100)
    assert rc.current_ratio() == 0


def test_ratio_between_watermarks():
    sim = Simulator()
    window = OpWindow(sim)
    rc = make_rc(sim, window)
    feed(sim, window, 500)
    assert rc.current_ratio() == 100


def test_ratio_above_high_watermark():
    sim = Simulator()
    window = OpWindow(sim)
    rc = make_rc(sim, window)
    feed(sim, window, 2000)
    assert rc.current_ratio() == 500


def test_throttle_waits_for_n_foreground_ops_worth_of_time():
    sim = Simulator()
    window = OpWindow(sim)
    rc = make_rc(sim, window)
    feed(sim, window, 1000)  # exactly at high watermark -> ratio 500

    def proc():
        yield from rc.throttle()
        return sim.now

    p = sim.process(proc())
    sim.run()
    # 500 ops at 1000 IOPS = 0.5 s.
    assert p.value == pytest.approx(0.5)
    assert rc.throttled == 1


def test_throttle_immediate_when_idle():
    sim = Simulator()
    window = OpWindow(sim)
    rc = make_rc(sim, window)

    def proc():
        yield from rc.throttle()
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 0.0
    assert rc.passed == 1


def test_throttle_disabled():
    sim = Simulator()
    window = OpWindow(sim)
    rc = make_rc(sim, window, rate_control=False)
    feed(sim, window, 10_000)

    def proc():
        yield from rc.throttle()
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        DedupConfig(refcount_mode="sometimes")
    with pytest.raises(ValueError):
        DedupConfig(chunk_size=0)
    with pytest.raises(ValueError):
        DedupConfig(hit_count_threshold=0)
