"""MetricsRegistry unit tests: gauge families, fixed labels, order."""

import pytest

from repro.obs.registry import MetricsRegistry


def test_gauge_set_and_label_less_series():
    reg = MetricsRegistry()
    gauge = reg.gauge("repro_depth", "queue depth")
    assert gauge.labels().value == 0.0
    gauge.set(7)
    assert gauge.labels().value == 7.0
    gauge.labels().set(True)
    assert reg.get("repro_depth").labels().value == 1.0
    assert reg.get("repro_missing") is None


def test_labels_must_match_registered_names():
    reg = MetricsRegistry()
    family = reg.gauge("repro_hits", labels=("op", "result"))
    family.labels(op="read", result="hit").set(1)
    with pytest.raises(ValueError):
        family.labels(op="read")  # missing "result"
    with pytest.raises(ValueError):
        family.labels(op="read", result="hit", extra="x")
    with pytest.raises(ValueError):
        family.set(2)  # the label-less series of a labeled family


def test_a_name_registers_once():
    reg = MetricsRegistry()
    reg.gauge("repro_ops", labels=("op",))
    with pytest.raises(ValueError):
        reg.gauge("repro_ops", labels=("op",))


def test_families_and_series_iterate_sorted():
    reg = MetricsRegistry()
    reg.gauge("repro_z", labels=("k",))
    reg.gauge("repro_a")
    for key in ("2", "10", "1"):
        reg.get("repro_z").labels(k=key).set(int(key))
    assert [family.name for family in reg.families()] == ["repro_a", "repro_z"]
    # Label values are strings: "10" sorts before "2".
    assert [labels for labels, _ in reg.get("repro_z").series_items()] == [
        ("1",), ("10",), ("2",)
    ]
