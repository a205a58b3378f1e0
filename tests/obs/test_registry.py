"""MetricsRegistry unit tests: families, labels, cardinality, buckets."""

import pytest

from repro.obs.registry import DEFAULT_BUCKETS, CardinalityError, Histogram, MetricsRegistry


def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    counter = reg.counter("repro_ops_total", "ops")
    counter.inc()
    counter.inc(2.5)
    assert counter.labels().value == 3.5
    with pytest.raises(ValueError):
        counter.labels().inc(-1)
    gauge = reg.gauge("repro_depth", "queue depth")
    gauge.set(7)
    gauge.inc(3)
    gauge.dec(1)
    assert gauge.labels().value == 9.0


def test_labels_must_match_registered_names():
    reg = MetricsRegistry()
    family = reg.counter("repro_hits_total", labels=("op", "result"))
    family.labels(op="read", result="hit").inc()
    with pytest.raises(ValueError):
        family.labels(op="read")  # missing "result"
    with pytest.raises(ValueError):
        family.labels(op="read", result="hit", extra="x")


def test_label_cardinality_cap_fails_fast():
    reg = MetricsRegistry(max_series_per_family=4)
    family = reg.counter("repro_chunks_total", labels=("chunk",))
    for i in range(4):
        family.labels(chunk=f"c{i}").inc()
    with pytest.raises(CardinalityError):
        family.labels(chunk="c4")
    # Existing series stay addressable after the cap trips.
    family.labels(chunk="c0").inc()
    assert len(family) == 4


def test_registration_is_idempotent_but_shape_checked():
    reg = MetricsRegistry()
    first = reg.counter("repro_ops_total", labels=("op",))
    again = reg.counter("repro_ops_total", labels=("op",))
    assert again is first
    with pytest.raises(ValueError):
        reg.gauge("repro_ops_total", labels=("op",))  # kind mismatch
    with pytest.raises(ValueError):
        reg.counter("repro_ops_total", labels=("other",))  # label mismatch
    hist = reg.histogram("repro_lat", buckets=(0.1, 1.0))
    assert reg.histogram("repro_lat", buckets=(0.1, 1.0)) is hist
    with pytest.raises(ValueError):
        reg.histogram("repro_lat", buckets=(0.5, 1.0))  # bucket mismatch


def test_name_and_label_validation():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("9starts_with_digit")
    with pytest.raises(ValueError):
        reg.counter("repro_ok", labels=("bad-label",))
    with pytest.raises(ValueError):
        reg.counter("repro_dup", labels=("a", "a"))


def test_histogram_bucket_boundaries_are_upper_inclusive():
    hist = Histogram(buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 1.5, 2.0, 5.0, 9.0):
        hist.observe(value)
    # le semantics: a sample equal to a boundary lands in that bucket.
    assert hist.counts == [2, 2, 1, 1]  # (<=1, <=2, <=5, +Inf)
    assert hist.count == 6
    assert hist.sum == pytest.approx(19.0)
    assert hist.min == 0.5
    assert hist.max == 9.0
    assert hist.mean == pytest.approx(19.0 / 6)


def test_histogram_bucket_validation():
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(buckets=(2.0, 1.0))


def test_histogram_quantile_edges():
    hist = Histogram(buckets=(1.0, 2.0))
    assert hist.quantile(0.5) == 0.0  # empty
    hist.observe(0.4)
    hist.observe(1.6)
    assert hist.quantile(0.0) == 0.4  # exact observed min
    assert hist.quantile(1.0) == 1.6  # exact observed max
    mid = hist.quantile(0.5)
    assert 0.4 <= mid <= 1.6
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_default_buckets_are_strictly_increasing():
    assert all(a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))


def test_to_dict_is_sorted_and_json_ready():
    import json

    reg = MetricsRegistry()
    # Register out of order; export must sort by family then labels.
    reg.gauge("repro_z", labels=("k",)).labels(k="2").set(2)
    reg.gauge("repro_z", labels=("k",)).labels(k="1").set(1)
    reg.counter("repro_a").inc(3)
    reg.histogram("repro_h", buckets=(1.0,)).observe(0.5)
    doc = reg.to_dict()
    assert list(doc) == ["repro_a", "repro_h", "repro_z"]
    assert [s["labels"]["k"] for s in doc["repro_z"]["series"]] == ["1", "2"]
    hist_series = doc["repro_h"]["series"][0]
    assert hist_series["count"] == 1
    assert hist_series["buckets"] == [(1.0, 1)]
    assert hist_series["overflow"] == 0
    json.dumps(doc)  # must serialize without custom encoders
