"""Contract of the end-to-end benchmark, checked on two ``--smoke`` runs.

Picked up by the nightly ``pytest benchmarks`` (not by tier-1, whose
``testpaths`` is ``tests``).
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import metricdefs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Host-clock metrics: everything else must repeat exactly.
HOST_CLOCK = {"setup_s", "host_ops_per_s", "peak_rss_mb"}


def smoke(out_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "3",
         "--out", str(out_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    with open(out_path) as handle:
        return json.load(handle)["reports"]


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    return smoke(base / "a.json"), smoke(base / "b.json")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_metric_tables(declared):
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]}
    assert e2e == metricdefs.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert layers == dict(metricdefs.PER_LAYER, **metricdefs.UNBOUNDED_END_TO_END)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: spec.why for name, spec in workloads.SPECS.items()}
    assert declared["run_seconds"] == workloads.FROZEN_SECONDS
    assert declared["paths"] == ["benchmarks/e2e"]
    for name in list(e2e) + list(layers) + list(workloads.SPECS):
        assert NAME.match(name), name
    assert all(0 < bound <= 0.25 for _u, _b, bound in e2e.values())


def test_every_workload_reports_every_metric(two_runs, declared):
    names = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    run, _ = two_runs
    assert [r["workload"] for r in run] == list(workloads.SPECS)
    for report in run:
        assert len(report["end_to_end"]) == 15  # the issue's 13 and two means
        assert set(report["end_to_end"]) | set(report["per_layer"]) == names
        assert all(v is not None for v in report["end_to_end"].values())
        missing = {k for k, v in report["per_layer"].items() if v is None}
        assert missing <= set(report["not_applicable"]), missing
        assert report["absent"] == []
        assert report["trace"]["span_check"]["ok"]
        assert report["trace"]["simulation_identical_to_untraced"]
        assert report["trace"]["host_self_shares_sum"] == pytest.approx(1.0)
        assert report["comparable"] is False  # a smoke run never is
    # Span-derived numbers are live, not all-zero: sub-chunk writes merge.
    assert run[0]["per_layer"]["core.io_path.rmw_share"] > 0


def test_simulated_metrics_repeat_exactly(two_runs):
    for a, b in zip(*two_runs):
        assert a["input_digest"] == b["input_digest"]
        for name in a["end_to_end"]:
            if name == "host_calls_per_op":
                assert a["end_to_end"][name] == pytest.approx(b["end_to_end"][name], rel=0.005)
            elif name not in HOST_CLOCK:
                assert a["end_to_end"][name] == b["end_to_end"][name], name


def test_a_removed_probe_target_is_reported_absent(monkeypatch):
    from repro.cluster import RadosCluster
    from repro.core import DedupedStorage, DedupTier

    # A later PR deletes a boundary function and a counter source.
    monkeypatch.delattr(DedupTier, "read_local_chunk")
    storage = DedupedStorage(RadosCluster(num_hosts=2, osds_per_host=2, pg_num=8))
    del storage.tier.stage
    tracer = tracing.SpanTracer(storage.sim)
    tracer.install()
    try:
        assert any("read_local_chunk" in line for line in tracer.absent)
    finally:
        tracer.uninstall()
    absent = list(tracer.absent)
    counters = tracing.read_counters(storage, absent)
    assert counters["stage"] is None and counters["engine"] is not None
    assert any("stage" in line for line in absent)


def test_metrics_of_an_absent_counter_are_null_not_a_crash(two_runs):
    report = two_runs[0][0]
    # Rebuild per-layer metrics from a traced pass that lost its stage counters.
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", report["workload"],
         "--seed", "3", "--rounds", "2", "--scale", "smoke", "--mode", "traced"],
        stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert done.returncode == 0
    traced = json.loads(done.stdout.strip().splitlines()[-1])
    untraced = copy.deepcopy(traced)
    traced["trace"]["counters_before"]["stage"] = None
    traced["trace"]["counters_after"]["stage"] = None
    layers = metricdefs.per_layer(untraced, traced)
    assert layers["core.tier.map_cache_hit_ratio"] is None
    assert layers["core.engine.dedup_hit_share"] is not None
