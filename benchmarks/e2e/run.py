"""End-to-end benchmark of the dedup store, on both clocks.

    python3 benchmarks/e2e/run.py --seed N [--workload NAME] [--out FILE]

prints every metric of every workload by name and unit, verifies every
byte it reads back, and exits non-zero on any failure.  See README.md.

The driver form — ``--workload W --seed N --seconds S --trace 0|1`` —
runs one workload and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Each pass of a workload runs in a fresh child interpreter
(``child.py``, ``PYTHONHASHSEED=0``), one at a time.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metricdefs  # noqa: E402
import workloads  # noqa: E402

HISTORY = os.path.join(HERE, "history.jsonl")
#: --smoke: tiny datasets, this many measured rounds, no bounds applied.
SMOKE_ROUNDS = 2
#: Fresh set-ups per untraced pass; setup_s takes the median by position.
SETUP_REPEATS = 3


def run_child(workload: str, seed: int, rounds: int, *extra: str) -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns what it reported."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--rounds", str(rounds), *extra,
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, env=dict(os.environ, PYTHONHASHSEED="0"), text=True,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit("child failed (exit %d): %s" % (done.returncode, " ".join(command)))
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_flags(args) -> List[str]:
    flags = ["--scale", "smoke" if args.smoke else "full"]
    for pair in args.config:
        flags += ["--config", pair]
    return flags


def measured_rounds(args, workload: str) -> int:
    if args.smoke:
        return SMOKE_ROUNDS
    return workloads.rounds_for(workloads.SPECS[workload], args.seconds)


def untraced_pass(args, workload: str) -> Dict[str, Any]:
    """The pass every end-to-end metric comes from."""
    rounds = measured_rounds(args, workload)
    tail = 1 if args.smoke else workloads.tail_rounds_for(rounds)
    return run_child(
        workload, args.seed, rounds, "--tail-rounds", str(tail),
        "--setup-repeats", str(SETUP_REPEATS), *child_flags(args))


def traced_pair(args, workload: str, spans_out: Optional[str] = None):
    """The traced pass and an untraced pass of the same rounds (the
    first quarter): the second gives the tracing overhead, the host cost
    per event and the plain-storage fidelity reference."""
    rounds = workloads.traced_rounds_for(measured_rounds(args, workload))
    flags = child_flags(args)
    untraced = run_child(workload, args.seed, rounds, "--plain-replay", *flags)
    if spans_out:
        flags += ["--spans-out", spans_out]
    traced = run_child(workload, args.seed, rounds, "--mode", "traced", *flags)
    return untraced, traced


#: Simulated results that tracing must leave bit-identical.
_SIM_KEYS = ("sim_busy_s", "sim_ops_per_s", "latency", "missed_slo")


def same_simulation(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return (
        a["input_digest"] == b["input_digest"]
        and a["stored_bytes"] == b["stored_bytes"]
        and all(a["measured"][k] == b["measured"][k] for k in _SIM_KEYS)
    )


# -- the driver's form ------------------------------------------------------------------


def driver_line(args) -> int:
    workload = args.workload
    if args.trace == 0:
        result = untraced_pass(args, workload)
        values = metricdefs.end_to_end(result)
        names = {k: v[0] for k, v in metricdefs.END_TO_END.items()}
        results = [result]
    else:
        untraced, traced = traced_pair(args, workload)
        values = metricdefs.per_layer(untraced, traced)
        names = {k: v[0] for k, v in metricdefs.PER_LAYER.items()}
        names.update({k: v[0] for k, v in metricdefs.UNBOUNDED_END_TO_END.items()})
        results = [untraced, traced]
    failed = sum(r["failure_count"] for r in results)
    for r in results:
        for line in r["failures"]:
            print("FAILED %s: %s" % (workload, line), file=sys.stderr)
    # The driver's format has no null: a metric whose target is absent,
    # or that does not apply to this workload, reads 0 here and is named
    # under `absent` / `not_applicable` in the full report.
    print(json.dumps({
        "correct": failed == 0,
        "attempted": results[0]["measured"]["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": values[name] if values[name] is not None else 0, "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


# -- the full report --------------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return "%.6g" % value


def report_workload(args, workload: str, spans_out) -> Dict[str, Any]:
    spec = workloads.SPECS[workload]
    full = untraced_pass(args, workload)
    untraced, traced = traced_pair(args, workload, spans_out)
    layers = metricdefs.per_layer(untraced, traced)
    absent = sorted(set(traced["trace"].get("absent", [])))
    return {
        "workload": workload,
        "why": spec.why,
        "seed": args.seed,
        "rounds": full["rounds"],
        "input_digest": full["input_digest"],
        "config_overrides": full["config_overrides"],
        "comparable": not full["config_overrides"] and not args.smoke,
        "threads": full["threads"],
        "end_to_end": metricdefs.end_to_end(full),
        "samples": {k: full["measured"]["latency"][k]["n"] for k in ("read", "write")},
        "host_slices": {
            k: {q: v[q] for q in ("n", "undisturbed", "min", "q1", "median", "q3")}
            for k, v in full["measured"]["slices"].items()
        },
        "setup_slices": full["setup"]["slices"],
        "per_layer": layers,
        "absent": absent,
        "not_applicable": metricdefs.not_applicable(spec.loop),
        "trace": {
            "rounds": traced["rounds"],
            "span_check": traced["trace"]["span_check"],
            "simulation_identical_to_untraced": same_simulation(untraced, traced),
            "host_self_shares_sum": sum(
                layers[name] or 0.0 for name in layers
                if name.endswith(".host_self_share") or name == "bench.unattributed_host_share"
            ),
        },
        "miss_by_tag": full["measured"]["miss_by_tag"],
        "failures": full["failures"] + untraced["failures"] + traced["failures"],
        "failure_count": sum(r["failure_count"] for r in (full, untraced, traced)),
        "wall_s": {
            "untraced": full["wall_s"], "traced_pair": [untraced["wall_s"], traced["wall_s"]],
        },
    }


def print_report(report: Dict[str, Any]) -> None:
    e2e_units = dict(metricdefs.END_TO_END)
    e2e_units.update({k: v + (None,) for k, v in metricdefs.UNBOUNDED_END_TO_END.items()})
    print("\n== %s  seed %d  rounds %d  input_digest %s" % (
        report["workload"], report["seed"], report["rounds"], report["input_digest"][:12]))
    if not report["comparable"]:
        print("   comparable: false  (config_overrides=%s)" % (report["config_overrides"],))
    print("   threads: %s" % (report["threads"],))
    for name, value in report["end_to_end"].items():
        unit, better, bound = e2e_units[name]
        extra = "" if bound is None else "  bound %.0f%%" % (100 * bound)
        print("   %-32s %14s %-9s (%s is better%s)" % (name, _fmt(value), unit, better, extra))
    print("   latency samples: %s" % (report["samples"],))
    for kind, q in report["host_slices"].items():
        print("   host slice %-10s n=%-3d undisturbed %.4f  q1 %.4f  median %.4f  q3 %.4f s" % (
            kind, q["n"], q["undisturbed"], q["q1"], q["median"], q["q3"]))
    units = metricdefs.PER_LAYER
    print("   -- per layer (traced pass, %d rounds) --" % report["trace"]["rounds"])
    for name, value in report["per_layer"].items():
        if name in units:
            print("   %-52s %14s %s" % (name, _fmt(value), units[name][0]))
    for line in report["absent"]:
        print("   absent: %s" % line)
    if report["not_applicable"]:
        print("   not applicable: %s" % ", ".join(report["not_applicable"]))
    print("   trace: %s" % (report["trace"],))
    for label, ok in report["character"].items():
        verdict = {True: "ok", False: "FAILED", None: "not evaluated"}[ok]
        print("   character: %-58s %s" % (label, verdict))
    for line in report["failures"]:
        print("   FAILED: %s" % line)


def problems_of(report: Dict[str, Any], smoke: bool) -> List[str]:
    out = []
    if report["failure_count"]:
        out.append("%d failed ops / mismatches" % report["failure_count"])
    if not smoke:  # a smoke run is too small to have the workload's character
        out += ["character check failed: " + k for k, ok in report["character"].items()
                if ok is False]
    trace = report["trace"]
    if not trace["span_check"]["ok"]:
        out.append("spans: %s" % (trace["span_check"],))
    if not trace["simulation_identical_to_untraced"]:
        out.append("tracing changed the simulated results")
    return out


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def record(reports: List[Dict[str, Any]], seed: int) -> None:
    """Append this run to history.jsonl (append-only: the trajectory of
    the end-to-end metrics across commits lives in the repo)."""
    line = {
        "commit": git_commit(),
        "date": datetime.date.today().isoformat(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "workloads": {
            r["workload"]: {
                "input_digest": r["input_digest"],
                "fingerprint_workers": r["threads"]["fingerprint_workers"],
                "end_to_end": r["end_to_end"],
                "host_slices": r["host_slices"],
                "setup_slices": r["setup_slices"],
            }
            for r in reports
        },
    }
    with open(HISTORY, "a") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")


def trend() -> int:
    if not os.path.exists(HISTORY):
        print("no history yet: %s" % HISTORY)
        return 0
    with open(HISTORY) as lines:
        runs = [json.loads(line) for line in lines if line.strip()]
    names = list(metricdefs.END_TO_END) + list(metricdefs.UNBOUNDED_END_TO_END)
    for workload in workloads.SPECS:
        rows = [r for r in runs if workload in r["workloads"]]
        if not rows:
            continue
        print("\n== %s" % workload)
        print("%-10s %-10s %5s %5s  %s" % (
            "commit", "date", "seed", "nproc", " ".join("%16s" % n[-16:] for n in names)))
        for r in rows:
            values = r["workloads"][workload]["end_to_end"]
            print("%-10s %-10s %5d %5s  %s" % (
                r["commit"], r["date"], r["seed"], r["nproc"],
                " ".join("%16s" % _fmt(values.get(n)) for n in names)))
    return 0


def calibrate(args) -> int:
    """Print what to freeze in workloads.py after a deliberate re-sizing:
    the latency limits (4 x p50, 2 s.f.) and the open loop's rates."""
    for workload in ([args.workload] if args.workload else list(workloads.SPECS)):
        spec = workloads.SPECS[workload]
        result = run_child(workload, args.seed, spec.rounds)
        by_tag = result["measured"]["latency_by_tag"]
        pick = by_tag.get("r1") or {
            kind: result["measured"]["latency"][kind] for kind in ("read", "write")}
        limits = {k: float("%.2g" % (4 * pick[k]["p50_ms"])) for k in ("read", "write")}
        line = "%-16s slo_ms=%s  measured phase %.1f host s" % (
            workload, limits, result["measured"]["host_seconds"])
        if spec.loop == "open":
            sat = run_child(workload, args.seed, spec.rounds, "--mode", "saturate")["saturation"]
            line += "  saturation %.0f ops/s -> rates=%s" % (
                sat, tuple(float("%.2g" % (f * sat)) for f in (0.25, 0.5, 0.8)))
        print(line)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seconds", type=float, help="measured-phase budget; scales the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver form: one JSON line")
    parser.add_argument("--out", help="write the full report here, spans.jsonl beside it")
    parser.add_argument("--config", action="append", default=[], metavar="KEY=VALUE",
                        help="DedupConfig override, for ablations (marks comparable: false)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no bounds applied")
    parser.add_argument("--record", action="store_true", help="append to history.jsonl")
    parser.add_argument("--trend", action="store_true", help="print history.jsonl")
    parser.add_argument("--calibrate", action="store_true", help="print limits/rates to freeze")
    args = parser.parse_args(argv)
    if args.trend:
        return trend()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("the program under test is missing: no src/repro beside %s" % HERE, file=sys.stderr)
        return 2
    if args.calibrate:
        return calibrate(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return driver_line(args)

    names = [args.workload] if args.workload else list(workloads.SPECS)
    reports = []
    for workload in names:
        spans_out = None
        if args.out:
            stem = "spans.jsonl" if len(names) == 1 else "spans.%s.jsonl" % workload
            spans_out = os.path.join(os.path.dirname(os.path.abspath(args.out)), stem)
        reports.append(report_workload(args, workload, spans_out))
    others = {r["workload"]: r["per_layer"] for r in reports}
    for report in reports:
        report["character"] = metricdefs.character_checks(
            report["workload"], report["per_layer"], report["miss_by_tag"], others)
    problems = []
    for report in reports:
        print_report(report)
        problems += ["%s: %s" % (report["workload"], p) for p in problems_of(report, args.smoke)]
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"reports": reports, "problems": problems}, out, indent=1, sort_keys=True)
    if args.record:
        if any(not r["comparable"] for r in reports):
            print("not recorded: a smoke run or a config override is not comparable")
        else:
            record(reports, args.seed)
    print()
    for line in problems:
        print("PROBLEM %s" % line)
    print("%d workload(s), %d problem(s)" % (len(reports), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
