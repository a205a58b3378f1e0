"""Command-line interface: quick demos of the deduplicated store.

Usage::

    python -m repro info            # package inventory and versions
    python -m repro demo            # write/dedup/read roundtrip + savings
    python -m repro status          # demo cluster + operational snapshot
    python -m repro scrub           # demo cluster + integrity scrub
    python -m repro faults          # seeded fault-injection run + verdict
    python -m repro rebalance       # online expand/decommission + verdict
    python -m repro obs trace       # traced workload -> span JSONL + checks
    python -m repro obs report      # per-stage span rollup + coverage
    python -m repro lint            # AST invariant checks on the source tree

Full experiments live in ``benchmarks/`` (run with
``pytest benchmarks/ --benchmark-only``); the CLI is a zero-setup tour.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]

KiB = 1024


def _build_demo_storage(seed: int = 0):
    from .cluster import RadosCluster
    from .core import DedupConfig, DedupedStorage

    cluster = RadosCluster(num_hosts=4, osds_per_host=4, pg_num=64)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=32 * KiB), start_engine=False
    )
    from .workloads import ContentGenerator

    gen = ContentGenerator(seed=seed, dedupe_ratio=0.75)
    for i in range(24):
        storage.write_sync(f"demo-{i}", gen.block(64 * KiB))
    storage.drain()
    return storage


def _cmd_info(_args) -> int:
    import repro

    print("repro — reproduction of 'Design of Global Data Deduplication for")
    print("a Scale-out Distributed Storage System' (ICDCS 2018)")
    print(f"version: {getattr(repro, '__version__', 'dev')}")
    print()
    print("packages: sim, cluster, chunking, fingerprint, compression,")
    print("          core (the paper's contribution), workloads, faults,")
    print("          obs, bench, util, analysis (the repro-lint invariant")
    print("          checker)")
    print("docs:     README.md, DESIGN.md, EXPERIMENTS.md")
    print("tests:    pytest tests/")
    print("figures:  pytest benchmarks/ --benchmark-only")
    return 0


def _cmd_demo(args) -> int:
    storage = _build_demo_storage(seed=args.seed)
    report = storage.space_report()
    print(f"wrote 24 x 64KiB objects (75% duplicate content), drained dedup")
    print(f"logical data:       {report.logical_bytes / 1024:.0f} KiB")
    print(f"unique chunk data:  {report.chunk_data_bytes / 1024:.0f} KiB"
          f" in {report.chunk_objects} chunk objects")
    print(f"ideal dedup ratio:  {100 * report.ideal_dedup_ratio:.1f}%")
    print(f"actual dedup ratio: {100 * report.actual_dedup_ratio:.1f}%"
          f" (chunk maps at 150B/entry, refs at 64B)")
    return 0


def _cmd_status(args) -> int:
    from .obs import status_lines, storage_metrics

    storage = _build_demo_storage(seed=args.seed)
    for line in status_lines(storage_metrics(storage)):
        print(line)
    return 0


def _cmd_scrub(args) -> int:
    from .core import scrub_sync

    storage = _build_demo_storage(seed=args.seed)
    report = scrub_sync(storage.tier)
    print(f"chunks checked:      {report.chunks_checked}")
    print(f"corrupt chunks:      {len(report.corrupt_chunks)}")
    print(f"dangling map entries:{len(report.dangling_map_entries):2d}")
    print(f"stale references:    {len(report.stale_references)}")
    print(f"verdict:             {'CLEAN' if report.clean else 'DAMAGED'}")
    return 0 if report.clean else 1


def _cmd_scenario(args) -> int:
    from .cluster import placement_skew
    from .faults import ELASTIC, STATIC, FaultPlan, run_scenario
    from .faults.scenario import locks_left
    from .obs import fault_lines

    preset = STATIC if args.command == "faults" else ELASTIC
    num_osds = STATIC.num_hosts * STATIC.osds_per_host
    for bad, message in (
        (args.objects < 1, f"--objects must be at least 1, got {args.objects}"),
        (args.horizon <= 0, f"--horizon must be positive, got {args.horizon}"),
        (args.rate < 0, f"--rate must not be negative, got {args.rate}"),
        (args.kill_osd is not None and not 0 <= args.kill_osd < num_osds,
         f"--kill-osd must be an OSD id in 0..{num_osds - 1}, got {args.kill_osd}"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 2
    plan = None
    if args.kill_osd is not None:
        # Targeted mode: kill one OSD mid-workload (mid-flush — the
        # background engine runs throughout) and restart it later.
        plan = FaultPlan.single_osd_kill(
            args.kill_osd, at=args.horizon * 0.3, restart_after=args.horizon * 0.25,
            seed=args.seed,
        )
    elif args.no_faults:
        plan = FaultPlan([], seed=args.seed)
    result = run_scenario(
        preset, seed=args.seed, plan=plan, num_objects=args.objects,
        horizon=args.horizon,
        rate_limit_bps=args.rate * KiB * KiB if args.rate else None,
    )
    print(f"fault plan (seed {args.seed}, {len(result.plan)} events):")
    for line in result.plan.describe() or ["  (empty plan)"]:
        print(f"  {line}")
    print()
    for line in fault_lines(result.metrics):
        print(line)
    print()
    print("topology changes:")
    steps = [f"expand:       {diff.pgs_remapped} PGs remapped (epoch {diff.epoch})"
             for diff in result.expand_diffs]
    if result.decommission_diff is not None:
        steps.append(f"decommission: osd {result.decommissioned_osd},"
                     f" {result.decommission_diff.pgs_remapped} PGs remapped"
                     f" (epoch {result.decommission_diff.epoch})")
    for line in steps or ["(none)"]:
        print(f"  {line}")
    print()
    print("rebalance:")
    for line in result.converge_stats.summary_lines():
        print(f"  {line}")
    print()
    scrub = result.scrub
    print(f"objects written    {result.objects_written}"
          f" ({len(result.corrupted_objects)} lost/corrupted)")
    print(f"dedup scrub        {scrub.chunks_checked} chunks checked,"
          f" {len(scrub.corrupt_chunks)} corrupt,"
          f" {len(scrub.dangling_map_entries)} dangling entries,"
          f" {len(scrub.stale_references)} stale refs,"
          f" {len(scrub.unreferenced_chunks)} unreferenced")
    for report, name in zip(result.replica_reports, ("metadata", "chunk")):
        print(f"{name + ' pool scrub':<18} "
              f"{'CLEAN' if report.clean else 'DAMAGED'}")
    print(f"placement          {len(result.placement_violations)} violation(s)")
    for line in result.placement_violations[:10]:
        print(f"  {line}")
    print("placement skew     PGs per OSD, max/mean/min")
    for pool, skew in placement_skew(result.storage.cluster).items():
        print(f"  {pool:<16} " + "   ".join(
            f"{kind} {s['max']}/{s['mean']:.1f}/{s['min']}"
            for kind, s in skew.items()))
    print(f"trace              {len(result.trace_problems)} problem(s)")
    for line in result.trace_problems[:10]:
        print(f"  {line}")
    if result.decommissioned_osd is not None:
        print(f"decommission       "
              f"{'finalized' if result.finalized else 'NOT finalized'}")
    # Silent when every lock table is empty.
    held = locks_left(result.storage)
    if held:
        print(f"locks held         {', '.join(held)}")
    print(f"verdict:           {'CLEAN' if result.ok else 'DAMAGED'}")
    return 0 if result.ok else 1


def _cmd_obs(args) -> int:
    from .obs import cli as obs_cli

    handler = {
        "trace": obs_cli.cmd_trace,
        "report": obs_cli.cmd_report,
        "top-spans": obs_cli.cmd_top_spans,
    }[args.obs_command]
    return handler(args)


def _cmd_lint(args) -> int:
    from pathlib import Path

    from .analysis import (
        Linter,
        default_rules,
        format_human,
        format_json,
        rules_by_id,
    )

    if args.paths:
        paths = args.paths
    else:
        # Default target: the installed/source package tree itself.
        paths = [str(Path(__file__).resolve().parent)]
    rules = default_rules()
    if args.rules:
        wanted = {r.strip() for r in args.rules.split(",") if r.strip()}
        known = rules_by_id()
        unknown = sorted(wanted - set(known))
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        rules = [known[rid] for rid in sorted(wanted)]
    result = Linter(rules).run_paths(paths)
    if args.format == "json":
        output = format_json(result)
        sys.stdout.write(output)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
    else:
        for line in format_human(result):
            print(line)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(format_json(result))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .faults.scenario import ELASTIC, STATIC

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package inventory")
    sub.add_parser("demo", help="dedup roundtrip + space savings")
    sub.add_parser("status", help="operational snapshot of a demo cluster")
    sub.add_parser("scrub", help="integrity scrub of a demo cluster")
    scenarios = {}
    for name, preset, text in (
        ("faults", STATIC, "faulted workload: inject, heal, recover, verify"),
        ("rebalance", ELASTIC, "online elasticity: expand + decommission"
         " under load, rebalance, verify"),
    ):
        scenario = scenarios[name] = sub.add_parser(name, help=text)
        scenario.add_argument(
            "--objects",
            type=int,
            default=preset.num_objects,
            help=f"objects to write (default {preset.num_objects})",
        )
        scenario.add_argument(
            "--horizon",
            type=float,
            default=preset.horizon,
            help="fault-schedule and scenario length in simulated seconds"
            f" (default {preset.horizon})",
        )
    scenarios["faults"].set_defaults(rate=0.0, no_faults=False)
    scenarios["faults"].add_argument(
        "--kill-osd",
        type=int,
        default=None,
        metavar="ID",
        help="targeted plan: crash this OSD mid-workload (default: "
        "generate a schedule from --seed)",
    )
    scenarios["rebalance"].set_defaults(kill_osd=None)
    scenarios["rebalance"].add_argument(
        "--rate",
        type=float,
        default=64.0,
        metavar="MIB_PER_S",
        help="background rebalance rate limit in MiB/s while the workload"
        " runs (default 64; 0 = unthrottled)",
    )
    scenarios["rebalance"].add_argument(
        "--no-faults",
        action="store_true",
        help="run the elastic preset with an empty fault plan",
    )
    obs = sub.add_parser(
        "obs",
        help="observability: trace a seeded workload, rollups, top spans",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_trace = obs_sub.add_parser(
        "trace",
        help="run a traced seeded workload, emit span JSONL, verify integrity",
    )
    obs_trace.add_argument(
        "--objects", type=int, default=24, help="objects to write (default 24)"
    )
    obs_trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the trace JSONL here (default: stdout)",
    )
    obs_trace.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also write a Prometheus-text metrics snapshot here",
    )
    obs_trace.add_argument(
        "--coverage",
        type=float,
        default=0.95,
        help="required fraction of each root op covered by child spans "
        "(default 0.95)",
    )
    obs_report = obs_sub.add_parser(
        "report", help="per-stage span rollup + root coverage"
    )
    obs_top = obs_sub.add_parser("top-spans", help="slowest individual spans")
    for p in (obs_report, obs_top):
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="analyse this JSONL trace dump instead of running the "
            "seeded workload",
        )
        p.add_argument(
            "--objects",
            type=int,
            default=24,
            help="objects to write when running the workload (default 24)",
        )
    obs_top.add_argument(
        "--limit", "-n", type=int, default=10, help="spans to show (default 10)"
    )
    obs_top.add_argument(
        "--stage",
        default=None,
        metavar="PREFIX",
        help="only consider stages with this prefix (e.g. rados.)",
    )
    lint = sub.add_parser(
        "lint",
        help="AST-based invariant checks (determinism, fault scopes,"
        " layering, lock discipline)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="output format (default human)",
    )
    lint.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON report here (for CI artifacts)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    args = parser.parse_args(argv)
    handler = {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "status": _cmd_status,
        "scrub": _cmd_scrub,
        "faults": _cmd_scenario,
        "rebalance": _cmd_scenario,
        "obs": _cmd_obs,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
