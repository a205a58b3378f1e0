#!/usr/bin/env python3
"""Where ``sim_busy_s`` goes: simulated seconds by slice kind.

    python3 scripts/sim_by_slice.py WORKLOAD [--seed N] [--seconds S] [--smoke]
                                    [--config KEY=VALUE ...] [--passes]

The e2e benchmark's ``sim_busy_s`` is one number — the simulated seconds
the modelled cluster spent on the measured rounds, idle steps excluded —
and ``run.py`` drops the per-slice ``measured.slices[*].sim_s`` it is
the sum of.  This runs ``benchmarks/e2e/child.py``'s own pass (imported,
not copied: same plan, set-up, warm-up, measured and tail rounds as the
driver form ``run.py --workload W --seed N --seconds S --trace 0``) and
prints, per slice kind of the measured phase (write / drain / read /
retire bursts, the open loop's ``open.r1``-``r3`` and ``settle``):

* simulated seconds and their share of ``sim_busy_s`` — exact at one
  seed, so parent and change compare to the last digit;
* how many slices of the kind ran and their host-seconds median;

then the inputs of ``core.engine.sim_drain_mb_per_s`` (MiB the engine
flushed or deduplicated inside the drain slices over the drain slices'
simulated seconds), which the driver reports from its traced pass only,
and per burst kind and op (read / write / delete) the count, mean and
p99 of the simulated op latency, from the runner's own op logs — a
delete's is the time to its reply, which ``run.py`` does not report.
``--smoke`` is the benchmark's ``--smoke`` size (seconds, not minutes).
``--config KEY=VALUE`` (repeatable) overrides a ``DedupConfig`` field,
as ``run.py --config`` does, to size a slice against an ablation; the
header then marks the run as not comparable with the benchmark's.

``--passes`` adds, per drain slice of the measured phase, the engine's
work inside it: the forced workers ``DedupEngine.drain`` launched
(``PASSES_PER_OSD`` per metadata primary with a dirty PG, one for a drain
of one dirty PG), the most passes open at once on one primary, dedup
passes, members (objects) per pass, and the mean simulated milliseconds
of each phase of a pass, which together make up the pass under its
locks:

* ``loads`` — the members' chunk-map loads;
* ``assembly`` — reading, merging and fingerprinting their dirty chunks;
* ``refs`` — the reference batch (``commit_chunk_batch``, with its
  reply);
* ``map`` — the map commit (``DedupTier.commit_map``), where the pass
  ends;

then, per drain slice, the old-chunk releases its passes started behind
them (``DedupEngine._release``): how many, their mean simulated
milliseconds, and the drain's tail — the simulated milliseconds the
drain spent in ``releases_landed`` once its last pass had ended.

It wraps those calls without touching the simulated clock, so every
other line is the same with or without it.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
MiB = 1024.0 * 1024.0
#: The phases of a pass, in order: each runs from the call that opens it
#: (:meth:`PassClock.install`) to the next one's, the last to the pass's
#: end.
PHASES = ("loads", "assembly", "refs", "map")


class PassClock:
    """Simulated time of every dedup pass, phase by phase, grouped by
    the drain slice it ended in (:data:`PHASES`), and of the releases
    those passes started.

    ``install`` wraps the engine's pass (``_process_locked``), the calls
    that open each phase, the release and the wait for releases on the
    class, keyed by the process that runs the pass: the wrappers take
    the wrapped call's arguments as they come, read ``sim.now`` and
    schedule nothing."""

    def __init__(self):
        self.sim = None
        self._open = {}  # running pass's process -> {phase: start, "members": n}
        self._on = {}  # primary -> its passes open now
        self._drain = None  # the drain slice in progress
        #: id(phase) -> [per drain slice {"workers", "peak", "passes",
        #: "releases", "tail"}]
        self.drains = {}

    def install(self, engine_cls, tier_cls):
        clock = self
        process_locked = engine_cls._process_locked
        worker = engine_cls._worker
        release = engine_cls._release
        releases_landed = engine_cls.releases_landed
        stamps = (
            (engine_cls, "_assemble", "assembly"),
            (engine_cls, "_commit_refs", "refs"),
            (tier_cls, "commit_map", "map"),
        )

        def timed_pass(engine, oids, *args, **kwargs):
            task = engine.sim.current_task
            clock.sim = engine.sim
            marks = clock._open[task] = {"loads": engine.sim.now, "members": 0}
            tier = engine.tier
            # The scheduling's primary: map-time, no simulated cost.
            primary = tier.dirty_primary(tier.metadata_pool.pg_of(oids[0]), oids)
            clock._on[primary] = clock._on.get(primary, 0) + 1
            if clock._drain is not None:
                clock._drain["peak"] = max(clock._drain["peak"], clock._on[primary])
            try:
                return (yield from process_locked(engine, oids, *args, **kwargs))
            finally:
                clock._on[primary] -= 1
                del clock._open[task]
                clock._close(marks)

        def counted_worker(engine, force, *args, **kwargs):
            if force and clock._drain is not None:
                clock._drain["workers"] += 1
            return worker(engine, force, *args, **kwargs)

        def stamping(cls, name, phase):
            original = getattr(cls, name)

            def stamp(owner, *args, **kwargs):
                marks = clock._open.get(owner.sim.current_task)
                if marks is not None:
                    marks.setdefault(phase, owner.sim.now)
                return original(owner, *args, **kwargs)

            setattr(cls, name, stamp)

        def counted_load(tier, *args, **kwargs):
            marks = clock._open.get(tier.sim.current_task)
            if marks is not None:
                marks["members"] += 1
            return load_chunk_map(tier, *args, **kwargs)

        def timed_release(engine, *args, **kwargs):
            drain, start = clock._drain, engine.sim.now
            try:
                return (yield from release(engine, *args, **kwargs))
            finally:
                if drain is not None:
                    drain["releases"].append(engine.sim.now - start)

        def timed_landed(engine, *args, **kwargs):
            drain, start = clock._drain, engine.sim.now
            try:
                return (yield from releases_landed(engine, *args, **kwargs))
            finally:
                if drain is not None:
                    drain["tail"] += engine.sim.now - start

        for cls, name, phase in stamps:
            stamping(cls, name, phase)
        load_chunk_map = tier_cls.load_chunk_map
        tier_cls.load_chunk_map = counted_load
        engine_cls._process_locked = timed_pass
        engine_cls._worker = counted_worker
        engine_cls._release = timed_release
        engine_cls.releases_landed = timed_landed

    def _close(self, marks):
        drain = self._drain
        if drain is None:
            return
        end = self.sim.now
        bounds = [(p, marks[p]) for p in PHASES if p in marks] + [(None, end)]
        spent = dict.fromkeys(PHASES, 0.0)
        for (phase, start), (_next, stop) in zip(bounds, bounds[1:]):
            spent[phase] = stop - start
        drain["passes"].append((marks["members"], spent))

    def begin(self, phase):
        self._drain = {"workers": 0, "peak": 0, "passes": [], "releases": [], "tail": 0.0}
        self.drains.setdefault(id(phase), []).append(self._drain)

    def end(self):
        self._drain = None

    def report(self, phase):
        drains = self.drains.get(id(phase), [])
        print("\npasses per drain slice (mean simulated ms per pass)")
        print("%-6s %7s %8s %6s %8s" % ("drain", "workers", "peak/osd", "passes", "members")
              + "".join(" %9s" % p for p in PHASES))
        rows = [(str(i + 1), d["workers"], d["peak"], d["passes"])
                for i, d in enumerate(drains)]
        rows.append(("all", sum(d["workers"] for d in drains),
                     max((d["peak"] for d in drains), default=0),
                     [p for d in drains for p in d["passes"]]))
        for label, workers, peak, passes in rows:
            n = len(passes)
            members = sum(m for m, _spent in passes) / n if n else 0.0
            means = [1e3 * sum(spent[p] for _m, spent in passes) / n if n else 0.0
                     for p in PHASES]
            print("%-6s %7d %8d %6d %8.2f" % (label, workers, peak, n, members)
                  + "".join(" %9.4f" % v for v in means))
        print("\nreleases behind the passes per drain slice (simulated ms)")
        print("%-6s %8s %9s %9s" % ("drain", "releases", "mean", "tail"))
        rows = [(str(i + 1), d["releases"], d["tail"]) for i, d in enumerate(drains)]
        rows.append(("all", [r for d in drains for r in d["releases"]],
                     sum(d["tail"] for d in drains)))
        for label, releases, tail in rows:
            mean = 1e3 * sum(releases) / len(releases) if releases else 0.0
            print("%-6s %8d %9.4f %9.4f" % (label, len(releases), mean, 1e3 * tail))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured-phase budget, as the driver's --seconds")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's --smoke size")
    parser.add_argument("--config", action="append", default=[], metavar="KEY=VALUE",
                        help="DedupConfig override, as run.py --config (not comparable)")
    parser.add_argument("--passes", action="store_true",
                        help="per drain slice: workers, peak passes per primary, passes,"
                        " members and pass phases")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # run.py starts its children this way; the op stream depends on it.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))

    sys.path.insert(0, E2E)
    import child
    import run
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error("unknown workload %r (known: %s)" % (
            args.workload, ", ".join(sorted(workloads.SPECS))))
    sys.path.insert(0, child.SRC)

    # The untraced pass leaves ``drain_bytes`` at 0: give its runner the
    # probe the traced pass uses (it reads two engine counters around
    # each drain and touches nothing on the simulated clock).
    set_up = child.set_up

    clock = PassClock() if args.passes else None

    class Probe(child.EngineProbe):
        def before_drain(self, phase):
            super().before_drain(phase)
            if clock is not None:
                clock.begin(phase)

        def after_drain(self, phase):
            super().after_drain(phase)
            if clock is not None:
                clock.end()

    if clock is not None:
        from repro.core.engine import DedupEngine
        from repro.core.tier import DedupTier

        clock.install(DedupEngine, DedupTier)

    def probing_set_up(*a, **kw):
        made = set_up(*a, **kw)
        storage, runner = made[0], made[1]
        runner.engine_probe = Probe(storage, [])
        return made

    child.set_up = probing_set_up
    # The measured phase's op logs: run_pass summarises that phase only.
    summarize_phase = child.summarize_phase
    summarized = []

    def keeping_summarize_phase(plan, phase):
        summary = summarize_phase(plan, phase)
        summarized.append((phase, summary))
        return summary

    child.summarize_phase = keeping_summarize_phase
    if args.smoke:
        rounds, tail_rounds = run.SMOKE_ROUNDS, 1
    else:
        rounds = workloads.rounds_for(workloads.SPECS[args.workload], args.seconds)
        tail_rounds = workloads.tail_rounds_for(rounds)
    result = child.run_pass(argparse.Namespace(
        workload=args.workload, seed=args.seed, rounds=rounds,
        tail_rounds=tail_rounds, setup_repeats=1, mode="untraced",
        scale="smoke" if args.smoke else "full", config=args.config, plain_replay=False,
        spans_out=None,
    ))
    measured = result["measured"]
    busy = measured["sim_busy_s"]

    print("%s  seed %d  %s scale  %d measured rounds  %d ops  failures %d" % (
        args.workload, args.seed, "smoke" if args.smoke else "full",
        rounds, measured["ops"], result["failure_count"]))
    if args.config:
        print("config overrides %s  (not comparable)" % " ".join(args.config))
    print("sim_busy_s %.6f" % busy)
    print("\n%-10s %12s %8s %8s %16s" % ("slice", "sim s", "share", "slices", "host s median"))
    for kind, row in sorted(measured["slices"].items(), key=lambda kv: -kv[1]["sim_s"]):
        share = "%7.1f%%" % (100.0 * row["sim_s"] / busy) if kind != "idle" and busy else "(idle)"
        print("%-10s %12.6f %8s %8d %16.6f" % (
            kind, row["sim_s"], share, row["n"], row["median"]))

    drain = measured["slices"].get("drain")
    if drain and drain["sim_s"]:
        drained = measured["drain_bytes"] / MiB
        print("\ncore.engine.sim_drain_mb_per_s inputs: %.2f MiB over %.6f simulated s = %.1f MiB/s" % (
            drained, drain["sim_s"], drained / drain["sim_s"]))
    else:
        print("\ncore.engine.sim_drain_mb_per_s inputs: no drain slice in the measured phase")

    (phase,) = [p for p, summary in summarized if summary is measured]
    latencies = {}
    for log in phase.logs:
        for kind in sorted({op[0] for op in log.ops}):
            latencies.setdefault((log.tag, child._OP_NAMES[kind]), []).extend(log.latencies(kind))
    print("\n%-10s %-8s %8s %12s %12s" % ("burst", "op", "ops", "mean ms", "p99 ms"))
    for (tag, op), values in sorted(latencies.items()):
        row = child.latency_summary(values)
        if row["n"]:
            print("%-10s %-8s %8d %12.4f %12.4f" % (tag, op, row["n"], row["mean_ms"], row["p99_ms"]))
    if clock is not None:
        clock.report(phase)
    return 0


if __name__ == "__main__":
    sys.exit(main())
