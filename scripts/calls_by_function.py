#!/usr/bin/env python3
"""Where ``host_calls_per_op`` comes from: calls/op by file and by function.

    python3 scripts/calls_by_function.py WORKLOAD [--seed N] [--seconds S] [--smoke] [--top K]
                                         [--by calls|time] [--callers FILE[,FILE...]] [--split]

The e2e benchmark's ``host_calls_per_op`` is one number — calls of
functions defined under ``src/repro/`` per client op, counted by
``cProfile`` over the tail rounds of an untraced pass — and its traced
pass only rolls calls up by layer.  This prints the same count broken
down, so a change that claims to move it can be sized beforehand and
explained afterwards.

It runs ``benchmarks/e2e/child.py``'s own pass (imported, not copied:
same plan, same set-up, warm-up, measured and tail rounds as the driver
form ``run.py --workload W --seed N --seconds S --trace 0``) and only
keeps the profile the child would have rolled up and thrown away.  The
total printed equals the driver's ``host_calls_per_op`` at the same
arguments.  Takes about as long as one driver run (~20 s).

``--by time`` ranks the same profile by self time (us/op, beside
calls/op) instead: a loop over the whole dataset inside one frame is
one call, so a call count cannot see it.  Self time is ``cProfile``'s —
inflated by the profiler in proportion to calls made, and without the
time spent inside C callees (``sum``, ``sorted``, ``hashlib``), which
the header line totals as "elsewhere" — so use it to find candidates
and the benchmark's ``host_ops_per_s`` to measure them.

``--callers core/objects.py,core/io_path.py`` adds, for the functions of
those files (paths as the per-file table prints them), calls/op per
(callee <- caller) edge of the same profile: a cheap accessor called 30
times an op is its caller's cost, and the per-function table cannot say
whose.

``--split`` splits every calls/op figure — the header's and each
file's, and adds a column to the per-function table — into generator
resumes and plain calls, by the ``CO_GENERATOR`` flag of the function's
code object.  A generator frame is paid once per resume, so a process
``yield from`` another costs one frame per level on every event that
wakes it: the resumes column is where a delegating wrapper shows.

The header also prints events/op and the frames of ``src/repro/sim/``
per event, from the same profile (each call of ``Simulator.step`` is one
event): the kernel's per-event cost on a real workload, beside
``tests/sim/test_frame_budget.py``'s synthetic one.

``--smoke`` is the benchmark's ``--smoke`` size (seconds, not minutes);
its total is that size's count, not the driver's.
"""

from __future__ import annotations

import argparse
import os
import pstats
import sys
from collections import Counter
from inspect import CO_GENERATOR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured-phase budget, as the driver's --seconds")
    parser.add_argument("--top", type=int, default=40, help="functions to list")
    parser.add_argument("--by", choices=("calls", "time"), default="calls",
                        help="rank by calls/op (default) or by self time in us/op")
    parser.add_argument("--callers", default="", metavar="FILE[,FILE...]",
                        help="also print calls/op per (callee <- caller) edge into these "
                             "files, named as in the per-file table (e.g. core/objects.py)")
    parser.add_argument("--split", action="store_true",
                        help="split calls/op into generator resumes and plain calls")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's --smoke size")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # run.py starts its children this way; counts depend on it.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))

    sys.path.insert(0, E2E)
    import child
    import run
    import workloads
    from tracing import COUNTED_CALLS, _repro_relpath  # the benchmark's own tests

    if args.workload not in workloads.SPECS:
        parser.error("unknown workload %r (known: %s)" % (
            args.workload, ", ".join(sorted(workloads.SPECS))))
    sys.path.insert(0, child.SRC)

    # The tail's profile is the last one the child rolls up.
    profiles = []
    rollup = child.profile_rollup

    def keep_profile(profile, bench_dir):
        profiles.append(profile)
        return rollup(profile, bench_dir)

    child.profile_rollup = keep_profile
    if args.smoke:
        rounds, tail_rounds = run.SMOKE_ROUNDS, 1
    else:
        rounds = workloads.rounds_for(workloads.SPECS[args.workload], args.seconds)
        tail_rounds = workloads.tail_rounds_for(rounds)
    result = child.run_pass(argparse.Namespace(
        workload=args.workload, seed=args.seed, rounds=rounds,
        tail_rounds=tail_rounds, setup_repeats=1, mode="untraced",
        scale="smoke" if args.smoke else "full", config=[], plain_replay=False, spans_out=None,
    ))
    ops = result["tail"]["ops"]

    # calls and self seconds, by file and by (file, function)
    file_calls: Counter = Counter()
    file_self: Counter = Counter()
    function_calls: Counter = Counter()
    function_self: Counter = Counter()
    edge_calls: Counter = Counter()  # (callee's file, callee, caller)
    file_resumes: Counter = Counter()  # calls of generator functions
    function_resumes: Counter = Counter()
    callee_files = set(filter(None, args.callers.split(",")))
    elsewhere_self = 0.0
    # pstats keys a function by (file, first line, name); the profiler's
    # raw entries carry its code object, and with it the flag.
    generators = {
        (code.co_filename, code.co_firstlineno, code.co_name)
        for code in (entry.code for entry in profiles[-1].getstats())
        if not isinstance(code, str) and code.co_flags & CO_GENERATOR
    }
    for key, (_cc, calls, self_s, _cum_s, callers) in pstats.Stats(profiles[-1]).stats.items():
        filename, _line, name = key
        rel = _repro_relpath(filename)
        if rel is None:
            elsewhere_self += self_s
            continue
        file_calls[rel] += calls
        file_self[rel] += self_s
        function_calls[(rel, name)] += calls
        function_self[(rel, name)] += self_s
        if key in generators:
            file_resumes[rel] += calls
            function_resumes[(rel, name)] += calls
        if rel in callee_files:
            for (caller_file, _caller_line, caller), (edge, *_times) in callers.items():
                caller_rel = _repro_relpath(caller_file) or os.path.basename(caller_file)
                edge_calls[(rel, name, "%s %s" % (caller_rel, caller))] += edge
            orphans = calls - sum(edge for edge, *_times in callers.values())
            if orphans:  # called from the frame that switched the profiler on
                edge_calls[(rel, name, "(no caller recorded)")] += orphans
    total = sum(file_calls.values())
    if total != result["tail"]["repro_calls"]:
        raise SystemExit("breakdown sums to %d calls, the benchmark counted %d" % (
            total, result["tail"]["repro_calls"]))
    unknown = callee_files - set(file_calls)
    if unknown:
        raise SystemExit("--callers: no calls into %s (known files: %s)" % (
            ", ".join(sorted(unknown)), ", ".join(sorted(file_calls))))

    def us_per_op(seconds):
        return 1e6 * seconds / ops

    print("%s  seed %d  %d measured + %d tail rounds  %d tail ops  failures %d" % (
        args.workload, args.seed, rounds, tail_rounds, ops, result["failure_count"]))
    print("host_calls_per_op %.2f   profiled self time %.1f us/op in src/repro, %.1f elsewhere" % (
        total / ops, us_per_op(sum(file_self.values())), us_per_op(elsewhere_self)))
    # The kernel's per-event cost on this workload: a call of ``step`` is
    # an event (as the benchmark's ``sim.events_per_op`` counts them).
    events = function_calls[COUNTED_CALLS["events"]]
    sim_frames = sum(calls for rel, calls in file_calls.items() if rel.startswith("sim/"))
    print("  events %.2f/op   repro/sim frames %.2f/event" % (
        events / ops, sim_frames / events if events else float("nan")))
    if args.split:
        resumes = sum(file_resumes.values())
        print("  generator resumes %.2f/op   plain calls %.2f/op" % (
            resumes / ops, (total - resumes) / ops))
    print()

    def split(calls, resumes):
        # "calls/op" plus, under --split, "resumes/op plain/op" beside it
        if not args.split:
            return "%10.2f" % (calls / ops)
        return "%10.2f %10.2f %10.2f" % (calls / ops, resumes / ops, (calls - resumes) / ops)

    split_head = "%10s %10s %10s" % ("calls/op", "resumes/op", "plain/op") if args.split \
        else "%10s" % "calls/op"
    by_file, by_function = (
        (file_self, function_self) if args.by == "time" else (file_calls, function_calls))
    print("%-34s %s %12s" % ("file", split_head, "self us/op"))
    for rel, _rank in by_file.most_common():
        print("%-34s %s %12.2f" % (
            rel, split(file_calls[rel], file_resumes[rel]), us_per_op(file_self[rel])))
    print("\n%-34s %-28s %s %12s" % ("file", "function", split_head, "self us/op"))
    ranked = [key for key, _rank in by_function.most_common()]
    for key in ranked[: args.top]:
        print("%-34s %-28s %s %12.2f" % (
            key + (split(function_calls[key], function_resumes[key]),
                   us_per_op(function_self[key]))))
    rest = ranked[args.top:]
    if rest:
        print("%-34s %-28s %s %12.2f" % (
            "(%d more)" % len(rest), "",
            split(sum(function_calls[key] for key in rest),
                  sum(function_resumes[key] for key in rest)),
            us_per_op(sum(function_self[key] for key in rest))))
    if callee_files:
        print("\n%10s  %-24s %-24s <- %s" % ("calls/op", "file", "function", "caller"))
        edges = edge_calls.most_common()
        for (rel, name, caller), calls in edges[: args.top]:
            print("%10.2f  %-24s %-24s <- %s" % (calls / ops, rel, name, caller))
        if edges[args.top:]:
            print("%10.2f  (%d more)" % (
                sum(calls for _key, calls in edges[args.top:]) / ops, len(edges[args.top:])))
    return 1 if result["failure_count"] else 0


if __name__ == "__main__":
    sys.exit(main())
