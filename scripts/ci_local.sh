#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml: runs the same jobs with the
# same commands so a green run here predicts a green run in Actions.
# Tools that only CI installs (ruff, mypy, pytest-cov) are skipped with
# a notice when absent.  Usage:
#
#   scripts/ci_local.sh               # lint + tests + coverage + scenario + e2e smoke + paper benches + obs + examples
#   scripts/ci_local.sh --bench-full  # also the e2e benchmark contract (slow)
set -u
cd "$(dirname "$0")/.."

RUN_BENCH_FULL=0
[ "${1:-}" = "--bench-full" ] && RUN_BENCH_FULL=1

FAILURES=0
step() {
    echo
    echo "==> $1"
    shift
    if "$@"; then
        echo "    OK"
    else
        echo "    FAILED: $*"
        FAILURES=$((FAILURES + 1))
    fi
}

# -- workflow sanity: the YAML must at least parse --------------------------
step "ci.yml parses as YAML" python - <<'EOF'
import sys
try:
    import yaml
except ImportError:
    print("    (PyYAML not installed; structural check skipped)")
    sys.exit(0)
with open(".github/workflows/ci.yml") as fh:
    doc = yaml.safe_load(fh)
jobs = doc["jobs"]
expected = {
    "lint", "test",
    "coverage", "scenario-smoke", "e2e-smoke",
    "paper-benches", "obs-smoke", "examples", "bench-full",
}
assert expected <= set(jobs), jobs.keys()
matrix = jobs["test"]["strategy"]["matrix"]["python-version"]
assert matrix == ["3.9", "3.11", "3.12", "3.13"], matrix
seeds = jobs["scenario-smoke"]["strategy"]["matrix"]["scenario-seed"]
assert len(set(seeds)) == 6, seeds
concurrency = doc["concurrency"]
assert concurrency["cancel-in-progress"] is True, concurrency
EOF

# -- lint job ---------------------------------------------------------------
if command -v ruff >/dev/null 2>&1; then
    step "lint: ruff check" ruff check src tests benchmarks
else
    echo
    echo "==> lint: ruff not installed locally; skipping (CI installs it)"
fi
# mypy_gate.py itself skips with a notice when mypy is not installed.
step "lint: mypy gate" python scripts/mypy_gate.py


# -- test job (this interpreter stands in for the version matrix) -----------
step "test: tier-1 suite" env PYTHONPATH=src python -m pytest -x -q
# Simulation bit-identity (~2 s, also inside the suite above): SHA-256 of
# the stdout of `repro faults` / `rebalance` / `demo` / `status` / `scrub`
# and of an (event time, label) trace.  This replaces re-running those
# scenarios against the parent and diffing the output by hand; a failure
# prints the new digests.
step "test: simulation digests" \
    env PYTHONPATH=src python -m pytest -q tests/sim/test_sim_digest.py

# -- coverage job -----------------------------------------------------------
if python -c "import pytest_cov" >/dev/null 2>&1; then
    step "coverage: tier-1 suite with floor" \
        env PYTHONPATH=src python -m pytest -q \
        --cov=repro --cov-report=term --cov-fail-under=70
else
    echo
    echo "==> coverage: pytest-cov not installed locally; skipping (CI installs it)"
fi

# -- scenario-smoke job -----------------------------------------------------
for seed in 11 29 4242 6 16 20; do
    step "scenario-smoke: suite, seed $seed" \
        env PYTHONPATH=src REPRO_FAULT_SEED="$seed" python -m pytest -x -q tests/faults
    step "scenario-smoke: static preset under faults, seed $seed" \
        env PYTHONPATH=src python -m repro --seed "$seed" faults
    step "scenario-smoke: elastic preset under faults, seed $seed" \
        env PYTHONPATH=src python -m repro --seed "$seed" rebalance
done

# -- e2e-smoke job ----------------------------------------------------------
# All four benchmark workloads at smoke size: oracle + scrub + span
# check + traced-equals-untraced (run.py finds src/ itself).
step "e2e-smoke: end-to-end benchmark smoke" \
    python3 benchmarks/e2e/run.py --smoke
# rand-small-cold; hot-reread, whose writes to one object overlap and
# so fill the tier's write line; seq-backup, the one that deletes.
# Fails when a lock table, a map-miss fence, the write line, a pending
# requeue, a promotion, a release in flight (a pass's, an aborted pass's,
# a delete's or the deref queue's GC) or a deferred reference on the
# engine's deref queue is left after the pass.
step "e2e-smoke: memory by site (artifact; fails on a non-empty per-key table)" \
    bash -o pipefail -c 'python3 scripts/rss_by_site.py rand-small-cold --smoke | tee rss-by-site.txt &&
        python3 scripts/rss_by_site.py hot-reread --smoke | tee -a rss-by-site.txt &&
        python3 scripts/rss_by_site.py seq-backup --smoke | tee -a rss-by-site.txt'
# seq-backup (four lanes writing one object; with --passes, whole-chunk
# assembly), rand-small-cold (one drain pass per dirty metadata PG, with
# --passes: each drain's rounds, passes, pass phases and the releases
# behind them) and hot-reread as ci.yml; sfs-mixed-open's
# background passes run beside foreground ops.
step "e2e-smoke: simulated seconds by slice (artifact, not a gate)" \
    sh -c 'python3 scripts/sim_by_slice.py seq-backup --smoke --passes > sim-by-slice.txt &&
        python3 scripts/sim_by_slice.py rand-small-cold --smoke --passes >> sim-by-slice.txt &&
        python3 scripts/sim_by_slice.py hot-reread --smoke >> sim-by-slice.txt &&
        python3 scripts/sim_by_slice.py sfs-mixed-open --smoke >> sim-by-slice.txt'
# hot-reread's calls per op split into generator resumes and plain calls,
# with events per op and repro/sim frames per event in the header.
step "e2e-smoke: host calls by frame kind (artifact, not a gate)" \
    bash -o pipefail -c 'python3 scripts/calls_by_function.py hot-reread --smoke --split | tee calls-by-function.txt'

# -- paper-benches job ------------------------------------------------------
# Every paper figure/table bench at its one size (~3 min 30 s); each asserts
# the shape its figure reports.  The results tables are kept in
# paper-benches.txt, as CI keeps them in an artifact.
step "paper-benches: paper figures and tables" \
    bash -o pipefail -c 'PYTHONPATH=src python -m pytest -q \
        benchmarks --ignore=benchmarks/e2e --benchmark-disable | tee paper-benches.txt'

# -- obs-smoke job ----------------------------------------------------------
step "obs-smoke: traced workload + integrity checks" \
    env PYTHONPATH=src python -m repro obs trace \
    --out trace.jsonl --metrics-out metrics.prom
step "obs-smoke: span rollup report" \
    env PYTHONPATH=src python -m repro obs report --trace trace.jsonl

# -- examples job -----------------------------------------------------------
# Every example runs to completion (rate_control_demo.py ~35 s).
for example in examples/*.py; do
    step "examples: $example" env PYTHONPATH=src python "$example"
done

# -- bench-full job (nightly / dispatch input; opt-in locally) ---------------
if [ "$RUN_BENCH_FULL" = 1 ]; then
    step "bench-full: end-to-end benchmark contract" \
        env PYTHONPATH=src python -m pytest -q benchmarks/e2e
else
    echo
    echo "==> bench-full: skipped (pass --bench-full to run)"
fi

echo
if [ "$FAILURES" -ne 0 ]; then
    echo "ci_local: $FAILURES step(s) FAILED"
    exit 1
fi
echo "ci_local: all steps passed"
