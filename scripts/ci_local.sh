#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml: runs the same jobs with the
# same commands so a green run here predicts a green run in Actions.
# Tools that only CI installs (ruff, mypy, pytest-cov) are skipped with
# a notice when absent.  Usage:
#
#   scripts/ci_local.sh               # lint + invariants + tests + coverage + faults + elasticity + e2e smoke + paper benches + obs
#   scripts/ci_local.sh --bench-full  # also the full (slow) benchmark suite
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
    "lint", "lint-invariants", "test", "test-no-numpy",
    "coverage", "faults-smoke", "elasticity-smoke", "e2e-smoke",
    "paper-benches", "obs-smoke", "bench-full",
}
assert expected <= set(jobs), jobs.keys()
matrix = jobs["test"]["strategy"]["matrix"]["python-version"]
assert matrix == ["3.9", "3.11", "3.12", "3.13"], matrix
seeds = jobs["faults-smoke"]["strategy"]["matrix"]["fault-seed"]
assert len(set(seeds)) == 3, seeds
eseeds = jobs["elasticity-smoke"]["strategy"]["matrix"]["elasticity-seed"]
assert len(set(eseeds)) == 3, eseeds
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

# -- lint-invariants job ----------------------------------------------------
step "lint-invariants: repro lint" \
    env PYTHONPATH=src python -m repro lint --format json --out lint-findings.json
# mypy_gate.py itself skips with a notice when mypy is not installed.
step "lint-invariants: mypy gate" python scripts/mypy_gate.py

# -- test job (this interpreter stands in for the version matrix) -----------
step "test: tier-1 suite" env PYTHONPATH=src python -m pytest -x -q
# Simulation bit-identity (~2 s, also inside the suite above): SHA-256 of
# the stdout of `repro faults` / `rebalance` / `demo` / `status` / `scrub`
# and of an (event time, label) trace.  This replaces re-running those
# scenarios against the parent and diffing the output by hand; a failure
# prints the new digests.
step "test: simulation digests" \
    env PYTHONPATH=src python -m pytest -q tests/sim/test_sim_digest.py

# -- test-no-numpy job -------------------------------------------------------
# CI uninstalls NumPy outright; locally REPRO_NO_NUMPY=1 forces the same
# pure-Python fallback paths (chunking reference scanners, GF(256) via
# bytes.translate) without touching the environment.
step "test-no-numpy: tier-1 suite, pure-Python fallback" \
    env PYTHONPATH=src REPRO_NO_NUMPY=1 python -m pytest -x -q

# -- coverage job -----------------------------------------------------------
if python -c "import pytest_cov" >/dev/null 2>&1; then
    step "coverage: tier-1 suite with floor" \
        env PYTHONPATH=src python -m pytest -q \
        --cov=repro --cov-report=term --cov-fail-under=70
else
    echo
    echo "==> coverage: pytest-cov not installed locally; skipping (CI installs it)"
fi

# -- faults-smoke job -------------------------------------------------------
for seed in 11 29 4242; do
    step "faults-smoke: suite, seed $seed" \
        env PYTHONPATH=src REPRO_FAULT_SEED="$seed" python -m pytest -x -q tests/faults
    step "faults-smoke: CLI scenario, seed $seed" \
        env PYTHONPATH=src python -m repro --seed "$seed" faults
done

# -- elasticity-smoke job ---------------------------------------------------
for seed in 11 29 4242; do
    step "elasticity-smoke: online expand + decommission, seed $seed" \
        env PYTHONPATH=src python -m repro --seed "$seed" rebalance
done

# -- e2e-smoke job ----------------------------------------------------------
# All four benchmark workloads at smoke size: oracle + scrub + span
# check + traced-equals-untraced (run.py finds src/ itself).
step "e2e-smoke: end-to-end benchmark smoke" \
    python3 benchmarks/e2e/run.py --smoke
step "e2e-smoke: memory by site (artifact, not a gate)" \
    sh -c 'python3 scripts/rss_by_site.py rand-small-cold --smoke > rss-by-site.txt'
step "e2e-smoke: simulated seconds by slice (artifact, not a gate)" \
    sh -c 'python3 scripts/sim_by_slice.py seq-backup --smoke > sim-by-slice.txt &&
        python3 scripts/sim_by_slice.py rand-small-cold --smoke >> sim-by-slice.txt'

# -- paper-benches job ------------------------------------------------------
# Every paper figure/table bench at fast size (~1 min 40 s); each asserts
# the shape its figure reports.  The results tables are kept in
# paper-benches.txt, as CI keeps them in an artifact.
step "paper-benches: paper figures and tables, fast mode" \
    bash -o pipefail -c 'PYTHONPATH=src REPRO_BENCH_FAST=1 python -m pytest -q \
        benchmarks --ignore=benchmarks/e2e --benchmark-disable | tee paper-benches.txt'

# -- obs-smoke job ----------------------------------------------------------
step "obs-smoke: traced workload + integrity checks" \
    env PYTHONPATH=src python -m repro obs trace \
    --out trace.jsonl --metrics-out metrics.prom
step "obs-smoke: span rollup report" \
    env PYTHONPATH=src python -m repro obs report --trace trace.jsonl

# -- bench-full job (nightly / dispatch input; opt-in locally) ---------------
if [ "$RUN_BENCH_FULL" = 1 ]; then
    step "bench-full: full benchmark suite" \
        env PYTHONPATH=src python -m pytest -q benchmarks \
        --benchmark-json=bench-full.json
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
