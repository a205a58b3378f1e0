"""Property test: for ANY seeded FaultPlan, on either scenario preset,
the post-recovery scrub finds zero refcount leaks and zero missing
chunks, every object reads back intact and the whole verdict holds.

Uses Hypothesis when available (CI installs it); skipped otherwise.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.faults import ELASTIC, STATIC, run_scenario  # noqa: E402


@pytest.mark.parametrize("preset", [STATIC, ELASTIC], ids=["static", "elastic"])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_any_seeded_plan_preserves_data_and_refcounts(preset, seed):
    result = run_scenario(preset, seed=seed, num_objects=10, horizon=2.5)
    assert result.zero_data_loss, (
        f"seed {seed} lost {result.corrupted_objects}; "
        f"plan:\n" + "\n".join(result.plan.describe())
    )
    scrub = result.scrub
    assert not scrub.stale_references, f"seed {seed}: refcount leaks"
    assert not scrub.unreferenced_chunks, f"seed {seed}: leaked chunks"
    assert not scrub.dangling_map_entries, f"seed {seed}: missing chunks"
    assert not scrub.corrupt_chunks, f"seed {seed}: corrupt chunks"
    assert result.ok, (
        f"seed {seed}: replica scrubs {[r.clean for r in result.replica_reports]},"
        f" placement {result.placement_violations[:3]},"
        f" trace {result.trace_problems[:3]}, finalized {result.finalized}"
    )
