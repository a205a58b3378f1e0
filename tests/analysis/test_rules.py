"""Per-rule fixture tests: every rule fires on its seeded violations —
at the asserted rule IDs *and* line numbers — and stays quiet on the
clean counterparts in the same file."""

from pathlib import Path

from repro.analysis import Linter, default_rules

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixtures(spec, rules=None):
    """Lint fixture files "as if" at package locations.

    ``spec`` maps fixture filename -> dotted module override.
    """
    paths = [str(FIXTURES / name) for name in spec]
    overrides = {
        str(FIXTURES / name): module for name, module in spec.items()
    }
    linter = Linter(rules if rules is not None else default_rules())
    return linter.run_paths(paths, module_overrides=overrides)


def found(result, rule):
    """(line, ...) tuple of ``rule``'s findings, sorted."""
    return tuple(sorted(f.line for f in result.findings if f.rule == rule))


def test_det001_flags_wall_clock_calls():
    result = lint_fixtures({"det001.py": "repro.core.fixture_det001"})
    assert found(result, "DET001") == (12, 13, 14)
    assert not result.ok


def test_det001_out_of_scope_module_is_clean():
    # The same file placed under repro.fingerprint (home of the one
    # sanctioned wall-clock helper) must not trigger DET001.
    result = lint_fixtures({"det001.py": "repro.fingerprint.fixture_det001"})
    assert found(result, "DET001") == ()


def test_det002_flags_global_and_unseeded_randomness():
    result = lint_fixtures({"det002.py": "repro.workloads.fixture_det002"})
    assert found(result, "DET002") == (13, 14, 15, 16, 17)


def test_det003_flags_set_iteration_but_not_safe_consumers():
    result = lint_fixtures({"det003.py": "repro.core.fixture_det003"})
    assert found(result, "DET003") == (10, 16, 20, 26, 45, 57, 62)


def test_flt001_flags_only_unguarded_io():
    result = lint_fixtures({"flt001.py": "repro.core.fixture_flt001"})
    assert found(result, "FLT001") == (10, 14)


def test_api001_flags_cluster_submodule_imports():
    result = lint_fixtures({"api001.py": "repro.workloads.fixture_api001"})
    assert found(result, "API001") == (6, 7)


def test_api001_allows_cluster_package_importing_itself():
    result = lint_fixtures({"api001.py": "repro.cluster.fixture_api001"})
    assert found(result, "API001") == ()


def test_rule_filtering_runs_only_selected_rules():
    from repro.analysis import rules_by_id

    only_det001 = [rules_by_id()["DET001"]]
    result = lint_fixtures(
        {"det002.py": "repro.workloads.fixture_det002"}, rules=only_det001
    )
    assert result.findings == []


def test_every_rule_has_an_id_and_a_title():
    ids = set()
    for rule in default_rules():
        assert rule.id and rule.id not in ids
        ids.add(rule.id)
        assert rule.title
    assert len(ids) == 8
