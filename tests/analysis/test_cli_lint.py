"""CLI behaviour of ``repro lint`` plus the live-tree meta-test."""

import json

from repro.cli import main


def seeded_violation_tree(tmp_path):
    """A tiny ``repro`` tree with one deliberate DET001 violation."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "clocky.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n",
        encoding="utf-8",
    )
    return tmp_path


def test_lint_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    tree = seeded_violation_tree(tmp_path)
    assert main(["lint", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "clocky.py" in out


def test_lint_json_output_and_artifact(tmp_path, capsys):
    tree = seeded_violation_tree(tmp_path)
    artifact = tmp_path / "findings.json"
    code = main(
        ["lint", "--format", "json", "--out", str(artifact), str(tree)]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["errors"] == 1
    assert doc["findings"][0]["rule"] == "DET001"
    assert json.loads(artifact.read_text(encoding="utf-8")) == doc


def test_lint_rules_filter(tmp_path):
    tree = seeded_violation_tree(tmp_path)
    # Only FLT001 selected: the DET001 violation is out of scope.
    assert main(["lint", "--rules", "FLT001", str(tree)]) == 0
    assert main(["lint", "--rules", "DET001", str(tree)]) == 1


def test_lint_unknown_rule_id_is_a_usage_error(tmp_path):
    assert main(["lint", "--rules", "NOPE999", str(tmp_path)]) == 2


def test_live_tree_lints_clean(capsys):
    """Meta-test: the shipped source tree passes its own linter.

    Guards the acceptance invariant that every true-positive violation
    is fixed: the linter has no baseline and no suppressions, and every
    ``flt-scope`` marker carries a justification.
    """
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out
