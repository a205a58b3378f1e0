"""Engine-level behaviour: ``repro-lint`` comments, JSON output."""

import json
from pathlib import Path

from repro.analysis import Linter, default_rules, format_json

FIXTURES = Path(__file__).parent / "fixtures"


def lint(path, module):
    return Linter(default_rules()).run_paths(
        [str(path)], module_overrides={str(path): module}
    )


def test_unrecognised_directive_is_a_meta_finding(tmp_path):
    bad = tmp_path / "repro" / "core" / "bad_directive.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("# repro-lint: frobnicate=yes\nx = 1\n", encoding="utf-8")
    result = Linter(default_rules()).run_paths([str(bad)])
    assert [f.rule for f in result.findings] == ["LINT000"]
    assert "unrecognised" in result.findings[0].message


def test_a_disable_comment_suppresses_nothing(tmp_path):
    # The linter has no suppressions: a disable comment is itself a
    # LINT000 finding, and the violation it sits on is still reported.
    src = tmp_path / "repro" / "core" / "clocky.py"
    src.parent.mkdir(parents=True)
    src.write_text(
        "import time\n\n\ndef now():\n"
        "    return time.time()  # repro-lint: disable=DET001 -- why\n",
        encoding="utf-8",
    )
    result = Linter(default_rules()).run_paths([str(src)])
    assert {(f.rule, f.line) for f in result.findings} == {
        ("DET001", 5), ("LINT000", 5)
    }


def test_json_output_shape():
    result = lint(FIXTURES / "det001.py", "repro.core.fixture_det001")
    doc = json.loads(format_json(result))
    assert doc["version"] == 2
    assert doc["summary"]["errors"] == 3
    assert doc["summary"]["ok"] is False
    assert doc["summary"]["files_checked"] == 1
    finding = doc["findings"][0]
    assert finding["rule"] == "DET001"
    assert finding["module"] == "repro.core.fixture_det001"
    assert finding["line"] == 12


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    bad = tmp_path / "repro" / "core" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n", encoding="utf-8")
    result = Linter(default_rules()).run_paths([str(bad)])
    assert not result.ok
    assert result.parse_errors and result.parse_errors[0].rule == "LINT000"


def test_module_name_derivation(tmp_path):
    from repro.analysis.engine import module_name_for

    assert (
        module_name_for(Path("src/repro/core/tier.py")) == "repro.core.tier"
    )
    assert module_name_for(Path("src/repro/util/__init__.py")) == "repro.util"
    assert module_name_for(Path("elsewhere/thing.py")) == "thing"
