#!/usr/bin/env python3
"""The two-tier mypy gate (CI job ``lint``).

Tier 1 — strict: the leaf packages declared in ``pyproject.toml``
(``repro.fingerprint``, ``repro.util``, ``repro.faults``,
``repro.obs``, ``repro.sim``)
must produce **zero** errors under the strict per-module overrides
there.  Any error fails the gate.  The declared package list is itself
ratcheted: ``STRICT_FLOOR`` below names every package ever promoted to
the strict tier, and the gate fails if ``pyproject.toml`` stops listing
one of them — demotion requires editing both files, on purpose.

Tier 2 — baseline-checked: ``repro.core`` and ``repro.cluster`` are
checked non-strict (config: ``scripts/mypy-core.ini``) and compared to
the committed baseline ``scripts/mypy_core_baseline.json``, which maps
``module`` -> error count.  A module exceeding its baselined count (or
a new module with errors) fails the gate; shrinking counts prints a
reminder to re-record.  With no baseline file the tier is report-only.

Run ``python scripts/mypy_gate.py --write-baseline`` after deliberate
changes to re-record tier 2.  When mypy is not installed (local dev
containers ship without it) the gate skips with a notice and exit 0 —
CI installs mypy, so the gate is enforced where it matters.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "scripts" / "mypy_core_baseline.json"
CORE_CONFIG = REPO / "scripts" / "mypy-core.ini"
CORE_PACKAGES = ["repro.core", "repro.cluster"]

#: Every package promoted to the strict tier that still exists.  An
#: entry leaves only with its package: the gate fails if pyproject.toml
#: drops one of these from [tool.mypy] packages, so strictness can only
#: be widened by accident, never narrowed.
STRICT_FLOOR = frozenset(
    {
        "repro.fingerprint",
        "repro.util",
        "repro.faults",
        "repro.obs",
        "repro.sim",
    }
)

_ERROR_LINE = re.compile(
    r"^(?P<path>[^:]+\.py):(?P<line>\d+):(?:\d+:)?\s*error:"
)


def _have_mypy() -> bool:
    try:
        import mypy  # noqa: F401
    except ImportError:
        return False
    return True


def _run_mypy(args: List[str]) -> Tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *args],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc.returncode, proc.stdout


def _module_for(path: str) -> str:
    """Dotted module the error path belongs to, rooted at ``repro``."""
    parts = Path(path).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _errors_by_module(output: str) -> Dict[str, int]:
    counts: Counter = Counter()
    for line in output.splitlines():
        match = _ERROR_LINE.match(line.strip())
        if match:
            counts[_module_for(match.group("path"))] += 1
    return dict(counts)


def declared_strict_packages() -> List[str]:
    """[tool.mypy] packages as declared in pyproject.toml."""
    try:
        import tomllib
    except ImportError:  # Python < 3.11: fall back to a line scan.
        packages: List[str] = []
        collecting = False
        for raw in (REPO / "pyproject.toml").read_text("utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if collecting:
                if line.startswith("]"):
                    break
                packages += re.findall(r'"([^"]+)"', line)
            elif line.replace(" ", "").startswith("packages=["):
                collecting = True
                packages += re.findall(r'"([^"]+)"', line)
        return packages
    with open(REPO / "pyproject.toml", "rb") as fh:
        data = tomllib.load(fh)
    return list(data.get("tool", {}).get("mypy", {}).get("packages", []))


def _floor_check() -> int:
    """Fail if a strict-tier package was dropped from pyproject.toml."""
    declared = set(declared_strict_packages())
    demoted = sorted(STRICT_FLOOR - declared)
    if demoted:
        print(
            "FAIL: strict-tier package(s) missing from [tool.mypy]"
            f" packages in pyproject.toml: {', '.join(demoted)}"
            " (the strict tier only ratchets up; see STRICT_FLOOR)",
            file=sys.stderr,
        )
        return 1
    return 0


def _strict_tier() -> int:
    print("== mypy gate: tier 1 (strict leaf packages) ==")
    code, output = _run_mypy(["--config-file", "pyproject.toml"])
    if code == 0:
        print("strict packages: clean")
        return 0
    sys.stdout.write(output)
    print("FAIL: strict packages must type-check cleanly", file=sys.stderr)
    return 1


def _core_tier(write_baseline: bool) -> int:
    print("== mypy gate: tier 2 (core/cluster vs baseline) ==")
    args = ["--config-file", str(CORE_CONFIG)]
    for pkg in CORE_PACKAGES:
        args += ["-p", pkg]
    _code, output = _run_mypy(args)
    current = _errors_by_module(output)
    total = sum(current.values())
    print(f"core/cluster: {total} error(s) in {len(current)} module(s)")
    if write_baseline:
        BASELINE.write_text(
            json.dumps(dict(sorted(current.items())), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"baseline written to {BASELINE}")
        return 0
    if not BASELINE.exists():
        print(
            "no baseline recorded (scripts/mypy_core_baseline.json);"
            " report-only.  Record one with --write-baseline."
        )
        return 0
    baseline: Dict[str, int] = json.loads(BASELINE.read_text(encoding="utf-8"))
    failures = []
    for module, count in sorted(current.items()):
        allowed = baseline.get(module, 0)
        if count > allowed:
            failures.append(f"{module}: {count} error(s), baseline allows {allowed}")
    if failures:
        sys.stdout.write(output)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(
            "fix the new errors, or (for deliberate exceptions) re-record"
            " with --write-baseline",
            file=sys.stderr,
        )
        return 1
    improved = {
        module: allowed
        for module, allowed in baseline.items()
        if current.get(module, 0) < allowed
    }
    if improved:
        print(
            "note: baseline is stale (errors fixed); ratchet down with"
            f" --write-baseline: {', '.join(sorted(improved))}"
        )
    print("core/cluster: within baseline")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="re-record scripts/mypy_core_baseline.json and exit 0",
    )
    args = parser.parse_args(argv)
    # The floor check is pure config introspection — enforce it even
    # where mypy itself is absent.
    floor = _floor_check()
    if not _have_mypy():
        print("mypy gate: mypy not installed; skipping (CI enforces it)")
        return floor
    strict = _strict_tier()
    core = _core_tier(write_baseline=args.write_baseline)
    return floor or strict or core


if __name__ == "__main__":
    sys.exit(main())
