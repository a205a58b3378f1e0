"""DedupConfig: every field has a caller, and no value disables a
mechanism by accident or hangs the simulation."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import DedupConfig

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples", "scripts")
DEFINITION = ROOT / "src" / "repro" / "core" / "config.py"


def caller_paths():
    """Every file of a bench, example, script or library path."""
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                yield path


def caller_texts():
    for path in caller_paths():
        if path != DEFINITION:
            yield path.read_text(encoding="utf-8", errors="ignore")


def test_every_field_is_set_by_a_caller_outside_the_tests():
    """A knob stays only while a bench, example, script or library path
    sets it: a field only tests set is a constant in disguise.  Passing
    the configured value on (``name=config.name``) does not count."""
    text = "\n".join(caller_texts())
    unset = []
    for f in fields(DedupConfig):
        name = re.escape(f.name)
        if not re.search(r"\b%s=(?![\w.]*\.%s\b)" % (name, name), text):
            unset.append(f.name)
    assert unset == []


def test_dedup_interval_must_be_positive():
    with pytest.raises(ValueError, match="dedup_interval"):
        DedupConfig(dedup_interval=0)
    with pytest.raises(ValueError, match="dedup_interval"):
        DedupConfig(dedup_interval=-0.1)


@pytest.mark.parametrize("field", ["ops_per_dedup_mid", "ops_per_dedup_high"])
def test_dedup_ratio_must_be_at_least_one(field):
    # A ratio of 0 is how the rate controller spells "unthrottled".
    with pytest.raises(ValueError, match=field):
        DedupConfig(**{field: 0})


def test_cache_capacity_must_not_be_negative():
    with pytest.raises(ValueError, match="cache_capacity_bytes"):
        DedupConfig(cache_capacity_bytes=-1)
    assert DedupConfig(cache_capacity_bytes=0).cache_capacity_bytes == 0
