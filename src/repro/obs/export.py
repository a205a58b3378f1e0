"""Exporters: JSONL trace dumps and Prometheus-style text exposition.

Both formats are deterministic: trace records keep tracer creation
order (which is itself deterministic under a seeded simulation), and
the text exposition walks families and series in sorted order.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from .registry import MetricsRegistry

__all__ = [
    "dump_trace_jsonl",
    "load_trace_jsonl",
    "trace_jsonl_lines",
    "prometheus_text",
]


def trace_jsonl_lines(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Each span record as one compact JSON line (keys sorted)."""
    return [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in records
    ]


def dump_trace_jsonl(records: Iterable[Dict[str, Any]], path: str) -> int:
    """Write span records to ``path`` as JSONL; returns the span count."""
    lines = trace_jsonl_lines(records)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def load_trace_jsonl(path: str, required: Sequence[str] = ()) -> List[Dict[str, Any]]:
    """Read span records back from a JSONL trace dump.

    Raises ``ValueError`` naming ``path`` and the line number for a line
    that is not a JSON object, or that lacks one of the ``required``
    fields."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: not a span record")
            for name in required:
                if name not in record:
                    raise ValueError(f"{path}:{lineno}: span record has no {name!r} field")
            records.append(record)
    return records


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_block(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Families sorted by name, series by label values; histograms emit
    cumulative ``_bucket`` samples plus ``_sum``/``_count``.
    """
    out: List[str] = []
    for family in registry.families():
        if family.help_text:
            out.append(f"# HELP {family.name} {family.help_text}")
        out.append(f"# TYPE {family.name} {family.kind}")
        for values, series in family.series_items():
            labels = _label_block(family.labelnames, values)
            for sample_name, sample_value in series.sample_lines(family.name, labels):
                out.append(f"{sample_name} {_fmt_value(sample_value)}")
    return "\n".join(out) + ("\n" if out else "")
