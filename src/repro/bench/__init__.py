"""Shared experiment harness used by the `benchmarks/` suite."""

from .harness import (
    KiB,
    MiB,
    build_cluster,
    fmt_bytes,
    inline,
    original,
    proposed,
    render_table,
    report,
    RESULTS,
)

__all__ = [
    "KiB",
    "MiB",
    "build_cluster",
    "original",
    "proposed",
    "inline",
    "fmt_bytes",
    "render_table",
    "report",
    "RESULTS",
]
