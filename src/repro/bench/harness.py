"""Shared experiment harness for the paper-reproduction benchmarks.

Every bench in ``benchmarks/`` builds its storage configurations
("Original", "Proposed", EC variants...) through these helpers, so all
experiments run on the same testbed shape as the paper (§6.1): four
server hosts with four OSDs each, 10 GbE, three client hosts, 2-way
replication (EC 2+1 where called for), 32 KiB chunks.

Data sizes are scaled down ~1000x (MB instead of GB) so each experiment
finishes in seconds of wall time; every table printed by the benches
carries the scale note and the paper's reference values.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cluster import ErasureCoded, RadosCluster, Replicated
from ..core import DedupConfig, DedupedStorage, InlineDedupStorage, PlainStorage

__all__ = [
    "KiB",
    "MiB",
    "build_cluster",
    "original",
    "proposed",
    "inline",
    "default_config",
    "fmt_bytes",
    "render_table",
    "report",
    "RESULTS",
]

#: Tables registered by benches; the benchmark suite's conftest prints
#: them in the terminal summary (stdout inside tests is captured).
RESULTS: List[List[str]] = []


def report(lines: Sequence[str]) -> None:
    """Register a rendered table for the end-of-run summary and echo it
    to stdout (visible under ``pytest -s`` or on failures)."""
    RESULTS.append(list(lines))
    print()
    for line in lines:
        print(line)

KiB = 1024
MiB = 1024 * KiB

#: The paper's testbed: 4 servers x 4 OSDs.
PAPER_HOSTS = 4
PAPER_OSDS_PER_HOST = 4


def build_cluster(
    num_hosts: int = PAPER_HOSTS,
    osds_per_host: int = PAPER_OSDS_PER_HOST,
    pg_num: int = 64,
) -> RadosCluster:
    """A cluster shaped like the paper's testbed."""
    return RadosCluster(num_hosts=num_hosts, osds_per_host=osds_per_host, pg_num=pg_num)


def default_config(**overrides) -> DedupConfig:
    """The evaluation's dedup configuration (32 KiB chunks etc.)."""
    kwargs = dict(
        chunk_size=32 * KiB,
        dedup_interval=0.005,
        hitset_period=1.0,
        hitset_count=8,
        hit_count_threshold=2,
    )
    kwargs.update(overrides)
    return DedupConfig(**kwargs)


def original(cluster: Optional[RadosCluster] = None, ec: bool = False) -> PlainStorage:
    """The *Original* baseline: the cluster with no dedup."""
    cluster = cluster if cluster is not None else build_cluster()
    redundancy = ErasureCoded(2, 1) if ec else Replicated(2)
    return PlainStorage(cluster, redundancy)


def proposed(
    cluster: Optional[RadosCluster] = None,
    ec: bool = False,
    flush_on_write: bool = False,
    start_engine: bool = False,
    **config_overrides,
) -> DedupedStorage:
    """The *Proposed* system: post-processing dedup tier.

    ``ec=True`` puts both pools on EC 2+1 (the paper's Proposed-EC).
    ``flush_on_write=True`` is Proposed-flush (immediate dedup).
    """
    cluster = cluster if cluster is not None else build_cluster()
    redundancy = ErasureCoded(2, 1) if ec else Replicated(2)
    return DedupedStorage(
        cluster,
        default_config(**config_overrides),
        metadata_redundancy=redundancy,
        chunk_redundancy=redundancy,
        flush_on_write=flush_on_write,
        start_engine=start_engine,
    )


def inline(
    cluster: Optional[RadosCluster] = None, **config_overrides
) -> InlineDedupStorage:
    """The inline-dedup baseline (Figure 5-a)."""
    cluster = cluster if cluster is not None else build_cluster()
    return InlineDedupStorage(cluster, default_config(**config_overrides))


# -- formatting ----------------------------------------------------------------


def fmt_bytes(n: float) -> str:
    """Human-readable byte count."""
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n:.0f}B"
        n /= 1024
    return f"{n:.1f}TiB"


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> List[str]:
    """Render an experiment result table as lines of text."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def line(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    out = [f"== {title} =="]
    out.append(line(cells[0]))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in cells[1:])
    for note in notes:
        out.append(f"   {note}")
    return out
