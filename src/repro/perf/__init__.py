"""Always-on hot-path counters.

:mod:`.stages` holds the :class:`StageCounters` the tier and engine bump
inline (chunking / fingerprint / ref / map / read path / flush).
Wall-clock measurement lives in ``benchmarks/e2e`` — the one perf
reference (see ``benchmarks/e2e/README.md``).
"""

from .stages import StageCounters

__all__ = ["StageCounters"]
