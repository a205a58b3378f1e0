"""Static analysis: AST-based invariant checking (``repro lint``).

The runtime can only catch determinism and fault-model violations
probabilistically (a seeded smoke test has to get lucky); this package
encodes the invariants as lint rules so CI rejects violations at diff
time.  See ``docs/static-analysis.md`` for the rule catalogue, the
paper-grounded rationale behind each rule and the seeded bugs each one
catches.
"""

from .engine import Linter, format_human, format_json
from .rules import default_rules, rules_by_id

__all__ = [
    "Linter",
    "format_human",
    "format_json",
    "default_rules",
    "rules_by_id",
]
