"""The paper's contribution: global dedup for scale-out storage.

Key pieces:

* double hashing / content-addressed chunk pool (:mod:`.tier`),
* self-contained metadata & chunk objects (:mod:`.objects`),
* post-processing dedup engine with rate control and selective
  (hotness-aware) dedup (:mod:`.engine`, :mod:`.rate_control`,
  :mod:`.cache`),
* the public facade (:class:`DedupedStorage`), and
* the baselines the paper compares against (:mod:`.baselines`).
"""

from .baselines import InlineDedupStorage, PlainStorage, analyze_dedup_potential
from .client import DedupedStorage
from .config import DedupConfig
from .scrub import scrub, scrub_sync, verdict
from .tier import DedupTier

__all__ = [
    "DedupedStorage",
    "DedupConfig",
    "DedupTier",
    "scrub",
    "scrub_sync",
    "verdict",
    "analyze_dedup_potential",
    "InlineDedupStorage",
    "PlainStorage",
]
