"""Static lock-discipline checks.

The paper's two-phase commit path depends on a lock discipline:
per-object write locks around rados ``submit``/``submit_batch``,
recovery and rebalance, and per-object/per-chunk tier locks around the
dedup metadata, all taken through :class:`repro.sim.LockTable`.  An
interprocedural pass (:mod:`.callgraph`, :mod:`.locks`) over
``src/repro`` extracts lock-acquisition sites, derives a lock-order
graph and ships three repro-lint rules (:mod:`.rules`): LCK001
(potential acquire-acquire cycles), LCK002 (faultable I/O or unbounded
waits while holding a lock) and LCK003 (lock not released on every exit
path).

See ``docs/static-analysis.md`` for the rule catalogue.
"""
