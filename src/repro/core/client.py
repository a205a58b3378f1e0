"""The public facade: a deduplicated object store.

:class:`DedupedStorage` assembles the whole design — metadata pool +
chunk pool, write/read paths, the background dedup engine, rate control
and the cache manager — behind an object read/write API equivalent to
the underlying cluster's.  Client code addresses objects by their
ordinary IDs; deduplication is invisible (paper key idea: "no
modification is required on client side").
"""

from __future__ import annotations

from typing import Optional

from ..cluster import RadosCluster
from .config import DedupConfig
from .engine import DedupEngine
from .io_path import delete_path, read_path, write_path
from .tier import DedupTier, SpaceReport

__all__ = ["DedupedStorage"]


class DedupedStorage:
    """A deduplicating object store on top of a :class:`RadosCluster`.

    Parameters
    ----------
    cluster:
        The storage substrate; a default 4-host x 4-OSD cluster (the
        paper's testbed shape) is built when omitted.
    config:
        Dedup tuning; see :class:`~repro.core.DedupConfig`.
    metadata_redundancy / chunk_redundancy:
        Redundancy schemes for the two pools (each may independently be
        ``Replicated(n)`` or ``ErasureCoded(k, m)``, paper §4.2).
    flush_on_write:
        When True, every write is immediately followed by a forced dedup
        pass of the object, and returns at its map commit — the paper's
        *Proposed-flush* configuration (Figure 10), useful to measure
        what inline-style processing costs.
    start_engine:
        Start the background engine right away.  Tests that want manual
        control pass False and drive ``engine.process_object`` /
        ``engine.drain`` themselves.
    """

    def __init__(
        self,
        cluster: Optional[RadosCluster] = None,
        config: Optional[DedupConfig] = None,
        metadata_redundancy=None,
        chunk_redundancy=None,
        flush_on_write: bool = False,
        start_engine: bool = True,
    ):
        self.cluster = cluster if cluster is not None else RadosCluster()
        #: The simulation clock everything runs on.
        self.sim = self.cluster.sim
        self.tier = DedupTier(
            self.cluster,
            config,
            metadata_redundancy=metadata_redundancy,
            chunk_redundancy=chunk_redundancy,
        )
        self.config = self.tier.config
        self.engine = DedupEngine(self.tier)
        self.flush_on_write = flush_on_write
        #: The attached :class:`~repro.faults.FaultInjector`, if any.
        self.faults = None
        # Reads of hot, evicted objects trigger background promotion.
        self.tier.on_hot_read = lambda oid: self.sim.process(
            self.engine.promote_object(oid)
        )
        if start_engine and not flush_on_write:
            self.engine.start()

    def inject_faults(self, plan, auto_recover: bool = True):
        """Attach a :class:`~repro.faults.FaultInjector` for ``plan``.

        The plan's events are scheduled on the simulation clock
        immediately; they fire as the clock advances through them.
        Returns the injector (for its counters and ``heal_all``).
        """
        from ..faults import FaultInjector

        injector = FaultInjector(self.cluster, plan, auto_recover=auto_recover)
        injector.attach()
        self.faults = injector
        return injector

    # -- online elasticity -----------------------------------------------------

    def expand(self, name: str, num_osds: int, rack: str = "default"):
        """Add a host online; returns the PG remap diff.

        Reads and writes keep flowing while the moved PGs are served
        from their earlier and new members; run :meth:`rebalance` to
        migrate the data.
        """
        return self.cluster.expand(name, num_osds, rack=rack)

    def decommission_osd(self, osd_id: int):
        """Take one OSD out of placement online; returns the remap diff.

        Follow with :meth:`rebalance` (drains it), then
        ``cluster.finalize_decommission(osd_id)`` to drop it entirely.
        """
        return self.cluster.decommission_osd(osd_id)

    def rebalance(self, rate_limit_bps=None):
        """Process: converge every unclean PG (:func:`repro.cluster.converge`);
        returns its ConvergeStats.

        Dedup-aware by construction: chunk objects carry their refcount
        metadata in their own xattrs, so migrating the object migrates
        the refcounts.  Safe to run concurrently with the workload
        (everything happens under the per-object write locks) and
        resumable after a crash — re-running skips already-settled
        objects.
        """
        from ..cluster import converge

        return converge(self.cluster, rate_limit_bps)

    def rebalance_sync(self, rate_limit_bps=None):
        """Synchronous :meth:`rebalance`."""
        return self.cluster.run(self.rebalance(rate_limit_bps))

    # -- async API (simulation processes) ------------------------------------

    def write(self, oid: str, data: bytes, offset: int = 0, client=None):
        """Process: write ``data`` at ``offset`` of ``oid``."""
        yield from write_path(self.tier, oid, offset, data, client)
        if self.flush_on_write:
            yield from self.engine.process_object(oid, force=True)

    def read(self, oid: str, offset: int = 0, length: Optional[int] = None, client=None):
        """Process: read from ``oid``; returns bytes."""
        return read_path(self.tier, oid, offset, length, client)

    def delete(self, oid: str, client=None):
        """Process: delete ``oid``; returns once its metadata object is
        gone and its object lock free.  Its chunks' references are
        released behind the reply by the GC, in one batched commit (see
        :func:`~repro.core.io_path.delete_path`); :meth:`delete_sync` and
        :meth:`drain` wait for that release."""
        return delete_path(self.tier, oid, self.engine.release, client)

    def flush(self, oid: str):
        """Process: force deduplication of one object now; returns at
        its map commit, its old chunks' release running behind it
        (:meth:`flush_sync` and :meth:`drain` wait for that release)."""
        return self.engine.process_object(oid, force=True)

    # -- sync helpers (drive the event loop) ------------------------------------

    def write_sync(self, oid: str, data: bytes, offset: int = 0) -> None:
        """Synchronous :meth:`write`."""
        self.cluster.run(self.write(oid, data, offset))

    def read_sync(self, oid: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Synchronous :meth:`read`."""
        return self.cluster.run(self.read(oid, offset, length))

    def delete_sync(self, oid: str) -> None:
        """Synchronous :meth:`delete`; returns once its chunks'
        references are released too."""

        def delete():
            yield from self.delete(oid)
            yield from self.engine.releases_landed()

        self.cluster.run(delete())

    def flush_sync(self, oid: str) -> None:
        """Synchronous :meth:`flush`; returns once the references its
        pass dropped are released too."""

        def flush():
            yield from self.flush(oid)
            yield from self.engine.releases_landed()

        self.cluster.run(flush())

    def drain(self) -> None:
        """Deduplicate everything pending (ignores hotness), wait for every
        chunk release in flight (a pass's, an aborted pass's or a
        delete's), then run the GC over the engine's deref queue (the
        false-positive mode's deferred dereferences, and any release a
        fault deferred), as an idle background worker also does.

        Runs two forced passes at once on every metadata primary OSD
        with a dirty PG — see
        :meth:`DedupEngine.drain <repro.core.engine.DedupEngine.drain>`.
        """
        self.engine.drain_sync()

    # -- introspection ------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Current space accounting (see :class:`SpaceReport`)."""
        return self.tier.space_report()

    def client(self, name: str):
        """A new client host for concurrent-workload experiments."""
        return self.cluster.client(name)
