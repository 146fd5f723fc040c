"""The replicated coordinator: WAL shipping, follower reads, failover.

:class:`ReplicatedStorageEngine` extends the sharded engine with N
:class:`~repro.replication.follower.FollowerShard` replicas per shard
and three behaviors layered on the base protocol:

**Shipping (semi-synchronous).**  Every commit acknowledgement already
funnels through :meth:`flush_commits` (eager commits call it
internally; group commits call it explicitly before acking), so that is
where the durable log delta ships: after the physical flush, each
touched shard's followers :meth:`~FollowerShard.receive` everything
durable past their cursor — *before* this method returns, hence before
the client ever learns the commit happened.  An acknowledged commit is
therefore in every follower's durable log, which is the whole failover
contract (below): electing the maximal durable position can never lose
an acknowledged commit.

**Follower reads.**  Snapshot probes flow through the base engine's one
versioned-read chokepoint (:meth:`_snapshot_view`); the override routes
a probe to a follower whose applied position covers the requested
``read_ts``, round-robin across the leader and every caught-up replica
— but only for ``SNAPSHOT`` transactions that have not written
(followers cannot see uncommitted writes, and SERIALIZABLE reads must
feed the leader-side SSI machinery at full freshness).  A
``max_staleness`` bound (in global commit ticks) additionally lets
:meth:`_begin_cut` serve a *recorded* consistent cut that followers can
already satisfy instead of the freshest one, which is what keeps read
traffic on the replicas even while writes keep moving the head.
Sessions pass their read-your-writes floor as ``min_vector``; a
recorded cut is only served if it dominates that floor, so a session
always observes its own acknowledged writes, however lagged the replica
serving it.

**Failover.**  :meth:`fail_over` simulates a leader crash: it elects
the follower with the maximal durable WAL position, rebuilds a fresh
successor engine from that log via the ordinary restart-recovery path —
cross-shard commits that are now torn (durable here, not in some other
written shard) demote exactly as in sharded crash recovery — repoints
the routing table, and resyncs every follower from the same log with
the same demotion set (recovery is deterministic, so all copies
converge bit-for-bit).  Transactions live at that instant lost their
uncommitted state with the leader; they surface
:class:`~repro.errors.LeaderFailoverError`, which the client retry
policy treats as transparently retryable.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable

from repro.analysis.latch import Latch, allow_blocking
from repro.errors import LeaderFailoverError, ReplicationError
from repro.replication.follower import FollowerShard
from repro.storage.engine import LockGranularity, TxnIsolation, TxnStatus
from repro.storage.protocol import TableView
from repro.storage.schema import TableSchema
from repro.storage.sharding import (
    ShardedStorageEngine,
    ShardedTableView,
    ShardedTxnContext,
    _commit_analysis,
)


class ReplicatedStorageEngine(ShardedStorageEngine):
    """A sharded engine whose shards each feed N follower replicas."""

    #: Latch discipline (LL005): cut bookkeeping and failover state ride
    #: the commit funnel with the rest of the visibility machinery; the
    #: ack-in-flight set rides the meta latch its readers already hold;
    #: the routing counters take the dedicated (innermost)
    #: ``replication-meta`` latch because they are touched on every
    #: snapshot probe, far too hot for the funnel.
    _GUARDED_FIELDS = {
        **ShardedStorageEngine._GUARDED_FIELDS,
        "_recent_cuts": "commit-funnel",
        "_failed_over": "commit-funnel",
        "promotion_count": "commit-funnel",
        "_acking": "shard-meta",
        "follower_read_count": "replication-meta",
        "_read_probes": "replication-meta",
        "_route_cursor": "replication-meta",
    }

    def __init__(
        self,
        n_shards: int = 2,
        *,
        replicas: int = 1,
        max_staleness: int = 0,
        apply_lag: int = 0,
        locking: bool = True,
        granularity: LockGranularity = LockGranularity.FINE,
        ordered_indexes: bool = True,
    ):
        if replicas < 0:
            raise ReplicationError(
                f"need >= 0 replicas per shard, got {replicas}"
            )
        if max_staleness < 0:
            raise ReplicationError(
                f"max_staleness must be >= 0, got {max_staleness}"
            )
        if apply_lag < 0:
            raise ReplicationError(
                f"apply_lag must be >= 0, got {apply_lag}"
            )
        super().__init__(
            n_shards,
            locking=locking,
            granularity=granularity,
            ordered_indexes=ordered_indexes,
        )
        self.replicas_per_shard = replicas
        #: how far (in global commit-sequence ticks) behind the freshest
        #: cut a SNAPSHOT transaction's begin cut may be (0 = always
        #: fresh, which usually pins reads to the leaders).
        self.max_staleness = max_staleness
        self.followers: list[list[FollowerShard]] = []
        for i, shard in enumerate(self.shards):
            row = [
                FollowerShard(i, r, shard, self.n_shards)
                for r in range(replicas)
            ]
            for follower in row:
                follower.apply_lag = apply_lag
            self.followers.append(row)
        #: serializes each shard's ship/apply/resync stream.
        self._ship_latches = [
            Latch("replication-ship", reentrant=False) for _ in self.shards
        ]
        self._meta = Latch("replication-meta", reentrant=False)
        #: recently recorded consistent cuts, newest last:
        #: ``(commit_seq, vector, dep_lsns)`` as captured under the
        #: funnel right after a writing commit — the candidates
        #: bounded-staleness begins may be served from.
        self._recent_cuts: deque = deque(maxlen=128)
        #: txn -> failed shard, for transactions whose leader died while
        #: they were live; their next touch raises LeaderFailoverError.
        self._failed_over: dict[int, int] = {}
        #: commits inside flush_commits (flushed-but-not-yet-shipped
        #: window); failover drains these before electing.
        self._acking: set[int] = set()
        self.follower_read_count = 0
        self.promotion_count = 0
        #: per-server snapshot-probe tallies ("shard0", "shard0r1", ...)
        #: — the read-service load the cost model prices per server.
        self._read_probes: dict[str, int] = {}
        self._route_cursor = [0] * self.n_shards

    # -- DDL ---------------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> ShardedTableView:
        view = super().create_table(schema)
        for row in self.followers:
            for follower in row:
                follower.mirror_table(schema)
        return view

    # -- shipping ----------------------------------------------------------------------

    def _ship(self, shard_idx: int) -> None:
        """Ship shard ``shard_idx``'s durable log delta to its followers."""
        row = self.followers[shard_idx]
        if not row:
            return
        leader = self.shards[shard_idx]
        with self._ship_latches[shard_idx]:
            flushed = leader.wal.flushed_lsn
            for follower in row:
                delta = leader.wal.tail(follower.received_lsn)
                if delta or flushed > follower.durable_lsn:
                    follower.receive(delta, flushed_lsn=flushed)

    def flush_commits(self, txns: Iterable[int]) -> None:
        """Flush, then ship — the commit is acknowledged only after both.

        The shipped shard set is captured from the parked flush targets
        *before* the base flush clears them.  The ``_acking``
        registration brackets the whole flush+ship window so
        :meth:`fail_over` can tell "committed and fully replicated"
        apart from "committed but the ack is still in flight" (the
        latter must drain before an election, or the elected log could
        miss a commit the client is about to be told succeeded).
        """
        txns = tuple(txns)
        targets: set[int] = set()
        for txn in txns:
            ctx = self._contexts.get(txn)
            if ctx is not None:
                targets.update(ctx.flush_targets)
        with self._meta_lock:
            self._acking.update(txns)
        try:
            super().flush_commits(txns)
            for shard_idx in sorted(targets):
                self._ship(shard_idx)
        finally:
            with self._meta_lock:
                self._acking.difference_update(txns)

    def checkpoint(self) -> list:
        """Ensemble checkpoint, then ship the cut to every follower.

        The shipped CHECKPOINT record makes each follower mirror the
        leader's log truncation (see :meth:`FollowerShard._ingest`), so
        the durable evidence a future failover analysis reads stays
        record-for-record identical on every copy.
        """
        records = super().checkpoint()
        if records:
            for shard_idx in range(self.n_shards):
                self._ship(shard_idx)
        return records

    def drain_replicas(self) -> None:
        """Apply everything shipped so far (collapse any apply lag)."""
        for shard_idx, row in enumerate(self.followers):
            if not row:
                continue
            with self._ship_latches[shard_idx]:
                for follower in row:
                    follower.drain()

    # -- follower reads ----------------------------------------------------------------

    def _snapshot_view(
        self, shard_idx: int, name: str, txn: int, read_ts: int
    ) -> TableView:
        ctx = self._contexts.get(txn)
        row = self.followers[shard_idx]
        serveable: list[FollowerShard] = []
        if (
            row
            and ctx is not None
            and ctx.isolation is TxnIsolation.SNAPSHOT
            and not ctx.written_tables
        ):
            # A transaction that has written must read its own
            # uncommitted versions, which live only in the leader; a
            # SERIALIZABLE read stays on the leader with full freshness.
            serveable = [f for f in row if f.applied_commit_ts >= read_ts]
        chosen: FollowerShard | None = None
        with self._meta:
            cursor = self._route_cursor[shard_idx]
            self._route_cursor[shard_idx] = cursor + 1
            if serveable:
                pick = cursor % (1 + len(serveable))
                if pick:
                    chosen = serveable[pick - 1]
                    self.follower_read_count += 1
            server = chosen.name if chosen else f"shard{shard_idx}"
            self._read_probes[server] = self._read_probes.get(server, 0) + 1
        if chosen is not None:
            return chosen.engine.snapshot_view(name, txn, read_ts)
        return super()._snapshot_view(shard_idx, name, txn, read_ts)

    def read_probe_counts(self) -> dict[str, int]:
        """Per-server snapshot-probe tallies (the read-service load)."""
        with self._meta:
            return dict(self._read_probes)

    def _begin_cut(
        self,
        isolation: TxnIsolation,
        min_vector: "tuple[int, ...] | None",
    ) -> "tuple[int, tuple[int, ...], tuple[int, ...]]":
        """Serve the newest recorded cut the followers can satisfy.

        Walks the recorded cuts newest-first, stopping at the staleness
        floor; a cut qualifies when it dominates the session's
        read-your-writes floor *and* every shard has a follower whose
        applied position covers the cut's component (so the probes it
        will issue can actually route off the leader).  Falls back to
        the freshest cut — which trivially dominates any session floor,
        because session floors are captured from acknowledged commits.
        """
        fresh = super()._begin_cut(isolation, min_vector)
        if (
            isolation is not TxnIsolation.SNAPSHOT
            or self.max_staleness <= 0
            or not self.replicas_per_shard
        ):
            return fresh
        floor = self._commit_seq - self.max_staleness
        for seq, vector, dep_lsns in reversed(self._recent_cuts):
            if seq < floor:
                break
            if min_vector is not None and any(
                v < m for v, m in zip(vector, min_vector)
            ):
                continue
            if all(
                any(f.applied_commit_ts >= ts for f in row)
                for row, ts in zip(self.followers, vector)
            ):
                return (seq, vector, dep_lsns)
        return fresh

    def commit(self, txn: int, *, flush: bool = True) -> list[int]:
        woken = super().commit(txn, flush=flush)
        with self._commit_lock:
            ctx = self._contexts.get(txn)
            if (
                ctx is not None
                and ctx.status is TxnStatus.COMMITTED
                and ctx.commit_seq is not None
                and (
                    not self._recent_cuts
                    or self._recent_cuts[-1][0] != self._commit_seq
                )
            ):
                # Record the post-commit consistent cut (funnel-held, so
                # it is a true prefix cut) as a candidate for future
                # bounded-staleness begins.
                self._recent_cuts.append((
                    self._commit_seq,
                    tuple(s.oracle.last_commit_ts for s in self.shards),
                    tuple(s.wal.last_lsn for s in self.shards),
                ))
        return woken

    def commit_vector(self, txn: int) -> "tuple[int, ...] | None":
        """A bounded-staleness begin may be served a recorded cut older
        than ``txn``'s commit; a session that must observe its own write
        passes this back as ``min_vector``.  Capturing the whole current
        vector *overclaims* — it may include other sessions' concurrent
        commits — which is safe: an inflated floor can only force extra
        freshness, never staleness."""
        if not self.written_shards(txn):
            return None
        return tuple(s.oracle.last_commit_ts for s in self.shards)

    def replication_lag(self) -> int:
        """Worst follower lag, in commit-timestamp ticks."""
        lag = 0
        for leader, row in zip(self.shards, self.followers):
            for follower in row:
                lag = max(lag, follower.lag_ticks(leader))
        return lag

    # -- failover ----------------------------------------------------------------------

    def fail_over(self, shard_idx: int) -> int:
        """Kill shard ``shard_idx``'s leader and promote a follower.

        Elects the follower with the maximal durable WAL position,
        recovers a fresh successor from that log (torn cross-shard
        commits demote exactly as in sharded restart recovery), repoints
        the routing table, and resyncs the other followers from the same
        log + demotion set.  Every transaction live at that instant is
        aborted ensemble-wide — its uncommitted state died with the
        leader — and poisoned to raise
        :class:`~repro.errors.LeaderFailoverError` (retryable) on its
        next touch.  Returns the elected follower's replica index.

        Acknowledged commits survive by construction: the election only
        runs once no acknowledgement is in flight, and an acknowledged
        commit was shipped to *every* follower (so to the winner, whoever
        that is) before its client learned of it.
        """
        if not self.followers[shard_idx]:
            raise ReplicationError(
                f"shard {shard_idx} has no followers to promote"
            )
        while True:
            with self._commit_lock:
                with self._meta_lock:
                    acking = bool(self._acking)
                parked = [
                    txn for txn, ctx in self._contexts.items()
                    if ctx.status is TxnStatus.COMMITTED and ctx.flush_targets
                ]
                if not acking and not parked:
                    return self._fail_over_quiesced(shard_idx)
            if parked and not acking:
                # Commits parked for a future group flush would hold the
                # election forever; flush-and-ship them now, which also
                # extends the zero-loss guarantee to them (they become
                # acknowledged, hence replicated, before the election).
                self.flush_commits(parked)
            else:
                # An acknowledgement is mid-flight (committed under the
                # funnel, flush/ship not finished).  Electing now could
                # strand a commit the client is about to see succeed;
                # let it drain — no new commits can pass the funnel
                # while we spin.
                time.sleep(0.0005)

    def _fail_over_quiesced(self, shard_idx: int) -> int:
        """The election proper; funnel held, no acks in flight."""
        row = self.followers[shard_idx]
        best = max(row, key=lambda f: f.durable_lsn)
        dead = self.shards[shard_idx]
        shell = best.successor_shell()
        base_records = list(best.wal.records(durable_only=True))
        base_flushed = best.durable_lsn
        probe = list(self.shards)
        probe[shard_idx] = shell
        _committed, torn = _commit_analysis(probe)
        # Latch-discipline waiver: recovery (and the follower resyncs)
        # flush WALs under the funnel.  Deliberate — the routing table
        # swap, the demotion analysis, and the rebuilds must all happen
        # at one instant no begin or commit can straddle.  Failovers are
        # rare; the funnel is quiescent here by the ack-drain above.
        with allow_blocking(
            "leader failover recovers the successor under a quiescent funnel"
        ):
            shell.recover(torn)
            shell.wal.flush_latency = dead.wal.flush_latency
            shell.vacuum_interval = dead.vacuum_interval
            shell.locks.share_waits_for(
                self._shared_waits, self._shared_waits_mutex
            )
            self.shards[shard_idx] = shell
            with self._ship_latches[shard_idx]:
                for follower in row:
                    follower.resync(
                        base_records, flushed_lsn=base_flushed, demote=torn
                    )
        # Every live transaction dies with the leader: locks, uncommitted
        # versions and undo state on the failed shard are gone, and a
        # snapshot vector spanning the old timeline may observe commits
        # the demotion just rolled back.  Abort them ensemble-wide.
        for txn, ctx in list(self._contexts.items()):
            if ctx.status is not TxnStatus.ACTIVE:
                continue
            # The dead shard's half went down with its leader; everything
            # else — the survivors' rollback, the snapshot release, SSI,
            # the observers — is the ordinary abort.
            self._abort(txn, dead_shard=shard_idx)
            self._failed_over[txn] = shard_idx
        self._recent_cuts.clear()
        self.promotion_count += 1
        return row.index(best)

    def _context(self, txn: int) -> ShardedTxnContext:
        ctx = self._contexts.get(txn)
        if (
            ctx is not None
            and ctx.status is not TxnStatus.ACTIVE
            and txn in self._failed_over
        ):
            shard_idx = self._failed_over[txn]
            raise LeaderFailoverError(
                f"shard {shard_idx} leader failed over while transaction "
                f"{txn} was live; the successor is serving — retry",
                shard=shard_idx,
            )
        return super()._context(txn)

    def abort(self, txn: int) -> list[int]:
        # Client cleanup after a LeaderFailoverError aborts the handle;
        # the failover already did the work, so absorb it quietly.
        with self._commit_lock:
            ctx = self._contexts.get(txn)
            if (
                ctx is not None
                and ctx.status is TxnStatus.ABORTED
                and txn in self._failed_over
            ):
                return []
        return super().abort(txn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedStorageEngine(n_shards={self.n_shards}, "
            f"replicas={self.replicas_per_shard})"
        )


__all__ = ["ReplicatedStorageEngine"]
