"""The coordinator <-> shard link, declared once.

One row per verb of the pipe: its wire name, which part of the worker's
shard engine answers it, and the member of that part it names.  Both
ends import this table and nothing else describes the link: the worker
(:class:`~repro.transport.worker.ShardServer`) resolves a frame's method
through it and calls the member; the coordinator's proxy classes
(:mod:`repro.transport.proxy`) get one generated forwarding method per
row they do not write by hand.  The rows are the
:class:`~repro.storage.protocol.ShardEngine` contract spelled as frames —
adding a verb is one row here plus, at most, one line of that Protocol.

A frame's ``args`` are the member's positional arguments, after the
target's *address*: nothing for the engine and its parts, the table name
for ``TABLE``, and ``(name, txn, read_ts)`` for ``SNAPSHOT`` (the worker
rebuilds the stateless view per request, so serveability is re-checked
there and :class:`~repro.errors.SnapshotTooOldError` crosses back
intact).

One frame is one *step of the protocol* — a statement on this shard, a
commit, a flush — not one line of the coordinator's implementation of
it: ``update_where``/``delete_where`` fuse IX + candidate probe at the
shard's ``read_ts`` + row X locks + first-updater-wins check + the
writes; ``lock_write_candidates`` is the probe and locks alone (a
statement spanning shards locks everywhere before it writes anywhere);
a ``range_scan`` ships at most its ``limit`` rows; ``commit`` is the
in-memory commit and ``wal_flush`` the fsync, whose response envelope
acknowledges the durable WAL delta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Target(enum.Enum):
    """The part of a shard engine a verb addresses."""

    ENGINE = "engine"
    LOCKS = "engine.locks"
    WAL = "engine.wal"
    ORACLE = "engine.oracle"
    TABLE = "engine.db.table(name)"
    SNAPSHOT = "engine.snapshot_view(name, txn, read_ts)"

    def resolve(self, engine, args: tuple):
        """``(the addressed object, the member's arguments)``."""
        if self is Target.ENGINE:
            return engine, args
        if self is Target.LOCKS:
            return engine.locks, args
        if self is Target.WAL:
            return engine.wal, args
        if self is Target.ORACLE:
            return engine.oracle, args
        if self is Target.TABLE:
            return engine.db.table(args[0]), args[1:]
        return engine.snapshot_view(*args[:3]), args[3:]


@dataclass(frozen=True)
class Verb:
    wire: str
    target: Target
    #: the member of the target this verb names (default: the wire name).
    member: str = ""
    #: may hit a lock conflict worker-side: the wait is enqueued there
    #: and the proxy runs the cross-shard deadlock probe before
    #: surfacing ``WouldBlock``.
    blocking: bool = False
    #: has no frame of its own: queued as the connection's prelude, it
    #: rides the next request frame and runs before it (FIFO).  Nothing
    #: comes back; a failure fails the carrier.
    one_way: bool = False
    #: the call's keyword arguments travel as one trailing dict.
    options: bool = False
    #: ``member`` is a plain attribute: read with no argument, assigned
    #: with one.
    attribute: bool = False

    def __post_init__(self):
        if not self.member:
            object.__setattr__(self, "member", self.wire)


_ENGINE, _LOCKS, _WAL, _ORACLE = (
    Target.ENGINE, Target.LOCKS, Target.WAL, Target.ORACLE)
_TABLE, _SNAPSHOT = Target.TABLE, Target.SNAPSHOT

VERBS: dict[str, Verb] = {verb.wire: verb for verb in (
    # -- transactions ------------------------------------------------------------------
    Verb("begin", _ENGINE, one_way=True),
    Verb("prepare", _ENGINE),
    Verb("commit", _ENGINE),
    Verb("abort", _ENGINE),
    # -- statements ----------------------------------------------------------------------
    Verb("insert", _ENGINE, blocking=True),
    Verb("insert_many", _ENGINE, blocking=True),
    Verb("update", _ENGINE, blocking=True),
    Verb("delete", _ENGINE, blocking=True),
    Verb("update_where", _ENGINE, blocking=True),
    Verb("delete_where", _ENGINE, blocking=True),
    # -- locks ---------------------------------------------------------------------------
    Verb("lock_write_candidates", _ENGINE, blocking=True),
    Verb("lock_read_access", _ENGINE, blocking=True),
    Verb("lock_read_rows", _ENGINE, blocking=True),
    Verb("release_read_locks", _ENGINE),
    Verb("lock_waiting", _LOCKS, "waiting"),
    Verb("lock_held", _LOCKS, "held_resources"),
    Verb("waits_edges", _LOCKS),
    Verb("cancel_wait", _LOCKS),
    # -- leaf reads: live (2PL, under the locks above) -------------------------------------
    Verb("table_scan", _TABLE, "scan"),
    Verb("table_lookup_pk", _TABLE, "lookup_pk"),
    Verb("table_lookup_index", _TABLE, "lookup_index"),
    Verb("table_range_scan", _TABLE, "range_scan", options=True),
    Verb("table_len", _TABLE, "__len__"),
    Verb("table_snapshot", _TABLE, "snapshot"),
    # -- leaf reads: versioned ---------------------------------------------------------------
    Verb("snap_scan", _SNAPSHOT, "scan"),
    Verb("snap_lookup_pk", _SNAPSHOT, "lookup_pk"),
    Verb("snap_lookup_index", _SNAPSHOT, "lookup_index"),
    Verb("snap_range_scan", _SNAPSHOT, "range_scan", options=True),
    Verb("snap_len", _SNAPSHOT, "__len__"),
    # -- snapshots ---------------------------------------------------------------------------
    Verb("register_snapshot", _ORACLE, one_way=True),
    Verb("release_snapshot", _ORACLE, one_way=True),
    Verb("unpark_snapshot", _ENGINE),
    Verb("refresh_snapshot", _ENGINE),
    # -- DDL / maintenance -------------------------------------------------------------------
    Verb("create_table", _ENGINE),
    Verb("vacuum", _ENGINE),
    Verb("checkpoint", _ENGINE),
    Verb("recover", _ENGINE),
    Verb("wal_flush", _WAL, "flush"),
    # -- knobs and counters ------------------------------------------------------------------
    Verb("set_flush_latency", _WAL, "flush_latency", one_way=True, attribute=True),
    Verb("set_vacuum_interval", _ENGINE, "vacuum_interval",
         one_way=True, attribute=True),
    Verb("set_checkpoint_interval", _ENGINE, "checkpoint_interval",
         one_way=True, attribute=True),
)}


def members_of(target: Target) -> dict[str, Verb]:
    """``member name -> verb`` over one target's rows."""
    return {v.member: v for v in VERBS.values() if v.target is target}
