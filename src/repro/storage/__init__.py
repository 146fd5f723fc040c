"""Storage substrate: the DBMS the entangled middle tier runs on.

This package stands in for MySQL 5.5/InnoDB in the paper's prototype
(Section 5.1).  It provides typed heap tables with indexes, a
select-project-join evaluator, a Strict-2PL multigranularity lock manager
with deadlock detection, a write-ahead log, classical ACID transactions,
and ARIES-style restart recovery.

Locking protocol (Strict 2PL, multigranularity)
-----------------------------------------------

Resources form a two-level hierarchy: the table granule ``("table",
name)`` contains row granules (:class:`RowId`) and index-key granules
(:func:`index_key_resource`).  Containment is enforced purely by the
intention modes at the table granule — conflicts never need a
hierarchical walk:

=========================  =======================================
operation                  locks taken (in order)
=========================  =======================================
index/PK probe             IS table, S index-key (even on a miss —
                           the key lock guards the *gap*); the key
                           is the primary key's if covered, else the
                           widest covered secondary index's
row produced by a probe    IS table, S row — as the pipeline pulls
                           it: rows past a met LIMIT stay unlocked
full table scan            S table
INSERT                     IX table, IX each index key the row
                           carries (insert intention), X new row
UPDATE (by rid)            IX table, X row, IX each index key the
                           row *gains or vacates*
DELETE (by rid)            IX table, X row, IX each index key the
                           row vacates
UPDATE/DELETE (predicate)  IX table + X pinned index key + X each
                           candidate row when the WHERE clause
                           covers an index, else X table
=========================  =======================================

A table's IS is requested once per transaction: later keyed reads of the
same table find it held (and ask again after ``release_read_locks``).

Phantom protection: a reader's index-key S lock conflicts with the key IX
every insert (and key-gaining update) takes, so point and keyed-range
reads are repeatable without a table lock — while two inserters of the
same non-unique key stay compatible (IX/IX), the insert-intention idea.
Scan readers are protected by the table S / IX conflict.  ``granularity=LockGranularity.TABLE`` on
:class:`StorageEngine` restores the coarse protocol (every read takes
table S) for the locking ablation benchmarks.

MVCC snapshot reads
-------------------

The table above is the ``TxnIsolation.TWO_PL`` read protocol.  A
transaction begun with ``TxnIsolation.SNAPSHOT`` skips the read rows of
the table entirely: its reads are served from per-row **version chains**
(:class:`~repro.storage.row.RowVersion`) as of its begin-time commit
timestamp, via :class:`~repro.storage.snapshot.SnapshotView` — no S/IS
locks, no waiting, repeatable by construction.  Writers keep the write
rows of the table unchanged and add first-updater-wins conflict
detection (:class:`~repro.errors.WriteConflictError`).  Commit
timestamps ride on WAL COMMIT records, so restart recovery rebuilds the
chains exactly; ``StorageEngine.vacuum`` prunes versions below the
oldest active snapshot.

``TxnIsolation.SERIALIZABLE`` layers SSI on top: reads stay exactly the
lock-free snapshot protocol, while :class:`~repro.storage.ssi.SSITracker`
records read/write sets at the same row/index-key/table granularity as
the lock manager and aborts the pivot of any would-be dangerous
structure at commit (:class:`~repro.errors.SerializationFailureError`),
so committed histories are serializable without read locks.

Sharding
--------

:mod:`repro.storage.sharding` scales this substrate horizontally: a
:class:`ShardedStorageEngine` routes rows by hashed primary key to N
complete shard-local engines (each with its own
:class:`~repro.storage.oracle.TimestampOracle`, lock manager, version
chains and WAL) behind the same engine protocol.  Snapshot transactions
capture a *vector* of per-shard begin timestamps at ``begin`` so
cross-shard reads observe a consistent cut; cross-shard writers commit
via an ordered two-phase prepare with participant-stamped COMMIT
records, and serializability runs one global SSI tracker because rw
antidependencies ignore shard boundaries.

Read-observer contract
----------------------

:func:`evaluate` reports each distinct :class:`ReadAccess` — the access
paths of the table above — to its ``read_observer``: an access path
*before* it is probed, a row *before* it is handed to the pipeline (a
row the pipeline never pulls is never reported; with no ``LIMIT`` a
leaf's rows go as one batch before the first is used).  A store builds
one :class:`~repro.storage.query.Reads` observer per statement and per
grounding (``grounding_hooks``); a 2PL one takes the locks and may
raise :class:`~repro.storage.engine.WouldBlock` to abort the evaluation
with no unlocked data consumed; evaluation is side-effect free, so the
statement can simply be retried once the conflict clears.
"""

from repro.storage.catalog import Database
from repro.storage.engine import (
    LockGranularity,
    StorageEngine,
    TxnIsolation,
    TxnStatus,
    WouldBlock,
)
from repro.storage.expressions import (
    And,
    Arith,
    ArithOp,
    Cmp,
    CmpOp,
    Col,
    Const,
    Expr,
    InList,
    IsNull,
    Not,
    Or,
    conjoin,
    is_satisfied,
    split_conjuncts,
    substitute,
)
from repro.storage.locks import (
    LockManager,
    LockMode,
    LockOutcome,
    index_key_resource,
    table_resource,
)
from repro.storage.query import (
    AccessKind,
    ReadAccess,
    SPJQuery,
    TableRef,
    evaluate,
)
from repro.storage.oracle import TimestampOracle
from repro.storage.recovery import RecoveryReport, recover
from repro.storage.row import Row, RowId, RowVersion
from repro.storage.sharding import (
    ShardedDatabase,
    ShardedSnapshotDatabase,
    ShardedStorageEngine,
    build_storage_engine,
    shard_for_key,
    shard_members,
)
from repro.storage.snapshot import SnapshotDatabase, SnapshotView
from repro.storage.ssi import SSITracker
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HashIndex, Table
from repro.storage.types import ColumnType, SQLValue, coerce, infer_type, parse_date
from repro.storage.wal import (
    CheckpointImage,
    LogRecord,
    LogRecordType,
    TableImage,
    WriteAheadLog,
)

__all__ = [
    "AccessKind",
    "And",
    "Arith",
    "ArithOp",
    "CheckpointImage",
    "Cmp",
    "CmpOp",
    "Col",
    "Column",
    "ColumnType",
    "Const",
    "Database",
    "Expr",
    "HashIndex",
    "InList",
    "IsNull",
    "LockGranularity",
    "LockManager",
    "LockMode",
    "LockOutcome",
    "LogRecord",
    "LogRecordType",
    "Not",
    "Or",
    "ReadAccess",
    "RecoveryReport",
    "Row",
    "RowId",
    "RowVersion",
    "SPJQuery",
    "SQLValue",
    "SSITracker",
    "ShardedDatabase",
    "ShardedSnapshotDatabase",
    "ShardedStorageEngine",
    "SnapshotDatabase",
    "SnapshotView",
    "StorageEngine",
    "Table",
    "TableImage",
    "TableRef",
    "TableSchema",
    "TimestampOracle",
    "TxnIsolation",
    "TxnStatus",
    "WouldBlock",
    "WriteAheadLog",
    "build_storage_engine",
    "coerce",
    "conjoin",
    "evaluate",
    "index_key_resource",
    "infer_type",
    "is_satisfied",
    "parse_date",
    "recover",
    "shard_for_key",
    "shard_members",
    "split_conjuncts",
    "substitute",
    "table_resource",
]
