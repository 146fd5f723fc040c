"""Row representation for the storage substrate.

Rows are stored as immutable value tuples keyed by a stable row id (rid).
Row ids are assigned by the owning table and never reused, which gives the
lock manager and the write-ahead log a stable name for each record — the
same role InnoDB's implicit row ids play for the paper's prototype.

Every row is additionally the head of a *version chain* of
:class:`RowVersion` records stamped with begin/end commit timestamps.
The chain is what MVCC snapshot reads traverse: a transaction whose
snapshot timestamp is ``ts`` sees, for each rid, the single version whose
``[begin_ts, end_ts)`` window contains ``ts`` (plus its own uncommitted
versions).  Chains are maintained by :class:`~repro.storage.table.Table`
and stamped by the engine at commit time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from repro.storage.types import SQLValue

#: A canonical, schema-validated tuple of column values.
ValueTuple = tuple["SQLValue | None", ...]


@dataclass(frozen=True)
class Row:
    """A stored row: a stable row id plus its current value tuple.

    Attributes:
        rid: table-unique, never-reused row identifier.
        values: the value tuple, in schema column order.
    """

    rid: int
    values: ValueTuple

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> "SQLValue | None":
        return self.values[index]

    def __reduce__(self):
        # Rows are most of what crosses the shard-worker pipe; the
        # dataclass default ships a state dict naming both fields on
        # every row (~1.2x these bytes and time).
        return (Row, (self.rid, self.values))


@dataclass(eq=False)
class RowVersion:
    """One entry of a row's version chain.

    Timestamps are *commit* timestamps allocated by the storage engine.
    A ``None`` ``begin_ts`` marks a version created by a still-active
    transaction (``created_by``); a ``None`` ``end_ts`` with a set
    ``deleted_by`` marks a version a still-active transaction superseded
    or deleted.  Identity (not value) equality: two chains may hold
    value-identical versions that must stay distinguishable.

    Attributes:
        values: the value tuple this version carried.
        begin_ts: commit timestamp of the creating transaction, ``0`` for
            bulk-loaded/system rows, ``None`` while the creator is active.
        end_ts: commit timestamp of the superseding/deleting transaction,
            ``None`` while the version is current or its superseder is
            still active.
        created_by: transaction id of the (possibly active) creator, or
            ``None`` for non-transactional writes.
        deleted_by: transaction id of the active superseder, cleared once
            that transaction commits (``end_ts`` then takes over) or
            aborts.
    """

    values: ValueTuple
    begin_ts: int | None = None
    end_ts: int | None = None
    created_by: int | None = None
    deleted_by: int | None = None

    def visible_to(self, txn: int, read_ts: int) -> bool:
        """Is this version in transaction ``txn``'s snapshot at ``read_ts``?

        Own uncommitted versions are visible (read-your-writes); other
        transactions' versions are visible exactly when their lifetime
        window ``[begin_ts, end_ts)`` contains ``read_ts``.
        """
        if self.begin_ts is None:
            if self.created_by != txn:
                return False
        elif self.begin_ts > read_ts:
            return False
        if self.deleted_by == txn and self.deleted_by is not None:
            return False  # superseded by the reader itself
        if self.end_ts is not None and self.end_ts <= read_ts:
            return False
        return True

    @property
    def committed(self) -> bool:
        return self.begin_ts is not None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        begin = "*" if self.begin_ts is None else self.begin_ts
        end = "*" if self.end_ts is None and self.deleted_by else self.end_ts
        return f"[{begin},{end}){self.values!r}"


class RowId(NamedTuple):
    """A fully qualified record name: ``(table, rid)``.

    This is the locking and logging granule for row-level operations.  A
    tuple type, so hashing and comparing one — what the lock table and
    the SSI read sets do with it — runs in C.  It equals the plain tuple
    ``(table, rid)``, which no other resource is: a table resource pairs
    two strings, an index-key resource has four fields.
    """

    table: str
    rid: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.table}#{self.rid}"


#: ``row_id((table, rid))`` is ``RowId(table, rid)``, built in C: a
#: NamedTuple's own constructor is a Python-level ``__new__``.  The lock
#: path makes one per row it locks.
row_id = partial(tuple.__new__, RowId)
