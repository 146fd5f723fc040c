"""The database catalog: named tables plus snapshot/restore support.

A :class:`Database` is the unit the rest of the system works against: the
SPJ evaluator resolves tables through it, the transactional engine mediates
access to it, and the recovery manager rebuilds it from the WAL.  It also
provides deep snapshots used by the formal model to compare final states of
different schedules (oracle-serializability, Definition C.7).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.errors import UnknownTableError
from repro.storage.row import ValueTuple
from repro.storage.schema import TableSchema
from repro.storage.table import Table


class Database:
    """A named collection of tables."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, Table] = {}
        #: the planner's prepared plans, by query shape (see
        #: :func:`repro.storage.planner.build_plan`).  Schemas never
        #: change once created, so nothing here is ever invalidated.
        self.plans: dict = {}

    # -- DDL ----------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise UnknownTableError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def schemas(self) -> list[TableSchema]:
        return [self._tables[n].schema for n in sorted(self._tables)]

    # -- bulk loading ----------------------------------------------------------------

    def load(self, name: str, rows: Iterable[Sequence]) -> int:
        """Insert many rows into ``name``; returns the number inserted."""
        table = self.table(name)
        count = 0
        for values in rows:
            table.insert(values)
            count += 1
        return count

    # -- snapshots --------------------------------------------------------------------

    def snapshot(self) -> dict[str, list[tuple[int, ValueTuple]]]:
        """Deep snapshot of all table contents, keyed by table name."""
        return {name: self._tables[name].snapshot() for name in sorted(self._tables)}

    def restore(self, snapshot: Mapping[str, list[tuple[int, ValueTuple]]]) -> None:
        """Restore table contents from a :meth:`snapshot`.

        Tables not present in the snapshot are cleared; tables present in
        the snapshot must already exist (schemas are not snapshotted).
        """
        for name, table in self._tables.items():
            if name in snapshot:
                table.restore(snapshot[name])
            else:
                table.clear()

    def content_equal(self, other: "Database") -> bool:
        """Compare databases by *content* (ignoring rids).

        Two databases are content-equal when every table holds the same
        multiset of value tuples.  The formal model compares final states
        this way because serial re-execution may assign different rids.
        """
        if set(self._tables) != set(other._tables):
            return False
        for name, table in self._tables.items():
            mine = sorted(
                (row.values for row in table.scan()),
                key=_sort_key,
            )
            theirs = sorted(
                (row.values for row in other.table(name).scan()),
                key=_sort_key,
            )
            if mine != theirs:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(f"{n}:{len(self._tables[n])}" for n in sorted(self._tables))
        return f"Database({self.name!r}, {sizes})"


def _sort_key(values: ValueTuple):
    """Total order over heterogeneous value tuples for content comparison."""
    return tuple((type(v).__name__, str(v)) for v in values)
