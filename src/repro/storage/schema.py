"""Table schemas for the storage substrate.

A :class:`TableSchema` is an ordered list of :class:`Column` definitions
plus an optional primary key and any number of secondary (non-unique) index
declarations.  Schemas are immutable once constructed; the catalog treats
them as value objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import SchemaError, TypeMismatchError, UnknownColumnError
from repro.storage.types import ColumnType, SQLValue, coerce


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Attributes:
        name: column name, unique within the table.
        type: declared :class:`ColumnType`.
        nullable: whether NULL (``None``) is allowed.
    """

    name: str
    type: ColumnType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")


@dataclass(frozen=True)
class TableSchema:
    """An immutable table schema.

    Attributes:
        name: table name.
        columns: ordered column definitions.
        primary_key: names of the primary-key columns (may be empty, in
            which case the table is a heap with no uniqueness constraint —
            matching e.g. the paper's ``Friends`` relation).
        indexes: tuples of column names to maintain secondary hash
            indexes over (non-unique).
        column_names: the columns' names in order (derived, precomputed:
            the interpreter reads it per statement).
        index_positions: ``(index columns, their positions in a row)``
            per declared index, the primary key first (derived; behind
            ``has_index`` / ``index_keys``, and what a table builds its
            ordered trees from).
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()
    indexes: tuple[tuple[str, ...], ...] = ()
    column_names: tuple[str, ...] = field(
        init=False, repr=False, compare=False)
    #: column name -> position, behind column()/column_index()/has_column().
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)
    index_positions: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...] = (
        field(init=False, repr=False, compare=False))

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid table name {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        for key_col in self.primary_key:
            if key_col not in names:
                raise SchemaError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )
        for index in self.indexes:
            for col in index:
                if col not in names:
                    raise SchemaError(
                        f"index column {col!r} not in table {self.name!r}"
                    )
        # Frozen, so the derived lookups can be computed once, here.
        object.__setattr__(self, "column_names", tuple(names))
        positions = {name: i for i, name in enumerate(names)}
        object.__setattr__(self, "_positions", positions)
        declared = ((self.primary_key,) if self.primary_key else ()) + self.indexes
        object.__setattr__(self, "index_positions", tuple(
            (tuple(cols), tuple(positions[c] for c in cols))
            for cols in declared))

    # -- convenience constructors -------------------------------------------------

    @staticmethod
    def build(
        name: str,
        columns: Sequence[tuple[str, ColumnType] | tuple[str, ColumnType, bool]],
        primary_key: Iterable[str] = (),
        indexes: Iterable[Iterable[str]] = (),
    ) -> "TableSchema":
        """Build a schema from terse ``(name, type[, nullable])`` tuples."""
        cols = []
        for spec in columns:
            if len(spec) == 2:
                cols.append(Column(spec[0], spec[1]))
            else:
                cols.append(Column(spec[0], spec[1], spec[2]))
        return TableSchema(
            name=name,
            columns=tuple(cols),
            primary_key=tuple(primary_key),
            indexes=tuple(tuple(ix) for ix in indexes),
        )

    # -- lookups ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def column_index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownColumnError(
                f"no column {name!r} in table {self.name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._positions

    def has_index(self, column_names: Sequence[str]) -> bool:
        """Whether an index — the primary key or a secondary one — is
        declared over exactly ``column_names``, in that order.  Every
        declared index is kept both as a hash index and as an ordered
        B+ tree, so this answers for point and range access alike."""
        wanted = tuple(column_names)
        return any(cols == wanted for cols, _positions in self.index_positions)

    def index_keys(
        self, values: Sequence[SQLValue | None]
    ) -> list[tuple[tuple[str, ...], tuple]]:
        """Every ``(index columns, key)`` pair a row with ``values``
        occupies, the primary key first.  Writers lock these so keyed
        readers (who S-lock the keys they probe) get phantom protection;
        an SSI write set names them."""
        return [
            (cols, tuple([values[p] for p in positions]))
            for cols, positions in self.index_positions
        ]

    # -- row validation -----------------------------------------------------------

    def validate_row(self, values: Sequence[Any]) -> tuple[SQLValue | None, ...]:
        """Coerce and validate a full row of positional values.

        Returns the canonical value tuple.  Raises
        :class:`TypeMismatchError` for type errors and :class:`SchemaError`
        for arity or nullability problems.
        """
        if len(values) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        out = []
        for col, value in zip(self.columns, values):
            coerced = coerce(value, col.type)
            if coerced is None and not col.nullable:
                raise TypeMismatchError(
                    f"column {self.name}.{col.name} is NOT NULL"
                )
            out.append(coerced)
        return tuple(out)

    def key_of(self, values: Sequence[SQLValue | None]) -> tuple[SQLValue | None, ...] | None:
        """Extract the primary-key tuple from a validated row, or None if
        the table has no primary key."""
        if not self.primary_key:
            return None
        return tuple(values[self.column_index(c)] for c in self.primary_key)

    def row_dict(self, values: Sequence[SQLValue | None]) -> dict[str, SQLValue | None]:
        """Return the row as a ``{column: value}`` mapping."""
        return dict(zip(self.column_names, values))
