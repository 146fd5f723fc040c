"""AST for the extended-SQL dialect (Sections 2 and 3.1).

The statement forms cover everything the paper's listings use: classical
SELECT/INSERT/UPDATE/DELETE, ``SET @var = expr``, the entangled
``SELECT ... INTO ANSWER ... CHOOSE 1``, and the transaction brackets
``BEGIN TRANSACTION [WITH TIMEOUT d] ... COMMIT`` with optional
``ROLLBACK``.

Expressions reuse :mod:`repro.storage.expressions` plus three SQL-level
nodes: ``InSelect`` (tuple-IN-subquery) and ``InAnswer`` (tuple-IN-ANSWER
— the entanglement postcondition), which only exist before compilation,
and ``Param`` (a literal lifted out of a statement *template*), which a
prepared plan keeps as a leaf that evaluates to its execution's value.
Like the storage nodes, each declares its children in its ``map`` and
nowhere else: ``Param`` is a leaf, and the ``IN`` nodes' children are
their tuple items — a subquery is a statement, so a walker that binds one
says so.

**Templates and the two views of a program.**  The parser parses each
script *shape* once (:mod:`repro.sql.parser`): the shared result is a
template AST with a :class:`Param` leaf wherever the text had a number or
string literal, and each script contributes only its tuple of literal
values.  A :class:`TransactionProgram` therefore holds ``template`` +
``params`` — the *engine view*, which the interpreter executes directly,
each statement through its prepared form (:mod:`repro.sql.compiler`)
with the values its ``Param`` and ``@var`` leaves read — and
materialises the *literal view*
(``.statements``, ``==``, ``repr``, unparsing) only when somebody asks.
A program built from literal statements is its own template with no
parameters, so there is one representation, not two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping
from weakref import WeakKeyDictionary

from repro.errors import CompileError
from repro.storage.expressions import Col, Const, Expr, map_items
from repro.storage.types import SQLValue

#: Host-variable environment: "@name" -> value.
Env = Mapping[str, "SQLValue | None"]
#: The literal values of one script, indexed by :attr:`Param.index`.
Params = tuple["SQLValue | None", ...]


# ---------------------------------------------------------------------------
# Pre-compilation expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InSelect(Expr):
    """``(item, ...) IN (SELECT cols FROM ... WHERE ...)``.

    In an entangled query's WHERE clause this contributes body atoms; in a
    classical statement it is evaluated as a semi-join.
    """

    items: tuple[Expr, ...]
    subquery: "SelectStmt"

    def map(self, f):
        items = map_items(f, self.items)
        return self if items is self.items else InSelect(items, self.subquery)

    def __str__(self) -> str:
        return _unparse(self)


@dataclass(frozen=True)
class InAnswer(Expr):
    """``(item, ...) IN ANSWER Name`` — an entanglement postcondition."""

    items: tuple[Expr, ...]
    answer_relation: str

    def map(self, f):
        items = map_items(f, self.items)
        return self if items is self.items else InAnswer(items, self.answer_relation)

    def __str__(self) -> str:
        return _unparse(self)


@dataclass(frozen=True)
class Param(Expr):
    """The ``index``-th lifted literal of a script (template ASTs only).

    ``negate`` is a unary minus folded into a numeric literal, so that
    ``id = -5`` binds to ``Const(-5)`` exactly as the literal parse does.
    """

    index: int
    negate: bool = False

    def eval(self, env) -> "SQLValue | None":
        """The parameter's value where a prepared plan keeps it: under
        its index in the values its execution fills."""
        value = env[self.index]
        return -value if self.negate else value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{'-' if self.negate else ''}?{self.index}"


# ---------------------------------------------------------------------------
# Select items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One item of a SELECT list.

    ``bind_var`` carries an ``AS @name`` binding (Section 3.1's mechanism
    for extracting answer values into host variables).  A bare host
    variable in the select list of a classical SELECT (``SELECT @uid,
    @hometown FROM User ...``, Appendix D) is represented by
    ``expr=None, bind_var=name`` — it binds from the *column named like
    the variable* (the MySQL-ism the paper's workloads rely on).
    """

    expr: Expr | None
    bind_var: str | None = None
    alias: str | None = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for statements; ``str()`` is the statement in SQL."""

    @cached_property
    def resolutions(self) -> WeakKeyDictionary:
        """The compiler's memo: this statement's *prepared form* against
        a catalog, by ``Database`` (see :mod:`repro.sql.compiler`).  Not a
        field — invisible to ``==``, ``hash`` and ``repr`` — and as weak
        as its keys, so a shared template statement neither pins a
        database nor outlives the template table's bound."""
        return WeakKeyDictionary()

    def __str__(self) -> str:
        return _unparse(self)


def _unparse(node) -> str:
    from repro.sql.unparse import unparse_expr, unparse_statement

    if isinstance(node, Statement):
        return unparse_statement(node)
    return unparse_expr(node)


@dataclass(frozen=True)
class TableSource:
    """A FROM item: ``name [AS] alias``."""

    name: str
    alias: str | None = None


@dataclass(frozen=True)
class SelectStmt(Statement):
    """Classical SELECT (select-project-join + DISTINCT/ORDER BY/LIMIT).

    ``order_by`` holds ``(column name, descending)`` pairs, in clause
    order; names may be alias-qualified like WHERE columns.
    """

    items: tuple[SelectItem, ...]
    tables: tuple[TableSource, ...] = ()
    where: Expr | None = None
    distinct: bool = False
    limit: int | None = None
    star: bool = False
    order_by: tuple[tuple[str, bool], ...] = ()


@dataclass(frozen=True)
class EntangledSelectStmt(Statement):
    """``SELECT items INTO ANSWER R [, ANSWER R2] WHERE ... CHOOSE n``."""

    items: tuple[SelectItem, ...]
    answer_relations: tuple[str, ...]
    where: Expr | None
    choose: int = 1


@dataclass(frozen=True)
class InsertStmt(Statement):
    table: str
    columns: tuple[str, ...]      # empty = full-row positional insert
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class UpdateStmt(Statement):
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class DeleteStmt(Statement):
    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class SetStmt(Statement):
    """``SET @var = expr``."""

    var: str
    expr: Expr


@dataclass(frozen=True)
class RollbackStmt(Statement):
    """Explicit ROLLBACK inside a transaction body."""


class TransactionProgram:
    """A full ``BEGIN TRANSACTION ... COMMIT`` unit (Section 3.1 syntax).

    ``timeout_seconds`` is None when no WITH TIMEOUT clause was given.

    Engine view: ``template`` (statements, shared by every script of the
    same shape, :class:`Param` leaves where literals stood) + ``params``
    (this script's literals).  Literal view: ``statements``, built from
    the two on first access; equality, hashing and ``repr`` are those of
    the literal view.  Immutable by convention, like the frozen
    statements it holds.
    """

    __slots__ = ("template", "params", "timeout_seconds", "_statements")

    def __init__(
        self,
        statements: tuple[Statement, ...],
        timeout_seconds: float | None = None,
        params: Params = (),
    ):
        self.template = statements
        self.params = params
        self.timeout_seconds = timeout_seconds
        self._statements = None if params else statements

    def bind(self, params: Params) -> "TransactionProgram":
        """The program of another script of this shape."""
        return TransactionProgram(self.template, self.timeout_seconds, params)

    @property
    def statements(self) -> tuple[Statement, ...]:
        if self._statements is None:
            self._statements = tuple(
                bind_statement(stmt, self.params) for stmt in self.template
            )
        return self._statements

    def entangled_count(self) -> int:
        return sum(
            1 for s in self.template if isinstance(s, EntangledSelectStmt)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionProgram):
            return NotImplemented
        return (self.statements == other.statements
                and self.timeout_seconds == other.timeout_seconds)

    def __hash__(self) -> int:
        return hash((self.statements, self.timeout_seconds))

    def __repr__(self) -> str:
        return (f"TransactionProgram(statements={self.statements!r}, "
                f"timeout_seconds={self.timeout_seconds!r})")


# ---------------------------------------------------------------------------
# Binding: parameters and host variables
# ---------------------------------------------------------------------------


def inline_hostvars(expr: Expr, env: Env | None, params: Params = ()) -> Expr:
    """Replace every ``@name`` reference with its current value and every
    :class:`Param` with its literal, in one walk; subtrees with neither
    are shared, not copied.

    Unbound host variables are a compile error — the paper's programs
    always SET or bind a variable before use.  ``env=None`` leaves host
    variables in place (the literal view of a template).
    """
    kind = type(expr)
    if kind is Param:
        value = params[expr.index]
        return Const(-value if expr.negate else value)
    if kind is Col:
        if env is None or not expr.name.startswith("@"):
            return expr
        if expr.name not in env:
            raise CompileError(f"unbound host variable {expr.name}")
        return Const(env[expr.name])
    if kind is Const:
        return expr
    if kind is InSelect:
        return InSelect(
            map_items(lambda item: inline_hostvars(item, env, params), expr.items),
            bind_select(expr.subquery, env, params))
    return expr.map(lambda node: inline_hostvars(node, env, params))


def _bind_items(items, env, params) -> tuple[SelectItem, ...]:
    return tuple(
        item if item.expr is None else SelectItem(
            inline_hostvars(item.expr, env, params), item.bind_var, item.alias)
        for item in items
    )


def _bind_optional(expr: Expr | None, env, params) -> Expr | None:
    return None if expr is None else inline_hostvars(expr, env, params)


def bind_select(stmt: SelectStmt, env: Env | None, params: Params = ()) -> SelectStmt:
    """:func:`inline_hostvars` over a SELECT's items and WHERE clause."""
    return SelectStmt(
        _bind_items(stmt.items, env, params), stmt.tables,
        _bind_optional(stmt.where, env, params), stmt.distinct, stmt.limit,
        stmt.star, stmt.order_by,
    )


def bind_statement(stmt: Statement, params: Params) -> Statement:
    """The literal statement a template statement stands for: every
    :class:`Param` replaced by its value, host variables untouched."""
    if not params:
        return stmt
    if isinstance(stmt, SelectStmt):
        return bind_select(stmt, None, params)
    if isinstance(stmt, EntangledSelectStmt):
        return EntangledSelectStmt(
            _bind_items(stmt.items, None, params), stmt.answer_relations,
            _bind_optional(stmt.where, None, params), stmt.choose,
        )
    if isinstance(stmt, InsertStmt):
        return InsertStmt(stmt.table, stmt.columns, tuple(
            inline_hostvars(v, None, params) for v in stmt.values))
    if isinstance(stmt, UpdateStmt):
        return UpdateStmt(
            stmt.table,
            tuple((column, inline_hostvars(value, None, params))
                  for column, value in stmt.assignments),
            _bind_optional(stmt.where, None, params),
        )
    if isinstance(stmt, DeleteStmt):
        return DeleteStmt(stmt.table, _bind_optional(stmt.where, None, params))
    if isinstance(stmt, SetStmt):
        return SetStmt(stmt.var, inline_hostvars(stmt.expr, None, params))
    return stmt  # ROLLBACK
