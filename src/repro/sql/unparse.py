"""Render SQL ASTs back to the extended-SQL dialect.

The stateless middleware persists transaction *programs* in the dormant
pool so restarts can re-execute them (Section 5.1).  Programs submitted
as text are stored verbatim; programs submitted as ASTs are rendered by
this module.  The renderer and parser round-trip: for every statement
form, ``parse(unparse(ast)) == ast`` (property-tested in
``tests/sql/test_unparse.py``).
"""

from __future__ import annotations

import datetime

from repro.errors import CompileError
from repro.sql.ast import (
    DeleteStmt,
    EntangledSelectStmt,
    InAnswer,
    InSelect,
    InsertStmt,
    Param,
    RollbackStmt,
    SelectItem,
    SelectStmt,
    SetStmt,
    Statement,
    TransactionProgram,
    UpdateStmt,
)
from repro.storage.expressions import (
    And,
    Arith,
    Cmp,
    Col,
    Const,
    Expr,
    InList,
    IsNull,
    Not,
    Or,
)


def unparse_value(value) -> str:
    """Render a constant as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    return str(value)


def unparse_expr(expr: Expr) -> str:
    """Render an expression (parenthesized defensively)."""
    if isinstance(expr, Const):
        return unparse_value(expr.value)
    if isinstance(expr, Col):
        return expr.name if not expr.name.startswith("@") else f"@{expr.name[1:]}"
    if isinstance(expr, Cmp):
        return (f"({unparse_expr(expr.left)} {expr.op.value} "
                f"{unparse_expr(expr.right)})")
    if isinstance(expr, And):
        return f"({unparse_expr(expr.left)} AND {unparse_expr(expr.right)})"
    if isinstance(expr, Or):
        return f"({unparse_expr(expr.left)} OR {unparse_expr(expr.right)})"
    if isinstance(expr, Not):
        return f"(NOT {unparse_expr(expr.operand)})"
    if isinstance(expr, IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({unparse_expr(expr.operand)} {suffix})"
    if isinstance(expr, Arith):
        return (f"({unparse_expr(expr.left)} {expr.op.value} "
                f"{unparse_expr(expr.right)})")
    if isinstance(expr, InList):
        options = ", ".join(unparse_expr(o) for o in expr.options)
        return f"({unparse_expr(expr.operand)} IN ({options}))"
    if isinstance(expr, InSelect):
        items = ", ".join(unparse_expr(i) for i in expr.items)
        return f"(({items}) IN ({unparse_select(expr.subquery)}))"
    if isinstance(expr, InAnswer):
        items = ", ".join(unparse_expr(i) for i in expr.items)
        return f"(({items}) IN ANSWER {expr.answer_relation})"
    if isinstance(expr, Param):
        return str(expr)  # a template's placeholder: not SQL, never parsed
    raise CompileError(f"cannot unparse expression {type(expr).__name__}")


def _unparse_item(item: SelectItem) -> str:
    if item.expr is None:
        assert item.bind_var is not None
        return f"@{item.bind_var}"
    rendered = unparse_expr(item.expr)
    if item.bind_var is not None:
        return f"{rendered} AS @{item.bind_var}"
    if item.alias is not None:
        return f"{rendered} AS {item.alias}"
    return rendered


def unparse_select(stmt: SelectStmt) -> str:
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    parts.append("*" if stmt.star else ", ".join(
        _unparse_item(i) for i in stmt.items))
    if stmt.tables:
        tables = ", ".join(
            t.name if t.alias in (None, t.name) else f"{t.name} AS {t.alias}"
            for t in stmt.tables
        )
        parts.append(f"FROM {tables}")
    if stmt.where is not None:
        parts.append(f"WHERE {unparse_expr(stmt.where)}")
    if stmt.order_by:
        ordering = ", ".join(
            f"{name} DESC" if descending else name
            for name, descending in stmt.order_by
        )
        parts.append(f"ORDER BY {ordering}")
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    return " ".join(parts)


def unparse_entangled(stmt: EntangledSelectStmt) -> str:
    items = ", ".join(_unparse_item(i) for i in stmt.items)
    relations = ", ".join(f"ANSWER {r}" for r in stmt.answer_relations)
    parts = [f"SELECT {items} INTO {relations}"]
    if stmt.where is not None:
        parts.append(f"WHERE {unparse_expr(stmt.where)}")
    parts.append(f"CHOOSE {stmt.choose}")
    return " ".join(parts)


def unparse_statement(stmt: Statement) -> str:
    if isinstance(stmt, SelectStmt):
        return unparse_select(stmt)
    if isinstance(stmt, EntangledSelectStmt):
        return unparse_entangled(stmt)
    if isinstance(stmt, InsertStmt):
        values = ", ".join(unparse_expr(v) for v in stmt.values)
        if stmt.columns:
            columns = ", ".join(stmt.columns)
            return f"INSERT INTO {stmt.table} ({columns}) VALUES ({values})"
        return f"INSERT INTO {stmt.table} VALUES ({values})"
    if isinstance(stmt, UpdateStmt):
        assignments = ", ".join(
            f"{column} = {unparse_expr(value)}"
            for column, value in stmt.assignments
        )
        out = f"UPDATE {stmt.table} SET {assignments}"
        if stmt.where is not None:
            out += f" WHERE {unparse_expr(stmt.where)}"
        return out
    if isinstance(stmt, DeleteStmt):
        out = f"DELETE FROM {stmt.table}"
        if stmt.where is not None:
            out += f" WHERE {unparse_expr(stmt.where)}"
        return out
    if isinstance(stmt, SetStmt):
        return f"SET @{stmt.var} = {unparse_expr(stmt.expr)}"
    if isinstance(stmt, RollbackStmt):
        return "ROLLBACK"
    raise CompileError(f"cannot unparse statement {type(stmt).__name__}")


def unparse_transaction(program: TransactionProgram) -> str:
    """Render a whole transaction program.

    Timeouts are rendered in seconds (the parser's normal form), so
    round-tripping preserves ``timeout_seconds`` exactly.
    """
    header = "BEGIN TRANSACTION"
    if program.timeout_seconds is not None:
        seconds = program.timeout_seconds
        if seconds == int(seconds):
            header += f" WITH TIMEOUT {int(seconds)} SECONDS"
        else:
            header += f" WITH TIMEOUT {seconds} SECONDS"
    lines = [header + ";"]
    for stmt in program.statements:
        lines.append(unparse_statement(stmt) + ";")
    lines.append("COMMIT;")
    return "\n".join(lines)
