"""TEST-ONLY ORACLE: the expression walkers as they stood before ``Expr.map``.

Verbatim copies of the eight hand-written recursions over the expression
tree, each with its own ``isinstance`` ladder over the node classes and
its own "unsupported node" error, at the parent of the change that made
every walker a visitor over ``Expr.map``:

* ``substitute`` (``src/repro/storage/expressions.py``);
* ``_rewrite_vars`` (``src/repro/entangled/grounding.py``);
* ``_qualify``, ``_map_where`` (with its two users ``_qualify_where`` and
  ``_bind_where``), ``_rebind_subquery_columns`` and ``_residual_to_vars``
  (``src/repro/sql/compiler.py``);
* ``inline_hostvars`` (with ``bind_select`` and ``_bind_items``, which
  recurse into it; ``src/repro/sql/ast.py``);
* the planner's ``_names`` (``src/repro/storage/planner.py``);

plus ``columns``: the ten ``Expr.columns()`` overrides of the node
classes, folded into one function here because they were methods (and
called by ``_names``' fallback branch where the original called the
method — the only edit to the copies).

``test_walkers_differential.py`` runs each against the production walker
over the same generated trees and requires the same result (``==``), the
same ``names`` order and the same exception type.  It shares the node
classes, ``_slot_name``, ``_canonical_var`` and ``_find_slot_by_name``
with ``src/`` on purpose, so results compare with ``==``, and takes
``_membership_test`` from ``_reference_bind.py``, the one copy of the
bind path ``_bind_where`` belonged to.  Never import this from ``src/``.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import CompileError, EntangledQueryError
from repro.sql.ast import InAnswer, InSelect, Param, SelectItem, SelectStmt
from repro.sql.compiler import (
    _canonical_var,
    _find_slot_by_name,
    _slot_name,
)
from _reference_bind import _membership_test
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
from repro.storage.types import SQLValue

# ---------------------------------------------------------------------------
# storage/expressions.py
# ---------------------------------------------------------------------------


def columns(expr: Expr) -> set[str]:
    """The ten ``columns()`` overrides (and the base ``set()``)."""
    if isinstance(expr, Col):
        return {expr.name}
    if isinstance(expr, (Cmp, And, Or, Arith)):
        return columns(expr.left) | columns(expr.right)
    if isinstance(expr, (Not, IsNull)):
        return columns(expr.operand)
    if isinstance(expr, InList):
        cols = columns(expr.operand)
        for option in expr.options:
            cols |= columns(option)
        return cols
    if isinstance(expr, (InSelect, InAnswer)):
        cols: set[str] = set()
        for item in expr.items:
            cols |= columns(item)
        return cols
    return set()


def substitute(expr: Expr, bindings: Mapping[str, "SQLValue | None"]) -> Expr:
    """Replace :class:`Col` references found in ``bindings`` with constants.

    Used to inline host-variable values into compiled predicates before
    execution, and by the entangled-query grounding step.
    """
    if isinstance(expr, Col):
        if expr.name in bindings:
            return Const(bindings[expr.name])
        return expr
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Cmp):
        return Cmp(expr.op, substitute(expr.left, bindings), substitute(expr.right, bindings))
    if isinstance(expr, And):
        return And(substitute(expr.left, bindings), substitute(expr.right, bindings))
    if isinstance(expr, Or):
        return Or(substitute(expr.left, bindings), substitute(expr.right, bindings))
    if isinstance(expr, Not):
        return Not(substitute(expr.operand, bindings))
    if isinstance(expr, IsNull):
        return IsNull(substitute(expr.operand, bindings), expr.negated)
    if isinstance(expr, Arith):
        return Arith(expr.op, substitute(expr.left, bindings), substitute(expr.right, bindings))
    if isinstance(expr, InList):
        return InList(
            substitute(expr.operand, bindings),
            tuple(substitute(o, bindings) for o in expr.options),
        )
    raise CompileError(f"cannot substitute into {type(expr).__name__}")


# ---------------------------------------------------------------------------
# entangled/grounding.py
# ---------------------------------------------------------------------------


def _rewrite_vars(expr: Expr, mapping: Mapping[str, Col]) -> Expr:
    """Replace variable references in the residual predicate with the
    columns chosen by :func:`compile_body`."""
    from repro.storage.expressions import Arith, InList, IsNull, Not, Or

    if isinstance(expr, Col):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _rewrite_vars(expr.left, mapping), _rewrite_vars(expr.right, mapping))
    if isinstance(expr, And):
        return And(_rewrite_vars(expr.left, mapping), _rewrite_vars(expr.right, mapping))
    if isinstance(expr, Or):
        return Or(_rewrite_vars(expr.left, mapping), _rewrite_vars(expr.right, mapping))
    if isinstance(expr, Not):
        return Not(_rewrite_vars(expr.operand, mapping))
    if isinstance(expr, IsNull):
        return IsNull(_rewrite_vars(expr.operand, mapping), expr.negated)
    if isinstance(expr, Arith):
        return Arith(expr.op, _rewrite_vars(expr.left, mapping), _rewrite_vars(expr.right, mapping))
    if isinstance(expr, InList):
        return InList(
            _rewrite_vars(expr.operand, mapping),
            tuple(_rewrite_vars(o, mapping) for o in expr.options),
        )
    raise EntangledQueryError(f"unsupported body predicate node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# sql/compiler.py
# ---------------------------------------------------------------------------


def _qualify(expr: Expr, resolve_bare) -> Expr:
    """Qualify bare column references so the evaluator resolves them even
    when names collide across joined tables."""
    if isinstance(expr, Col):
        if "." in expr.name or expr.name.startswith("@"):
            return expr
        return Col(resolve_bare(expr.name))
    if isinstance(expr, (Const, Param)):
        return expr
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _qualify(expr.left, resolve_bare),
                   _qualify(expr.right, resolve_bare))
    if isinstance(expr, And):
        return And(_qualify(expr.left, resolve_bare),
                   _qualify(expr.right, resolve_bare))
    if isinstance(expr, Or):
        return Or(_qualify(expr.left, resolve_bare),
                  _qualify(expr.right, resolve_bare))
    if isinstance(expr, Not):
        return Not(_qualify(expr.operand, resolve_bare))
    if isinstance(expr, IsNull):
        return IsNull(_qualify(expr.operand, resolve_bare), expr.negated)
    if isinstance(expr, Arith):
        return Arith(expr.op, _qualify(expr.left, resolve_bare),
                     _qualify(expr.right, resolve_bare))
    if isinstance(expr, InList):
        return InList(
            _qualify(expr.operand, resolve_bare),
            tuple(_qualify(o, resolve_bare) for o in expr.options),
        )
    raise CompileError(
        f"unsupported expression in classical statement: {type(expr).__name__}"
    )


def _map_where(expr: Expr, leaf) -> Expr:
    """Rebuild a WHERE clause's AND/OR/NOT skeleton — the only positions
    where ``IN (SELECT ...)`` may stand — applying ``leaf`` below it."""
    if isinstance(expr, And):
        return And(_map_where(expr.left, leaf), _map_where(expr.right, leaf))
    if isinstance(expr, Or):
        return Or(_map_where(expr.left, leaf), _map_where(expr.right, leaf))
    if isinstance(expr, Not):
        return Not(_map_where(expr.operand, leaf))
    return leaf(expr)


def _qualify_where(expr: Expr, resolve_bare) -> Expr:
    """:func:`_qualify` for a WHERE clause: an ``IN (SELECT ...)`` has its
    tuple items qualified and its subquery left for :func:`_bind_where`
    to evaluate per execution."""

    def leaf(expr: Expr) -> Expr:
        if isinstance(expr, InSelect):
            return InSelect(
                tuple(_qualify(item, resolve_bare) for item in expr.items),
                expr.subquery,
            )
        if isinstance(expr, InAnswer):
            raise CompileError(
                "IN ANSWER is only allowed in entangled SELECT ... INTO ANSWER"
            )
        return _qualify(expr, resolve_bare)

    return _map_where(expr, leaf)


def _bind_where(expr: Expr, db, env, params) -> Expr:
    """Bind a resolved WHERE clause for one execution.

    ``IN (SELECT ...)`` is uncorrelated in this dialect, so the subquery
    is evaluated eagerly and replaced by a literal membership test;
    everything else is :func:`inline_hostvars`.
    """

    def leaf(expr: Expr) -> Expr:
        if isinstance(expr, InSelect):
            return _membership_test(expr, db, env, params)
        return inline_hostvars(expr, env, params)

    return _map_where(expr, leaf)


def _rebind_subquery_columns(expr: Expr, resolve) -> Expr:
    """Rewrite subquery column refs to canonical slot names for residuals."""
    if isinstance(expr, Col):
        slot = resolve(expr.name)
        return Col(_slot_name(slot))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _rebind_subquery_columns(expr.left, resolve),
                   _rebind_subquery_columns(expr.right, resolve))
    if isinstance(expr, And):
        return And(_rebind_subquery_columns(expr.left, resolve),
                   _rebind_subquery_columns(expr.right, resolve))
    if isinstance(expr, Or):
        return Or(_rebind_subquery_columns(expr.left, resolve),
                  _rebind_subquery_columns(expr.right, resolve))
    if isinstance(expr, Not):
        return Not(_rebind_subquery_columns(expr.operand, resolve))
    if isinstance(expr, IsNull):
        return IsNull(_rebind_subquery_columns(expr.operand, resolve), expr.negated)
    if isinstance(expr, Arith):
        return Arith(expr.op, _rebind_subquery_columns(expr.left, resolve),
                     _rebind_subquery_columns(expr.right, resolve))
    if isinstance(expr, InList):
        return InList(
            _rebind_subquery_columns(expr.operand, resolve),
            tuple(_rebind_subquery_columns(o, resolve) for o in expr.options),
        )
    raise CompileError(
        f"unsupported predicate in entangled subquery: {type(expr).__name__}"
    )


def _residual_to_vars(ctx, expr: Expr) -> Expr:
    """Rewrite residual predicates to use canonical variable names."""
    if isinstance(expr, Col):
        if expr.name.startswith("@"):
            raise CompileError(f"unbound host variable {expr.name}")
        # Either an outer name or an already-canonical subquery slot name.
        if ("name", expr.name) in ctx.uf._parent or expr.name in ctx.outer_name_slots:
            slot = ctx.outer_slot(expr.name)
        else:
            slot = _find_slot_by_name(ctx, expr.name)
        constant = ctx.uf.constant_of(slot)
        if constant is not None:
            return Const(constant[0])
        return Col(_canonical_var(ctx, slot))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _residual_to_vars(ctx, expr.left),
                   _residual_to_vars(ctx, expr.right))
    if isinstance(expr, And):
        return And(_residual_to_vars(ctx, expr.left),
                   _residual_to_vars(ctx, expr.right))
    if isinstance(expr, Or):
        return Or(_residual_to_vars(ctx, expr.left),
                  _residual_to_vars(ctx, expr.right))
    if isinstance(expr, Not):
        return Not(_residual_to_vars(ctx, expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(_residual_to_vars(ctx, expr.operand), expr.negated)
    if isinstance(expr, Arith):
        return Arith(expr.op, _residual_to_vars(ctx, expr.left),
                     _residual_to_vars(ctx, expr.right))
    if isinstance(expr, InList):
        return InList(
            _residual_to_vars(ctx, expr.operand),
            tuple(_residual_to_vars(ctx, o) for o in expr.options),
        )
    raise CompileError(
        f"unsupported residual predicate: {type(expr).__name__}"
    )


# ---------------------------------------------------------------------------
# sql/ast.py
# ---------------------------------------------------------------------------


def inline_hostvars(expr: Expr, env, params=()) -> Expr:
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
    if kind is Cmp or kind is Arith:
        left = inline_hostvars(expr.left, env, params)
        right = inline_hostvars(expr.right, env, params)
        if left is expr.left and right is expr.right:
            return expr
        return kind(expr.op, left, right)
    if kind is And or kind is Or:
        left = inline_hostvars(expr.left, env, params)
        right = inline_hostvars(expr.right, env, params)
        if left is expr.left and right is expr.right:
            return expr
        return kind(left, right)
    if kind is Not:
        return Not(inline_hostvars(expr.operand, env, params))
    if kind is IsNull:
        return IsNull(inline_hostvars(expr.operand, env, params), expr.negated)
    if kind is InList:
        return InList(
            inline_hostvars(expr.operand, env, params),
            tuple(inline_hostvars(o, env, params) for o in expr.options),
        )
    if kind is InSelect:
        return InSelect(
            tuple(inline_hostvars(i, env, params) for i in expr.items),
            bind_select(expr.subquery, env, params),
        )
    if kind is InAnswer:
        return InAnswer(
            tuple(inline_hostvars(i, env, params) for i in expr.items),
            expr.answer_relation,
        )
    raise CompileError(f"cannot inline into {kind.__name__}")


def _bind_items(items, env, params) -> tuple[SelectItem, ...]:
    return tuple(
        item if item.expr is None else SelectItem(
            inline_hostvars(item.expr, env, params), item.bind_var, item.alias)
        for item in items
    )


def _bind_optional(expr: Expr | None, env, params) -> Expr | None:
    return None if expr is None else inline_hostvars(expr, env, params)


def bind_select(stmt: SelectStmt, env, params=()) -> SelectStmt:
    """:func:`inline_hostvars` over a SELECT's items and WHERE clause."""
    return SelectStmt(
        _bind_items(stmt.items, env, params), stmt.tables,
        _bind_optional(stmt.where, env, params), stmt.distinct, stmt.limit,
        stmt.star, stmt.order_by,
    )


# ---------------------------------------------------------------------------
# storage/planner.py
# ---------------------------------------------------------------------------


def _names(expr: Expr, out: list) -> None:
    """Append every column / host-variable name under ``expr``."""
    kind = type(expr)
    if kind is Col:
        out.append(expr.name)
    elif kind is Const:
        pass
    elif kind in (Cmp, And, Or, Arith):
        _names(expr.left, out)
        _names(expr.right, out)
    elif kind in (Not, IsNull):
        _names(expr.operand, out)
    elif kind is InList:
        _names(expr.operand, out)
        for option in expr.options:
            _names(option, out)
    else:
        out.extend(sorted(columns(expr)))
